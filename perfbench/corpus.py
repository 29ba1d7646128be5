"""Seeded input generators for the benchmark.

Every generator draws from a ``random.Random`` built from the run's seed and
returns text in the library's own file formats (graph, gains, basis) plus
plain operation specs.  Nothing here imports ``gainbalance``: the corpus for a
seed is byte-identical at every commit, so two commits are measured on the
same inputs.

Sizes and the mix of operation kinds come from fixed schedules; the seed
draws everything else (graph structure, gains, planted perturbations, spanning
trees, query circles, the order of operations in each pass).  That keeps the cost of a corpus
nearly the same from seed to seed, which is what makes runs comparable.
"""

from __future__ import annotations

import itertools
import json
import random

Edge = tuple[str, str, str]  # (id, tail, head)


# -- graph text ------------------------------------------------------------------


def graph_text(edges: list[Edge]) -> str:
    return "".join(f"edge {e} {t} {h}\n" for e, t, h in edges)


def basis_text(members: list[list[str]]) -> str:
    return "".join(" ".join(sorted(m)) + "\n" for m in members)


def grid_edges(r: int, c: int) -> list[Edge]:
    """The edges of the library's named ``Grid(r,c)``, with its documented ids."""
    out = []
    for i in range(r + 1):
        for j in range(c + 1):
            if j < c:
                out.append((f"h{i}_{j}", f"n{i}_{j}", f"n{i}_{j + 1}"))
            if i < r:
                out.append((f"v{i}_{j}", f"n{i}_{j}", f"n{i + 1}_{j}"))
    return out


def grid_rectangle(i0: int, j0: int, i1: int, j1: int) -> list[str]:
    """Boundary of the rectangle with corners n{i0}_{j0} and n{i1}_{j1}."""
    out = [f"h{i0}_{j}" for j in range(j0, j1)] + [f"h{i1}_{j}" for j in range(j0, j1)]
    out += [f"v{i}_{j0}" for i in range(i0, i1)] + [f"v{i}_{j1}" for i in range(i0, i1)]
    return out


def grid_faces(r: int, c: int) -> list[list[str]]:
    return [grid_rectangle(i, j, i + 1, j + 1) for i in range(r) for j in range(c)]


def wheel_edges(n: int) -> list[Edge]:
    """The edges of the library's named ``W{n}``: hub ``w``, spokes ``s``, rim ``r``."""
    out = []
    for i in range(1, n + 1):
        out.append((f"s{i}", "w", f"v{i}"))
        out.append((f"r{i}", f"v{i}", f"v{i % n + 1}"))
    return out


def wheel_hamiltonian_basis(n: int) -> list[list[str]]:
    """The Hamiltonian circles of ``W{n}``: the rim minus one rim edge, closed
    through the two spokes at its ends.  They form a basis for even ``n`` only."""
    out = []
    for i in range(1, n + 1):
        j = (i - 2) % n + 1
        out.append([f"r{k}" for k in range(1, n + 1) if k != j] + [f"s{i}", f"s{j}"])
    return out


def relabel(rng: random.Random, edges: list[Edge], vprefix: str, eprefix: str) -> list[Edge]:
    """Fresh random vertex and edge ids, so edge-id order (which drives the
    library's spanning forests) carries no trace of how the graph was built."""
    verts = sorted({v for _, t, h in edges for v in (t, h)})
    vperm = rng.sample(range(len(verts)), len(verts))
    vname = {v: f"{vprefix}{vperm[i]}" for i, v in enumerate(verts)}
    eperm = rng.sample(range(len(edges)), len(edges))
    return [(f"{eprefix}{eperm[i]}", vname[t], vname[h]) for i, (_, t, h) in enumerate(edges)]


def random_multigraph(rng: random.Random, n: int, extra: int) -> list[Edge]:
    """Connected multigraph on ``n`` vertices: a random tree with long paths,
    plus ``extra`` edges of which some are loops and some parallel copies."""
    edges: list[Edge] = []
    for i in range(1, n):
        parent = rng.randrange(max(0, i - 6), i)
        edges.append(("", f"x{parent}", f"x{i}"))
    for _ in range(extra):
        roll = rng.random()
        if roll < 0.05:
            v = f"x{rng.randrange(n)}"
            edges.append(("", v, v))
        elif roll < 0.15:
            _, t, h = rng.choice(edges)
            edges.append(("", t, h))
        else:
            a, b = rng.sample(range(n), 2)
            edges.append(("", f"x{a}", f"x{b}"))
    return relabel(rng, edges, "x", "a")


# -- spanning trees and fundamental circles -------------------------------------


def random_spanning_tree(rng: random.Random, edges: list[Edge]) -> set[str]:
    """Kruskal over a random edge order."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for e, t, h in rng.sample(edges, len(edges)):
        a, b = find(t), find(h)
        if a != b:
            parent[a] = b
            tree.add(e)
    return tree


def fundamental_basis(edges: list[Edge], tree: set[str]) -> list[list[str]]:
    """One circle per non-tree edge: the edge plus the tree path between its ends."""
    adj: dict[str, list[tuple[str, str]]] = {}
    for e, t, h in edges:
        if e in tree:
            adj.setdefault(t, []).append((e, h))
            adj.setdefault(h, []).append((e, t))
    root = edges[0][1]
    up: dict[str, tuple[str, str] | None] = {root: None}
    depth = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for e, u in adj.get(v, ()):
            if u not in up:
                up[u] = (e, v)
                depth[u] = depth[v] + 1
                stack.append(u)
    out = []
    for e, t, h in edges:
        if e in tree:
            continue
        path = [e]
        a, b = t, h
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            step, a = up[a]
            path.append(step)
        out.append(path)
    return out


def non_bridge_edges(edges: list[Edge], tree: set[str]) -> list[str]:
    """Edges that lie on some circle: every non-tree edge, and every tree edge
    on the fundamental circle of one."""
    on_circle = set()
    for member in fundamental_basis(edges, tree):
        on_circle.update(member)
    return sorted(on_circle)


# -- gain groups -------------------------------------------------------------------
#
# A group is ("Z", (k1, .., kr)) with residue-vector elements, or
# ("free", symbols) with reduced words of (symbol, +-1) letters.


GROUPS = {
    "Z3": ("Z", (3,)),
    "Z5": ("Z", (5,)),
    "Z7": ("Z", (7,)),
    "Z2xZ3": ("Z", (2, 3)),
    "free(a,b)": ("free", ("a", "b")),
}


def _reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def g_mul(group, x, y):
    kind, data = group
    if kind == "Z":
        return tuple((a + b) % k for a, b, k in zip(x, y, data))
    return _reduce(x + y)


def g_inv(group, x):
    kind, data = group
    if kind == "Z":
        return tuple((-a) % k for a, k in zip(x, data))
    return tuple((s, -e) for s, e in reversed(x))


def g_identity(group):
    kind, data = group
    return (0,) * len(data) if kind == "Z" else ()


def g_random(rng: random.Random, group, nontrivial: bool = False):
    kind, data = group
    while True:
        if kind == "Z":
            x = tuple(rng.randrange(k) for k in data)
        else:
            x = _reduce(tuple((rng.choice(data), rng.choice((1, -1))) for _ in range(rng.randrange(0, 4))))
        if not nontrivial or x != g_identity(group):
            return x


def gains_text(group, gains: dict[str, tuple]) -> str:
    kind, data = group
    if kind == "Z":
        lines = ["group " + " x ".join(f"Z {k}" for k in data)]
        fmt = lambda x: " ".join(map(str, x))  # noqa: E731
    else:
        lines = ["group free " + " ".join(data)]
        fmt = lambda x: " ".join(("" if e == 1 else "-") + s for s, e in x)  # noqa: E731
    for eid in sorted(gains):
        if gains[eid] != g_identity(group):
            lines.append(f"gain {eid} {fmt(gains[eid])}")
    return "\n".join(lines) + "\n"


def switched_gains(rng: random.Random, group, edges: list[Edge], planted: str | None) -> dict[str, tuple]:
    """A random switching of the identity gains, so every circle is balanced
    while edges carry nontrivial gains; with ``planted`` set, that edge's gain
    is also multiplied by a nontrivial element, which unbalances exactly the
    circles through it."""
    verts = sorted({v for _, t, h in edges for v in (t, h)})
    f = {v: g_random(rng, group) for v in verts}
    out = {}
    for e, t, h in edges:
        middle = g_random(rng, group, nontrivial=True) if e == planted else g_identity(group)
        out[e] = g_mul(group, g_mul(group, g_inv(group, f[t]), middle), f[h])
    return out


# -- workload corpora -----------------------------------------------------------


class Corpus:
    """Files to write (name -> text), the operation specs that use them, and
    workload parameters."""

    def __init__(self, **params) -> None:
        self.files: dict[str, str] = {}
        self.ops: list[dict] = []
        self.params = params

    def add_file(self, name: str, text: str) -> str:
        self.files[name] = text
        return name

    def manifest(self) -> str:
        return json.dumps({"params": self.params, "ops": self.ops}, sort_keys=True, indent=1) + "\n"


# balance: every host runs once under each CLI command; the group and whether
# the gains are balanced rotate over hosts and commands.
BALANCE_HOSTS = (
    ("grid", (8, 8)),
    ("grid", (12, 12)),
    ("grid", (16, 16)),
    ("grid", (22, 22)),
    ("grid", (30, 30)),
    ("random", (100, 100)),
    ("random", (200, 200)),
    ("random", (400, 450)),
    ("wheel", (30,)),
    ("wheel", (60,)),
    ("wheel", (100,)),
)
BALANCE_COMMANDS = ("balance", "circle-test", "cycle-test")
BALANCE_GROUPS = ("Z3", "Z2xZ3", "free(a,b)", "Z5", "Z7")
# implies_balance_abelian: grid face bases (order 1) and W2k Hamiltonian bases (order 2k-1)
SMITH_GRIDS = ((4, 6), (6, 8), (8, 8), (9, 10))
SMITH_WHEELS = (6, 10, 16, 24)


def balance_corpus(seed: int) -> Corpus:
    rng = random.Random(f"balance/{seed}")
    corpus = Corpus()
    k = 0
    for hi, (kind, size) in enumerate(BALANCE_HOSTS):
        for ci, command in enumerate(BALANCE_COMMANDS):
            k += 1
            if kind == "grid":
                edges, graph_arg = grid_edges(*size), f"Grid({size[0]},{size[1]})"
            elif kind == "wheel":
                edges, graph_arg = wheel_edges(size[0]), f"W{size[0]}"
            else:
                edges = random_multigraph(rng, *size)
                graph_arg = corpus.add_file(f"b{k}.graph", graph_text(edges))
            group_name = BALANCE_GROUPS[(hi + ci) % len(BALANCE_GROUPS)]
            group = GROUPS[group_name]
            balanced = (hi + ci) % 2 == 0
            tree = random_spanning_tree(rng, edges)
            planted = None if balanced else rng.choice(non_bridge_edges(edges, tree))
            gains = corpus.add_file(f"b{k}.gains", gains_text(group, switched_gains(rng, group, edges, planted)))
            argv = [command, graph_arg, gains]
            basis_kind = None
            if command != "balance":
                if kind == "grid" and ci == 1:
                    basis_kind, members = "faces", grid_faces(*size)
                elif kind == "wheel" and ci == 1:
                    basis_kind, members = "hamiltonian", wheel_hamiltonian_basis(size[0])
                else:
                    basis_kind, members = "fundamental", fundamental_basis(edges, tree)
                argv.append(corpus.add_file(f"b{k}.basis", basis_text(members)))
            corpus.ops.append(
                {
                    "argv": argv + ["--json"],
                    "host": graph_arg if kind != "random" else f"random{size}",
                    "group": group_name,
                    "basis": basis_kind,
                    "balanced": balanced,
                    "planted": planted,
                }
            )
    for r, c in SMITH_GRIDS:
        k += 1
        queries = []
        for _ in range(3):
            i0, i1 = sorted(rng.sample(range(r + 1), 2))
            j0, j1 = sorted(rng.sample(range(c + 1), 2))
            queries.append(sorted(grid_rectangle(i0, j0, i1, j1)))
        corpus.ops.append(
            {
                "host": f"Grid({r},{c})",
                "basis": corpus.add_file(f"b{k}.basis", basis_text(rng.sample(grid_faces(r, c), r * c))),
                "queries": queries,
                "orders": [1] * len(queries),
            }
        )
    for n in SMITH_WHEELS:
        k += 1
        members = wheel_hamiltonian_basis(n)
        i = rng.randrange(1, n + 1)
        corpus.ops.append(
            {
                "host": f"W{n}",
                "basis": corpus.add_file(f"b{k}.basis", basis_text(rng.sample(members, n))),
                "queries": [sorted(f"r{j}" for j in range(1, n + 1)), sorted(members[i - 1])],
                "orders": [n - 1, 1],
            }
        )
    rng.shuffle(corpus.ops)
    return corpus


# classify: named hosts with known verdicts, random inseparable hosts, and
# extrusion chains (Good by construction).
NAMED_HOSTS = (
    "W4 W5 W6 W7 W8 2C4 2C5 2C6 2C7 2C8 K4dd C3(3,3,2) C3(2,2,2) C3(4,2,2) C3(3,3,3) "
    "K4(1,1) K4(2,1) K4(3,2) Fan(1;1,1) Fan(2;1,1) Fan(1;2,2) Fan(2;2,1,1) "
    "Grid(1,2) Grid(1,4) Grid(1,6) Grid(2,2) Grid(2,3)"
).split()
NAMED_GOOD = {"C3(2,2,2)", "C3(4,2,2)", "K4(1,1)", "K4(2,1)", "K4(3,2)", "Fan(1;1,1)", "Fan(2;1,1)",
              "Fan(1;2,2)", "Fan(2;2,1,1)", "Grid(1,2)", "Grid(1,4)", "Grid(1,6)"}
NAMED_Z5_BAD = {"W6", "2C6"}  # the even wheel / doubled circle matching Z(2k-1) = Z5
SIMPLE_HOSTS = {
    "K5": list(itertools.combinations(range(5), 2)),
    "K6": list(itertools.combinations(range(6), 2)),
    "K3,3": [(i, j) for i in range(3) for j in range(3, 6)],
    "Q3": [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1],
    "Petersen": [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
}
CLASSES = ("contains-z3", "groups:Z5", "abelian")
# Random hosts have 8 edges.  Under contains-z3 a random inseparable host of
# 10-12 edges takes 0.002-0.45 s and one of 13-16 edges 0.03-14 s (2-vCPU
# Xeon VM, Python 3.11), so with larger hosts the cost and the tail of a
# corpus depended on the seed more than on the code.  Of 9-edge hosts about
# 1 % of circle tests take 100-135 ms, right at op_tail_ms's rank, so whether
# a seed drew one moved op_tail_ms by 20 %; 8-edge hosts stay below 50 ms
# (480 circle tests over 8 seeds), under the named hosts' tail.
EAR_EDGES = (8,) * 30
CHAIN_BASES = (("mK2", (4,)), ("C3", (3, 2, 2)), ("K4", (2, 1)), ("mK2", (3,)), ("C3", (2, 2, 2)), ("K4", (1, 1)))
CHAIN_STEPS = (8, 10, 12, 14, 9, 11)
# Left out because they do not finish (ROADMAP item 2, "every search
# terminates"); a later benchmark change adds them once they do:
#   * circle test on Grid(3,3) and Grid(2,4) (minor search runs for minutes);
#   * binary cycle test on simple hosts of about 45 edges or more, such as
#     Grid(5,5) (the short-circle search enumerates every circle);
#   * some random hosts with 18 or more edges.


def ear_host(rng: random.Random, m: int) -> list[Edge]:
    """Random inseparable loopless multigraph with ``m`` edges, built by open
    ear decomposition from a circle."""
    length = rng.randrange(2, 5)
    edges = [("", f"y{i}", f"y{(i + 1) % length}") for i in range(length)]
    n = length
    while len(edges) < m:
        ear = min(rng.randrange(1, 4), m - len(edges))
        u, v = rng.sample(range(n), 2)
        path = [u] + list(range(n, n + ear - 1)) + [v]
        n += ear - 1
        edges += [("", f"y{a}", f"y{b}") for a, b in zip(path, path[1:])]
    return relabel(rng, edges, "y", "b")


def base_edges(family: str, params: tuple) -> list[Edge]:
    edges = []
    if family == "mK2":
        edges = [("", "u", "v")] * params[0]
    elif family == "C3":
        for i, m in enumerate(params):
            edges += [("", f"c{i}", f"c{(i + 1) % 3}")] * m
    else:
        m, mp = params
        edges = [("", "k1", "k2")] * m + [("", "k3", "k4")] * mp
        edges += [("", "k1", "k3"), ("", "k1", "k4"), ("", "k2", "k3"), ("", "k2", "k4")]
    return edges


def extrusion_chain(rng: random.Random, family: str, params: tuple, steps: int) -> list[Edge]:
    """Apply ``steps`` random extrusions to a base family: split a vertex v
    along a neighbour w, moving a nonempty subset of the v-w edges to a new
    vertex joined to v by one new edge.  The result is Good for the circle
    test over every group class."""
    edges = base_edges(family, params)
    fresh = 0
    for _ in range(steps):
        pairs = sorted({(t, h) for _, t, h in edges} | {(h, t) for _, t, h in edges})
        v, w = rng.choice(pairs)
        between = [i for i, (_, t, h) in enumerate(edges) if {t, h} == {v, w}]
        moved = set(rng.sample(between, rng.randrange(1, len(between) + 1)))
        new = f"p{fresh}"
        fresh += 1
        edges = [("", new, w) if i in moved else edge for i, edge in enumerate(edges)]
        edges.append(("", v, new))
    return relabel(rng, edges, "z", "c")


def classify_corpus(seed: int) -> Corpus:
    rng = random.Random(f"classify/{seed}")
    corpus = Corpus()
    # (host spec, expected circle verdict under contains-z3; None: Good or Bad)
    hosts: list[tuple[dict, str | None]] = []
    for tag in NAMED_HOSTS:
        hosts.append(({"tag": tag}, "Good" if tag in NAMED_GOOD else "Bad"))
    # The simple named hosts get one fixed labelling, as the library's named
    # tags do: they make up most of the tail, and a labelling drawn from the
    # seed moved op_tail_ms by 20 % from seed to seed.
    named = random.Random("classify/named")
    for name, pairs in SIMPLE_HOSTS.items():
        edges = relabel(named, [("", f"q{a}", f"q{b}") for a, b in pairs], "q", "d")
        hosts.append(({"file": corpus.add_file(f"{name}.graph", graph_text(edges)), "name": name}, "Bad"))
    for i, m in enumerate(EAR_EDGES):
        name = f"ear{i}"
        hosts.append(({"file": corpus.add_file(f"{name}.graph", graph_text(ear_host(rng, m))), "name": name}, None))
    for i, ((family, params), steps) in enumerate(zip(CHAIN_BASES, CHAIN_STEPS)):
        name = f"chain{i}"
        edges = extrusion_chain(rng, family, params, steps)
        hosts.append(({"file": corpus.add_file(f"{name}.graph", graph_text(edges)), "name": name}, "Good"))
    for hi, (host, circle_z3) in enumerate(hosts):
        name = host.get("tag") or host["name"]
        if "tag" in host or name in SIMPLE_HOSTS:
            # named hosts: the circle test under every class, the binary test under one
            runs = [("circle", cls) for cls in CLASSES] + [("cycle", "abelian")]
        else:
            # random hosts and chains: one class per test, rotated over the hosts
            runs = [("circle", CLASSES[hi % 3]), ("cycle", CLASSES[(hi + 1) % 3])]
        for test, cls in runs:
            if test == "cycle":
                expect = "Bad"  # every host here has a circle, and every class has odd torsion
            elif cls == "groups:Z5" and circle_z3 == "Bad":
                expect = "Bad" if name in NAMED_Z5_BAD else "Unknown"
            elif cls == "groups:Z5" and circle_z3 is None:
                expect = "any"  # a random host that is Bad under Z3 may be Bad or Unknown under Z5
            else:
                expect = circle_z3
            corpus.ops.append({**host, "test": test, "class": cls, "expect": expect})
    rng.shuffle(corpus.ops)
    return corpus


# atlas and survey: the library enumerates the graphs itself; an operation
# names a graph by its place in the enumeration.
# 8 edges rather than 9: a 9-edge pass takes 11-16 s on the same VM, too long
# to repeat within a run, and a single pass per run was too unsteady to compare.
ATLAS_MAX_EDGES = 8
ATLAS_GRAPHS = 150  # inseparable multigraphs with 1..8 edges, up to isomorphism
ATLAS_GROUPS = ("Z3", "Z5")
SURVEY_MAX_EDGES = 7
SURVEY_GRAPHS = 5151  # multigraphs with 1..7 edges and no isolated vertex


def atlas_corpus(seed: int) -> Corpus:
    rng = random.Random(f"atlas/{seed}")
    corpus = Corpus(max_edges=ATLAS_MAX_EDGES, graphs=ATLAS_GRAPHS)
    corpus.ops = [{"graph": i, "group": grp} for i in range(ATLAS_GRAPHS) for grp in ATLAS_GROUPS]
    rng.shuffle(corpus.ops)
    return corpus


def survey_corpus(seed: int) -> Corpus:
    rng = random.Random(f"survey/{seed}")
    corpus = Corpus(max_edges=SURVEY_MAX_EDGES, graphs=SURVEY_GRAPHS)
    corpus.ops = [{"graph": i, "group": "Z3"} for i in range(SURVEY_GRAPHS)]
    rng.shuffle(corpus.ops)
    return corpus


CORPORA = {
    "balance": balance_corpus,
    "classify": classify_corpus,
    "atlas": atlas_corpus,
    "survey": survey_corpus,
}
