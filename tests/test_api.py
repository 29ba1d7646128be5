"""The library keeps no dead code: every public function is used or is API.

A public module-level function of ``src/gainbalance`` that no other library
code references must be documented API, named below with its role.  A new
helper that nothing calls fails here until it is removed, moved into the
tests, or documented and added to this list.
"""

import ast
from pathlib import Path

import gainbalance

SRC = Path(gainbalance.__file__).resolve().parent

# Functions that no library code calls, kept as documented API.
API = {
    "cyclespace.theta_sum": "the README's cyclespace row",
    "cyclespace.improper_edges": "the README's cyclespace row",
    "cyclespace.digon_condition": "the README's cyclespace row",
    "cyclespace.basis_to_text": "writer of the basis file format",
    "cyclespace.parse_basis_text": "reader of the basis file format with every member oriented, for the abelian analysis",
    "graphcore.graph_to_text": "writer of the graph file format",
    "minors.whitney_twist": "the README's minors row; switching/twist invariance in the acceptance tests",
    "minors.bridges_of_pair": "the README's minors row; the bridge CI step",
    "minors.has_two_separation": "the no-2-separation guarantee in the acceptance tests",
    "minors.is_extrusion_irreducible": "the no-2-separation guarantee in the acceptance tests",
    "minors.verify_reverse_steps": "replays a Good verdict's extrusion log; the benchmark's check",
    "minors.contract": "the README's minors row; the string-id references contract with it",
    "minors.reverse_extrusion_reduce": "the README's minors row; the compact reduction on a Graph",
    "graphcore.suppress_divalent": "the README's graphcore row",
    "gaingraph.switch_to_forest": "the README's gaingraph row",
}

# Entry points that no library code calls either: what a user of the library
# calls first.
ENTRY_POINTS = {
    "balancetests.implies_balance_abelian": "the README's universal abelian balance report",
    "balancetests.abelian_witness": "the README's cyclic witnesses",
    "cyclespace.fundamental_circles": "the README's fundamental systems",
    "cyclespace.enumerate_circles": "the README's cyclespace row",
    "enumeration.all_multigraphs": "the README's exhaustive multigraph enumeration",
    "gaingraph.gains_to_text": "writer of the gain file format",
    "graphcore.grid_faces": "the face basis of the Grid family",
    "minors.extrude": "the README's extrusion",
    "classify.structural_decomposition": "the README's structural decompositions with replayable logs",
}


def _unreferenced_public_functions() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined, referenced = set(), set()
    for module, tree in trees.items():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if own is not None and not own.startswith("_"):
                defined.add((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:  # a function calling itself is not a caller
                    referenced.add(name)
    return {f"{module}.{name}" for module, name in defined if name not in referenced}


def test_every_uncalled_public_function_is_documented_api():
    assert _unreferenced_public_functions() == API.keys() | ENTRY_POINTS.keys()


def test_numpy_lives_in_the_oracle_alone():
    texts = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert sorted(name for name, text in texts.items() if "numpy" in text or "np." in text) == ["oracle.py"]
