"""Gain groups behind one protocol, with elements as plain tuples.

Three frozen group types:

* :class:`CyclicProduct` is Z(k1) x ... x Z(kr) (``cyclic(k)``,
  ``abelian_product(k1, .., kr)``); an element is a tuple of residues.
* :class:`FreeGroup` is the free group on named symbols (``free_on(*symbols)``);
  an element is a reduced word, a tuple of ``(symbol, +1 or -1)`` letters.
* :class:`Symmetric` is S_n (``symmetric(n)``); an element is a permutation
  of ``range(n)`` as its tuple of images, composed right to left:
  ``op(x, y)[i] == x[y[i]]``.

Each type provides ``identity()``, ``op``, ``inverse``, ``element`` (builds an
element from its raw form), ``is_element``, ``elements()`` (finite groups
only, identity first), ``order()`` (None when infinite), ``has_order(d)``
(some element has order d), ``has_odd_torsion()`` (some element has odd
order above 1), ``least_odd_order()`` (the least such order, searched up to
``WITNESS_MAX_ORDER``; None when there is none up to it), ``is_abelian`` and
its text forms: ``str(group)`` names the group, ``header()`` is its
gain-file header, and ``format_element`` / ``parse_element`` write and read
elements.
Elements carry no group, so a foreign element is caught where gains enter a
gain graph (``gaingraph.gain_graph``), not by ``op``.

Gain-file headers name all three types: ``group Z 3``, ``group Z 2 x Z 3``,
``group free a b c``, ``group S 3``, so every gain file that
``gaingraph.gains_to_text`` writes reads back.  CLI specs name all three
too: ``Z3``, ``Z2xZ3``, ``free:a,b``, ``S3``.

A :class:`GroupClass` describes the family of admissible gain groups for
classification; explicit lists are treated as subgroup closed.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import GraphError, ParseError

# The greatest least odd order a class is searched for, and so the greatest
# cyclic order of the binary test's loop-vertex witness, a walk of that many
# steps (``classify.bad_witness``).  At this order the witness is built,
# verified and written with ``--json`` in well under a second.
WITNESS_MAX_ORDER = 100_000


@dataclass(frozen=True)
class CyclicProduct:
    """Z(k1) x ... x Z(kr), written additively; elements are residue tuples."""

    moduli: tuple[int, ...]
    is_abelian = True

    def __post_init__(self):
        if not self.moduli or any(k < 1 for k in self.moduli):
            raise GraphError("cyclic/product moduli must be >= 1")

    def identity(self) -> tuple:
        return (0,) * len(self.moduli)

    def op(self, x: tuple, y: tuple) -> tuple:
        moduli = self.moduli
        if len(moduli) == 1:
            return ((x[0] + y[0]) % moduli[0],)
        return tuple([(a + b) % k for a, b, k in zip(x, y, moduli)])

    def inverse(self, x: tuple) -> tuple:
        moduli = self.moduli
        if len(moduli) == 1:
            return (-x[0] % moduli[0],)
        return tuple([-a % k for a, k in zip(x, moduli)])

    def element(self, residues: Sequence[int]) -> tuple:
        if len(residues) != len(self.moduli):
            raise GraphError("residue vector length mismatch")
        return tuple(r % k for r, k in zip(residues, self.moduli))

    def is_element(self, x) -> bool:
        return (isinstance(x, tuple) and len(x) == len(self.moduli)
                and all(isinstance(r, int) and 0 <= r < k for r, k in zip(x, self.moduli)))

    def elements(self) -> list[tuple]:
        return list(itertools.product(*map(range, self.moduli)))

    def order(self) -> int:
        return math.prod(self.moduli)

    def has_order(self, d: int) -> bool:
        return math.lcm(*self.moduli) % d == 0

    def has_odd_torsion(self) -> bool:
        return any(k & (k - 1) for k in self.moduli)  # some modulus is not a power of two

    def least_odd_order(self) -> Optional[int]:
        # the least odd prime factor of the exponent (every odd order above 1
        # has one), by trial division up to the square root of its odd part
        # or the ceiling, whichever is less; when none divides, the odd part
        # is prime or its least factor is past the ceiling
        n = math.lcm(*self.moduli)
        n >>= (n & -n).bit_length() - 1
        least = next((p for p in range(3, min(math.isqrt(n), WITNESS_MAX_ORDER) + 1, 2) if n % p == 0), n)
        return least if 1 < least <= WITNESS_MAX_ORDER else None

    def __str__(self):
        return "x".join(f"Z{k}" for k in self.moduli)

    def header(self) -> str:
        return " x ".join(f"Z {k}" for k in self.moduli)

    def format_element(self, x: tuple) -> str:
        return " ".join(map(str, x))

    def parse_element(self, tokens: Sequence[str]) -> tuple:
        if len(tokens) != len(self.moduli):
            raise ParseError(f"element for {self} needs {len(self.moduli)} residue(s)")
        try:
            return self.element([int(t) for t in tokens])
        except ValueError:
            raise ParseError(f"bad residues {tokens!r}") from None


@dataclass(frozen=True)
class FreeGroup:
    """The free group on ``symbols``; elements are reduced words."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise GraphError("free generators must be distinct")

    @property
    def is_abelian(self) -> bool:
        return len(self.symbols) <= 1

    def identity(self) -> tuple:
        return ()

    def op(self, x: tuple, y: tuple) -> tuple:
        # both words are reduced, so letters cancel only where they meet
        i, n = 0, min(len(x), len(y))
        while i < n and x[-1 - i][0] == y[i][0] and x[-1 - i][1] == -y[i][1]:
            i += 1
        return x[: len(x) - i] + y[i:]

    def inverse(self, x: tuple) -> tuple:
        return tuple([(sym, -s) for sym, s in reversed(x)])

    def element(self, word: Sequence[tuple[str, int]]) -> tuple:
        stack: list[tuple[str, int]] = []
        for sym, sgn in word:
            if sgn not in (1, -1):
                raise GraphError("word letters must carry sign +1 or -1")
            if stack and stack[-1] == (sym, -sgn):
                stack.pop()
            else:
                stack.append((sym, sgn))
        return tuple(stack)

    def is_element(self, x) -> bool:
        return (isinstance(x, tuple)
                and all(isinstance(t, tuple) and len(t) == 2 and t[0] in self.symbols and t[1] in (1, -1) for t in x)
                and all(a != (b[0], -b[1]) for a, b in zip(x, x[1:])))

    def elements(self) -> list[tuple]:
        if self.symbols:
            raise GraphError("cannot enumerate an infinite group")
        return [()]

    def order(self) -> Optional[int]:
        return None if self.symbols else 1

    def has_order(self, d: int) -> bool:
        return d == 1  # every other element has infinite order

    def has_odd_torsion(self) -> bool:
        return False

    def least_odd_order(self) -> None:
        return None

    def __str__(self):
        return "free(" + ",".join(self.symbols) + ")"

    def header(self) -> str:
        return "free " + " ".join(self.symbols)

    def format_element(self, x: tuple) -> str:
        return " ".join(("" if s == 1 else "-") + sym for sym, s in x) or "1"

    def parse_element(self, tokens: Sequence[str]) -> tuple:
        word = []
        for tok in tokens:
            sym = tok.removeprefix("-")
            if sym not in self.symbols:
                raise ParseError(f"unknown free generator {sym!r}")
            word.append((sym, -1 if tok.startswith("-") else 1))
        return self.element(word)


@dataclass(frozen=True)
class Symmetric:
    """S_n; elements are permutations of ``range(n)`` as image tuples."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("symmetric groups need n >= 1")

    @property
    def is_abelian(self) -> bool:
        return self.n <= 2

    def identity(self) -> tuple:
        return tuple(range(self.n))

    def op(self, x: tuple, y: tuple) -> tuple:
        return tuple([x[i] for i in y])

    def inverse(self, x: tuple) -> tuple:
        inv = [0] * len(x)
        for i, v in enumerate(x):
            inv[v] = i
        return tuple(inv)

    def element(self, images: Sequence[int]) -> tuple:
        x = tuple(images)
        if not self.is_element(x):
            raise GraphError(f"{x!r} is not a permutation of range({self.n})")
        return x

    def is_element(self, x) -> bool:
        return isinstance(x, tuple) and all(isinstance(i, int) for i in x) and sorted(x) == list(range(self.n))

    def elements(self) -> list[tuple]:
        return list(itertools.permutations(range(self.n)))

    def order(self) -> int:
        return math.factorial(self.n)

    def has_order(self, d: int) -> bool:
        # an order is the lcm of a cycle type, so d occurs exactly when its
        # prime-power parts, one cycle each, sum to at most n; a prime
        # factor above n leaves d > 1 (a composite p divides no longer)
        used = 0
        for p in range(2, min(d, self.n) + 1):
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            used += q if q > 1 else 0
        return d == 1 and used <= self.n

    def has_odd_torsion(self) -> bool:
        return self.n >= 3

    def least_odd_order(self) -> Optional[int]:
        return 3 if self.n >= 3 else None

    def __str__(self):
        return f"S{self.n}"

    def header(self) -> str:
        return f"S {self.n}"

    def format_element(self, x: tuple) -> str:
        return " ".join(map(str, x))

    def parse_element(self, tokens: Sequence[str]) -> tuple:
        try:
            return self.element([int(t) for t in tokens])
        except (ValueError, GraphError):
            raise ParseError(f"bad permutation {tokens!r}") from None


Group = CyclicProduct | FreeGroup | Symmetric


def cyclic(k: int) -> CyclicProduct:
    return CyclicProduct((k,))


def abelian_product(*moduli: int) -> CyclicProduct:
    return CyclicProduct(tuple(moduli))


def free_on(*symbols: str) -> FreeGroup:
    return FreeGroup(tuple(symbols))


def symmetric(n: int) -> Symmetric:
    return Symmetric(n)


# -- group text forms ----------------------------------------------------------


def parse_group_header(text: str) -> Group:
    """Parse ``Z 3``, ``Z 2 x Z 3``, ``free a b c``, ``S 3`` (the part after
    ``group``).  Orders are ASCII digits without a leading zero: ``\\d`` and
    ``str.isdigit`` would also take the digits of other scripts."""
    parts = text.split()
    if not parts:
        raise ParseError("empty group header")
    if parts[0] == "free":
        return free_on(*parts[1:])
    if re.fullmatch(r"S [1-9][0-9]*", " ".join(parts)):
        return symmetric(int(parts[1]))
    if not re.fullmatch(r"Z [1-9][0-9]*( x Z [1-9][0-9]*)*", " ".join(parts)):
        raise ParseError(f"unknown group header {text!r}")
    return abelian_product(*[int(tok) for tok in parts if tok.isdigit()])


def parse_group_spec(text: str) -> Group:
    """Parse compact CLI specs: ``Z3``, ``Z2xZ3``, ``free:a,b``, ``S3``, with
    orders written as in :func:`parse_group_header`."""
    s = text.strip()
    if s.startswith("free:"):
        return free_on(*[t for t in s[5:].split(",") if t])
    if re.fullmatch(r"S[1-9][0-9]*", s):
        return symmetric(int(s[1:]))
    if not re.fullmatch(r"Z[1-9][0-9]*(xZ[1-9][0-9]*)*", s):
        raise ParseError(f"unknown group spec {text!r}")
    return abelian_product(*[int(part[1:]) for part in s.split("x")])


# -- group classes ----------------------------------------------------------

ALL = "All"
ALL_ABELIAN = "AllAbelian"
EXPLICIT = "ExplicitList"
_CLASS_SPECS = {ALL: "all", ALL_ABELIAN: "abelian"}


@dataclass(frozen=True)
class GroupClass:
    """A subgroup-closed family of admissible gain groups."""

    kind: str
    groups: tuple[Group, ...] = ()

    def __str__(self):
        if self.kind in _CLASS_SPECS:
            return _CLASS_SPECS[self.kind]
        return "groups:" + ",".join(str(g) for g in self.groups)


@dataclass(frozen=True)
class ClassFlags:
    contains_z3: bool
    has_odd_torsion: bool
    abelian_only: bool
    smallest_odd_order: Optional[int] = None  # None without odd torsion, or past WITNESS_MAX_ORDER


def class_flags(c: GroupClass) -> ClassFlags:
    """Derived flags, computed over all subgroups of the listed groups: Z3
    and odd torsion are asked of each group directly, and only the least odd
    order is searched for, up to ``WITNESS_MAX_ORDER``."""
    if c.kind in _CLASS_SPECS:
        return ClassFlags(True, True, c.kind != ALL, 3)
    least = min((d for g in c.groups if (d := g.least_odd_order()) is not None), default=None)
    return ClassFlags(
        any(g.has_order(3) for g in c.groups),
        any(g.has_odd_torsion() for g in c.groups),
        all(g.is_abelian for g in c.groups),
        least,
    )


def parse_class_spec(text: str) -> GroupClass:
    """Parse ``all | abelian | contains-z3 | groups:Z3,Z5 | groups:Z2xZ2``."""
    s = text.strip()
    for kind, spec in _CLASS_SPECS.items():
        if s == spec:
            return GroupClass(kind)
    if s == "contains-z3":
        return GroupClass(EXPLICIT, (cyclic(3),))
    if s.startswith("groups:"):
        specs = [t for t in s[len("groups:"):].split(",") if t]
        if not specs:
            raise ParseError("empty group list")
        return GroupClass(EXPLICIT, tuple(parse_group_spec(t) for t in specs))
    raise ParseError(f"unknown class spec {text!r}")
