"""Classical restricted root systems with exact integer coordinates.

Roots are tuples of ints in the orthonormal ambient basis e1..eN, in which
every classical root is integral.  Python's tuple order is the lexicographic
order of the ambient coordinates; every simple root is lexicographically
positive, so a root above another in the root order is also lexicographically
greater.  Fractions appear only where division happens: in the general
simple-coordinate solve and in Cartan entries.  Simple roots carry the
center-out (type A) or multiple-bond-end-first (types B, C, D) index scheme
used throughout the package.  ``build_root_system`` builds each (series,
rank) once per process and shares the immutable system, which keeps the
layers of its Kostant cascade (``RootSystem.cascade``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from operator import add, mul, neg, sub
from types import MappingProxyType
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

if TYPE_CHECKING:
    from .cascade import Layer

Rational = Union[int, Q]
Vector = Tuple[int, ...]

SERIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 2}


def inner(a: Sequence[Rational], b: Sequence[Rational]) -> Rational:
    """Exact inner product of two ambient vectors."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum(map(mul, a, b))


def vadd(a: Vector, b: Vector) -> Vector:
    """Exact vector sum."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return tuple(map(add, a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    """Exact vector difference."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return tuple(map(sub, a, b))


def vscale(c: Rational, a: Vector) -> Vector:
    """Exact scalar multiple."""
    return tuple([c * x for x in a])


def _e(i: int, dim: int) -> Vector:
    """Standard basis vector e_i (1-based) in Z^dim."""
    return (0,) * (i - 1) + (1,) + (0,) * (dim - i)


@dataclass(frozen=True)
class RootSystem:
    """A classical root system of series "A", "B", "C" or "D".

    simple_enumeration maps the signed index scheme to simple roots.  A
    system is immutable, so ``build_root_system`` can share one per
    (series, rank); ``cascade`` keeps the layers of its Kostant cascade.
    """

    series: str
    rank: int
    roots: frozenset
    positives: Tuple[Vector, ...]
    simple_enumeration: Mapping[int, Vector]

    @cached_property
    def cascade(self) -> Tuple[Layer, ...]:
        """The checked layers of this system's reversed Kostant cascade, in
        order r = 1..m, computed on first use and kept; read them through
        ``cascade.cascade_decomposition``."""
        from .cascade import kostant_cascade, layer_partition
        return layer_partition(self, kostant_cascade(self)[::-1])

    @property
    def dim(self) -> int:
        """Ambient coordinate dimension."""
        return len(next(iter(self.roots)))

    def simple_indices(self) -> List[int]:
        """Sorted indices of the simple-root enumeration."""
        return sorted(self.simple_enumeration)


def _positive_roots(series: str, rank: int) -> List[Vector]:
    """Standard positive roots of a series: e_i - e_j (i < j), then for
    B, C and D also e_i + e_j after each, and e_i (B) or 2 e_i (C) last."""
    dim = rank + 1 if series == "A" else rank
    pos: List[Vector] = []
    for i in range(dim):
        head = (0,) * i
        for j in range(i + 1, dim):
            gap, tail = (0,) * (j - i - 1), (0,) * (dim - j - 1)
            pos.append(head + (1,) + gap + (-1,) + tail)
            if series != "A":
                pos.append(head + (1,) + gap + (1,) + tail)
    if series in ("B", "C"):
        c = (1,) if series == "B" else (2,)
        pos.extend((0,) * i + c + (0,) * (dim - i - 1) for i in range(dim))
    return pos


def _simple_enumeration(series: str, rank: int) -> Dict[int, Vector]:
    """Signed-index simple roots: center-out for A, bond-end-first for B/C/D.

    Raises ValueError for an unsupported series or a rank below its minimum.
    """
    if series not in SERIES:
        raise ValueError(f"unsupported series {series!r}; expected one of {SERIES}")
    if rank < _MIN_RANK[series]:
        raise ValueError(
            f"rank {rank} below minimum {_MIN_RANK[series]} for series {series}"
        )
    dim = rank + 1 if series == "A" else rank

    def alpha(i: int) -> Vector:
        return vsub(_e(i, dim), _e(i + 1, dim))

    simple: Dict[int, Vector] = {}
    if series == "A":
        if rank % 2 == 1:
            n = (rank - 1) // 2
            for k in range(-n, n + 1):
                simple[k] = alpha(n + 1 + k)
        else:
            n = rank // 2
            for k in range(1, n + 1):
                simple[-k] = alpha(n + 1 - k)
                simple[k] = alpha(n + k)
        return simple
    if series == "B":
        simple[1] = _e(rank, dim)
    elif series == "C":
        simple[1] = vscale(2, _e(rank, dim))
    else:
        simple[1] = vsub(_e(rank - 1, dim), _e(rank, dim))
        simple[2] = vadd(_e(rank - 1, dim), _e(rank, dim))
    start = 3 if series == "D" else 2
    for j in range(start, rank + 1):
        simple[j] = alpha(rank - j + 1)
    return simple


_SYSTEMS: Dict[Tuple[str, int], RootSystem] = {}


def build_root_system(series: str, rank: int) -> RootSystem:
    """The standard root system of the given series and rank.

    Each (series, rank) is built and checked once per process; every later
    call returns the same immutable system, which carries its cascade.  A
    build that raises is not kept.
    """
    key = (series, rank)
    system = _SYSTEMS.get(key)
    if system is None:
        system = _SYSTEMS[key] = _build(series, rank)
    return system


def _build(series: str, rank: int) -> RootSystem:
    """Build and check the standard root system, uncached."""
    simple = MappingProxyType(_simple_enumeration(series, rank))
    pos_sorted = tuple(sorted(_positive_roots(series, rank), reverse=True))
    roots = frozenset(pos_sorted).union([tuple(map(neg, a)) for a in pos_sorted])
    system = RootSystem(series, rank, roots, pos_sorted, simple)
    _check_invariants(system)
    return system


def _check_invariants(system: RootSystem) -> None:
    """Raise AssertionError where a structural invariant of a generated
    system fails; the checks survive ``python -O``.

    Every simple root is a lexicographically positive positive root, and
    every other positive root a has a simple root s with a - s positive.
    Since a - s is lexicographically smaller than a, induction on that order
    makes every positive root a nonnegative integer combination of the
    simple roots.  The ambient vectors of one system share a length, so the
    vector arithmetic below is inline.
    """
    pos = set(system.positives)
    negs = {tuple(map(neg, a)) for a in pos}
    if not (pos.isdisjoint(negs) and pos | negs == set(system.roots)):
        raise AssertionError("positives do not split the roots")
    simples = list(system.simple_enumeration.values())
    zero = (0,) * system.dim
    for s in simples:
        if not (s > zero and s in pos):
            raise AssertionError(f"simple root {s} is not a lexicographically "
                                 "positive positive root")
    for i, a in enumerate(simples):
        for b in simples[i + 1:]:
            if sum(map(mul, a, b)) > 0:
                raise AssertionError(f"simple roots {a}, {b} form an acute angle")
    simple_set = set(simples)
    for a in system.positives:
        if a not in simple_set and not any(tuple(map(sub, a, s)) in pos
                                           for s in simples):
            raise AssertionError(f"positive root {a} is not integral: no "
                                 "simple root leads down from it")


def simple_coordinates_all(targets: Sequence[Vector],
                           simples: Sequence[Vector]) -> List[Optional[List[Q]]]:
    """Solve t = sum c_i * simples[i] exactly for every target t.

    One Gauss-Jordan elimination over the rationals reduces the (dim x k)
    simple-root matrix and carries every target as an extra right-hand side.
    Returns one coefficient list per target, or None for a target outside
    the span of the simple roots.
    """
    targets = list(targets)
    if not targets:
        return []
    k, dim = len(simples), len(targets[0])
    # Fraction entries keep the pivot division exact on integer vectors
    rows = [[Q(s[i]) for s in simples] + [Q(t[i]) for t in targets]
            for i in range(dim)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, dim) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == dim:
            break
    out: List[Optional[List[Q]]] = []
    for j in range(k, k + len(targets)):
        if any(rows[i][j] != 0 for i in range(r, dim)):
            out.append(None)
            continue
        coeffs = [Q(0)] * k
        for i, c in enumerate(pivots):
            coeffs[c] = rows[i][j]
        out.append(coeffs)
    return out


def simple_coordinates(target: Vector,
                       simples: Sequence[Vector]) -> Optional[List[Q]]:
    """Solve target = sum c_i * simples[i] exactly; None if unsolvable."""
    return simple_coordinates_all([target], simples)[0]


def strongly_orthogonal(system: RootSystem, a: Vector, b: Vector) -> bool:
    """True iff neither a+b nor a-b is a root (a == b gives False)."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    if a == b:
        return False
    so = vadd(a, b) not in system.roots and vsub(a, b) not in system.roots
    if so and inner(a, b) != 0:
        raise AssertionError("strong orthogonality must imply orthogonality")
    return so


def cartan_matrix(system: RootSystem) -> List[List[Q]]:
    """Cartan matrix 2(ai,aj)/(aj,aj) over the sorted simple indices."""
    idx = system.simple_indices()
    simples = [system.simple_enumeration[i] for i in idx]
    return [[Q(2 * inner(a, b), inner(b, b)) for b in simples] for a in simples]

