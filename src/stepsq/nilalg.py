"""Split nilradicals as sparse root-space maps, their layers, and setup axioms.

Each positive root space of the split matrix model is spanned by a matrix
with one or two entries equal to +1 or -1.  It is stored as a sparse map
``{(row, col): value}`` with 0-based positions and ``int`` values, and
brackets and decompositions work on such maps directly.  Distinct roots sit
at disjoint positions, so a bracket's coefficients are read off entrywise.

``realize_split_nilradical(series, rank)`` is the one place that builds a
model: it checks the grading and closure, cuts the layers l_r = z_r + v_r
from the Kostant cascade, checks them, and returns the algebra with its
layers in ``layers``.  Every consumer reads ``alg.layers``.

Each model computes its brackets once, in ``alg.brackets``; every check,
the setup axioms and the Pfaffian densities read that table.  The grading
is checked in integers, from the weight of each matrix index under the
series' diagonal Cartan element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .cascade import cascade_decomposition
from .rootsys import RootSystem, Vector, build_root_system, vadd, vscale, vsub

Entries = Dict[Tuple[int, int], int | Q]  # sparse matrix: position -> nonzero value


def sparse_commutator(a: Entries, b: Entries) -> Entries:
    """Commutator [a, b] of sparse matrices as a position-to-value map."""
    out: Entries = {}
    for (i, j), v in a.items():
        for (k, l), w in b.items():
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + v * w
            if l == i:
                out[(k, j)] = out.get((k, j), 0) - v * w
    return {p: v for p, v in out.items() if v != 0}


@dataclass(frozen=True)
class Layer:
    """One layer: the central root beta and the symplectic member roots.

    The root-space matrices are looked up in the algebra's ``basis``.
    """

    r: int
    beta: Vector
    members: Tuple[Vector, ...]

    @property
    def d_r(self) -> int:
        """Half the symplectic dimension."""
        return len(self.members) // 2


@dataclass(frozen=True)
class NilpotentAlgebra:
    """Nilradical graded by positive restricted roots, as sparse root-space maps.

    ``layers`` are the cascade layers in order r = 1..m.  ``posmap`` sends
    each basis position to its owning root and entry; it is built, and the
    positions checked disjoint, at construction.
    """

    series: str
    rank: int
    system: RootSystem
    basis: Dict[Vector, Dict[Tuple[int, int], int]]
    size: int
    layers: Tuple[Layer, ...]
    posmap: Dict[Tuple[int, int], Tuple[Vector, int]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        posmap: Dict[Tuple[int, int], Tuple[Vector, int]] = {}
        for a, x in self.basis.items():
            for pos, val in x.items():
                if pos in posmap:
                    raise AssertionError("basis positions must be disjoint")
                posmap[pos] = (a, val)
        object.__setattr__(self, "posmap", posmap)

    @cached_property
    def brackets(self) -> Dict[Tuple[Vector, Vector], Optional[Dict[Vector, Q]]]:
        """Basis coefficients of [x_a, x_b] for every ordered pair (a, b) of
        basis roots, or None outside the span; one commutator per unordered
        pair, with (b, a) the negation of (a, b)."""
        table: Dict[Tuple[Vector, Vector], Optional[Dict[Vector, Q]]] = {}
        items = list(self.basis.items())
        for i, (a, x) in enumerate(items):
            for b, y in items[i:]:
                coeffs = decompose(self, sparse_commutator(x, y))
                table[(b, a)] = None if coeffs is None else {
                    c: -v for c, v in coeffs.items()}
                table[(a, b)] = coeffs
        return table


def _build_basis(series: str, rank: int,
                 system: RootSystem) -> Tuple[Dict[Vector, Dict[Tuple[int, int], int]], int]:
    """Per-series signed-unit models of the positive root spaces (0-based)."""
    basis: Dict[Vector, Dict[Tuple[int, int], int]] = {}
    if series == "A":
        for a in system.positives:
            basis[a] = {(a.index(1), a.index(-1)): 1}
        return basis, rank + 1
    if series == "C":
        k = rank
        for a in system.positives:
            pos = [idx for idx, x in enumerate(a) if x > 0]
            neg = [idx for idx, x in enumerate(a) if x < 0]
            if neg:
                i, j = pos[0], neg[0]
                basis[a] = {(i, j): 1, (k + j, k + i): -1}
            elif len(pos) == 2:
                i, j = pos
                basis[a] = {(i, k + j): 1, (j, k + i): 1}
            else:
                i = pos[0]
                basis[a] = {(i, k + i): 1}
        return basis, 2 * k
    # B or D; build_root_system rejects any other series
    k = rank
    n = 2 * k + 1 if series == "B" else 2 * k

    def conj(i: int) -> int:
        return n - 1 - i

    for a in system.positives:
        pos = [idx for idx, x in enumerate(a) if x > 0]
        neg = [idx for idx, x in enumerate(a) if x < 0]
        if neg:
            i, j = pos[0], neg[0]
            basis[a] = {(i, j): 1, (conj(j), conj(i)): -1}
        elif len(pos) == 2:
            i, j = pos
            basis[a] = {(i, conj(j)): 1, (j, conj(i)): -1}
        else:
            i = pos[0]
            basis[a] = {(i, k): 1, (k, conj(i)): -1}
    return basis, n


def realize_split_nilradical(series: str, rank: int) -> NilpotentAlgebra:
    """Strictly-triangularizable rational model of the split nilradical,
    with its cascade layers; the algebra and the layers are checked."""
    system = build_root_system(series, rank)
    basis, size = _build_basis(series, rank, system)
    decomp = cascade_decomposition(system)
    layers = tuple(Layer(r, beta, decomp.layers[r])
                   for r, beta in enumerate(decomp.beta, start=1))
    alg = NilpotentAlgebra(series, rank, system, basis, size, layers)
    _validate_algebra(alg)
    check_layers(alg)
    return alg


def _index_weights(series: str, rank: int) -> List[Vector]:
    """Weight of each matrix index under the series' diagonal Cartan element:
    e_i at index i of gl(rank + 1) for A; else e_i at i < rank, then -e_i in
    order for C and mirrored for B and D, with 0 at the middle index of B."""
    if series == "A":
        return [tuple(int(i == j) for j in range(rank + 1)) for i in range(rank + 1)]
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    negs = [vscale(-1, e) for e in units]
    if series == "C":
        return units + negs
    return units + [(0,) * rank] * (series == "B") + negs[::-1]


def _validate_algebra(alg: NilpotentAlgebra) -> None:
    """Check the grading and closure invariants exactly."""
    w = _index_weights(alg.series, alg.rank)
    for a, x in alg.basis.items():
        for r, c in x:
            if vsub(w[r], w[c]) != a:
                raise AssertionError(f"grading fails at {a}")
    roots = set(alg.system.positives)
    for (a, b), coeffs in alg.brackets.items():
        s = vadd(a, b)
        if s in roots:
            if coeffs is None or not coeffs.keys() <= {s}:
                raise AssertionError(f"bracket [{a},{b}] escapes")
        elif coeffs != {}:
            raise AssertionError(f"bracket [{a},{b}] should vanish")


def check_layers(alg: NilpotentAlgebra) -> None:
    """Check that each layer of alg is two-step with bracket into z_r:
    [v_r, v_r] lies in z_r and z_r is central in l_r."""
    table = alg.brackets
    for layer in alg.layers:
        r, beta, members = layer.r, layer.beta, layer.members
        if len(members) % 2:
            raise AssertionError(f"v_{r} has odd dimension")
        for a in members:
            for b in members:
                coeffs = table[(a, b)]
                if coeffs is None or not coeffs.keys() <= {beta}:
                    raise AssertionError(f"[v_{r}, v_{r}] escapes z_{r} at ({a},{b})")
            if table[(beta, a)] != {}:
                raise AssertionError(f"z_{r} must be central in l_{r}")


def decompose(alg: NilpotentAlgebra, entries: Entries) -> Optional[Dict[Vector, Q]]:
    """Exact coefficients of a sparse matrix in the root-space basis; None if outside."""
    coeffs: Dict[Vector, Q] = {}
    counts: Dict[Vector, int] = {}
    for pos, val in entries.items():
        if pos not in alg.posmap:
            return None
        a, base = alg.posmap[pos]
        c = Q(val) / base
        if a in coeffs and coeffs[a] != c:
            return None
        coeffs[a] = c
        counts[a] = counts.get(a, 0) + 1
    for a in coeffs:
        if counts[a] != len(alg.basis[a]):
            return None
    return coeffs


@dataclass(frozen=True)
class AxiomReport:
    """Per-instance booleans for the three layer-structure axioms."""

    rows: Tuple[dict, ...]

    @property
    def passed(self) -> bool:
        """True iff every axiom instance holds."""
        return all(row["ok"] for row in self.rows)


def verify_setup_axioms(alg: NilpotentAlgebra) -> AxiomReport:
    """Exact verification of the stepwise-decomposition axioms on alg.layers.

    (i)  [l_r, z_s] = 0 for r < s;
    (ii) [l_r, l_s] lies in the symplectic part v_s for r < s;
    (iii) each tail l_{r+1} + ... + l_m is an ideal of the full algebra.
    """
    rows: List[dict] = []
    layers = alg.layers
    m = len(layers)
    table = alg.brackets

    def supp_ok(a: Vector, b: Vector, allowed: frozenset) -> bool:
        coeffs = table[(a, b)]
        return coeffs is not None and coeffs.keys() <= allowed

    def layer_roots(layer: Layer) -> List[Vector]:
        return [layer.beta, *layer.members]

    empty = frozenset()
    for r in range(m):
        for s in range(r + 1, m):
            ok = all(supp_ok(x, layers[s].beta, empty)
                     for x in layer_roots(layers[r]))
            rows.append({"axiom": "commute_with_later_centers",
                         "r": r + 1, "s": s + 1, "ok": ok})
            v_s = frozenset(layers[s].members)
            ok2 = all(supp_ok(x, y, v_s)
                      for x in layer_roots(layers[r])
                      for y in layer_roots(layers[s]))
            rows.append({"axiom": "bracket_into_later_symplectic_part",
                         "r": r + 1, "s": s + 1, "ok": ok2})
    all_roots = [a for layer in layers for a in layer_roots(layer)]
    for r in range(m - 1):
        tail = frozenset(a for layer in layers[r + 1:] for a in layer_roots(layer))
        ok = all(supp_ok(x, y, tail) for x in all_roots for y in tail)
        rows.append({"axiom": "tail_is_ideal", "r": r + 2, "s": m, "ok": ok})
    return AxiomReport(tuple(rows))


def corrupted_fixture() -> NilpotentAlgebra:
    """Negative control: two basis matrices swapped across a bridge root.

    The matrix of the first-layer root and of a second-layer root trade
    places, so the tail ideal axiom must fail.  The result carries A3's
    layers unchecked.
    """
    alg = realize_split_nilradical("A", 3)
    beta1, other = alg.layers[0].beta, alg.layers[1].members[0]
    basis = dict(alg.basis)
    basis[beta1], basis[other] = basis[other], basis[beta1]
    return NilpotentAlgebra(alg.series, alg.rank, alg.system, basis, alg.size,
                            alg.layers)
