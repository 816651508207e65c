"""Split nilradicals as sparse root-space maps, their layers, and setup axioms.

Each positive root space of the split matrix model is spanned by a matrix
with one or two entries equal to +1 or -1.  It is stored as a sparse map
``{(row, col): value}`` with 0-based positions and values +1 or -1, and
brackets and decompositions work on such maps directly.  Distinct roots sit
at disjoint positions, so a bracket's int coefficients are read off entrywise.

``realize_split_nilradical(series, rank)`` is the one place that builds a
model: it checks the grading and closure, checks the layers l_r = z_r + v_r
that the root system's Kostant cascade cut (``RootSystem.cascade``) against
the brackets, and returns the algebra with those same layers in ``layers``.

Each model computes its nonzero brackets once, in ``alg.brackets`` (absent
means zero); every check, the setup axioms and the Pfaffian densities read
that table.  A product of two sparse maps is nonzero only where a column of
the left factor meets a row of the right one, so the table is built from an
index of the basis entries by row and by column: only roots whose matrices
share such an index are bracketed, and every other pair's commutator is
exactly zero by construction.  The layer check and the setup axioms walk
the table's entries once, so all cost in proportion to the nonzero brackets.
The grading is checked in integers, from the weight of each matrix index
under the series' diagonal Cartan element; given it, building the table
checks closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .cascade import Layer, cascade_decomposition
from .rootsys import RootSystem, Vector, build_root_system, vscale, vsub

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
class NilpotentAlgebra:
    """Nilradical graded by positive restricted roots, as sparse root-space maps.

    ``layers`` are the cascade layers in order r = 1..m.  ``posmap`` sends
    each basis position to its owning root and entry; it is built, and the
    positions checked disjoint and the entries ±1, at construction.
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
                if val not in (1, -1):
                    raise AssertionError(f"basis entry {val} of {a} is not +1 or -1")
                posmap[pos] = (a, val)
        object.__setattr__(self, "posmap", posmap)

    @cached_property
    def brackets(self) -> Dict[Tuple[Vector, Vector], Dict[Vector, int]]:
        """Basis coefficients of each nonzero [x_a, x_b] under (a, b) and,
        negated, under (b, a); an absent pair brackets to zero.

        A product x_a x_b has a nonzero entry only where an entry of x_a has
        its column equal to the row of an entry of x_b, so the commutator of
        two roots whose matrices share no such index, in either order, is
        exactly zero.  The entries are indexed by row and by column, and one
        commutator is taken per unordered pair of distinct roots that share
        one, its partners visited in basis order; a commutator outside the
        span raises AssertionError naming the pair."""
        items = list(self.basis.items())
        by_row: Dict[int, List[int]] = {}  # row -> basis indices with an entry there
        by_col: Dict[int, List[int]] = {}
        for n, (_, x) in enumerate(items):
            for i, j in x:
                by_row.setdefault(i, []).append(n)
                by_col.setdefault(j, []).append(n)
        table: Dict[Tuple[Vector, Vector], Dict[Vector, int]] = {}
        for n, (a, x) in enumerate(items):
            later = {k for i, j in x
                     for k in (*by_row.get(j, ()), *by_col.get(i, ())) if k > n}
            for k in sorted(later):
                b, y = items[k]
                coeffs = decompose(self, sparse_commutator(x, y))
                if coeffs is None:
                    raise AssertionError(f"bracket [{a},{b}] leaves the span")
                if coeffs:
                    table[(a, b)] = coeffs
                    table[(b, a)] = {c: -v for c, v in coeffs.items()}
        return table

    @cached_property
    def layer_of(self) -> Dict[Vector, Tuple[int, bool]]:
        """Each root of a layer -> (its layer r, whether it is beta_r); the
        layer check and the setup axioms read it."""
        where: Dict[Vector, Tuple[int, bool]] = {}
        for layer in self.layers:
            where[layer.beta] = (layer.r, True)
            where.update((a, (layer.r, False)) for a in layer.members)
        return where


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
    alg = NilpotentAlgebra(series, rank, system, basis, size,
                           cascade_decomposition(system))
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
    """Check the grading exactly, then build the bracket table.  Once every
    entry of x_a sits at a position of weight a, every entry of [x_a, x_b]
    sits at weight a + b, so a bracket inside the span is a multiple of
    x_{a+b}; if a + b is not a positive root, the bracket is zero or outside
    the span, where the build raises.  So the build checks closure."""
    w = _index_weights(alg.series, alg.rank)
    for a, x in alg.basis.items():
        for r, c in x:
            if vsub(w[r], w[c]) != a:
                raise AssertionError(f"grading fails at {a}")
    alg.brackets  # raises on a bracket outside the span


def check_layers(alg: NilpotentAlgebra) -> None:
    """Check that each layer of alg is two-step with bracket into z_r: v_r
    has even dimension, [v_r, v_r] lies in z_r and z_r is central in l_r."""
    for layer in alg.layers:
        if len(layer.members) % 2:
            raise AssertionError(f"v_{layer.r} has odd dimension")
    where = alg.layer_of
    for (a, b), coeffs in alg.brackets.items():
        r, centre = where.get(a, (0, False))
        if where.get(b) != (r, False):
            continue  # not a bracket with a member of a's layer
        if centre:
            raise AssertionError(f"z_{r} must be central in l_{r}")
        if not coeffs.keys() <= {alg.layers[r - 1].beta}:
            raise AssertionError(f"[v_{r}, v_{r}] escapes z_{r} at ({a},{b})")


def decompose(alg: NilpotentAlgebra, entries: Entries) -> Optional[Dict[Vector, int | Q]]:
    """Exact coefficients of a sparse matrix in the root-space basis; None if
    outside.  Over a basis entry of +1 or -1 an int value stays an int."""
    coeffs: Dict[Vector, int | Q] = {}
    counts: Dict[Vector, int] = {}
    for pos, val in entries.items():
        if pos not in alg.posmap:
            return None
        a, base = alg.posmap[pos]
        c = val * base
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

    A pair absent from ``alg.brackets`` brackets to exactly zero, so one walk
    over the table's entries finds every failing instance: an entry (x, y)
    with x in l_r and y in l_s, r < s, fails (i) when y is beta_s and (ii)
    when a coefficient leaves v_s; it fails (iii) for every tail that holds y
    but not all the coefficients, a coefficient root in no layer lying
    outside every tail.
    """
    m = len(alg.layers)
    where = alg.layer_of
    # (axiom, r, s) -> verdict, in row order
    ok: Dict[Tuple[str, int, int], bool] = {}
    for r in range(1, m + 1):
        for s in range(r + 1, m + 1):
            ok[("commute_with_later_centers", r, s)] = True
            ok[("bracket_into_later_symplectic_part", r, s)] = True
    for r in range(2, m + 1):
        ok[("tail_is_ideal", r, m)] = True
    for (x, y), coeffs in alg.brackets.items():
        if x not in where or y not in where:
            continue  # the axioms speak of layer roots only
        r = where[x][0]
        s, centre = where[y]
        if r < s:
            if centre:
                ok[("commute_with_later_centers", r, s)] = False
            if any(where.get(c) != (s, False) for c in coeffs):
                ok[("bracket_into_later_symplectic_part", r, s)] = False
        low = min(where.get(c, (1,))[0] for c in coeffs)
        for t in range(low + 1, s + 1):
            ok[("tail_is_ideal", t, m)] = False
    return AxiomReport(tuple({"axiom": axiom, "r": r, "s": s, "ok": v}
                             for (axiom, r, s), v in ok.items()))


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
