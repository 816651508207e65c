"""Exact Pfaffians, layer densities, and the normalization constant.

The determinant and the Pfaffian run on Python ints.  A rational matrix is
first cleared of denominators: with L the lcm of its entry denominators, the
entry x becomes x.numerator * (L // x.denominator), so the integer matrix is
L times the rational one.  Both kernels are fraction-free eliminations
(Bareiss, Math. Comp. 22, 1968) in which every entry is, up to sign, a minor
(for the Pfaffian, a sub-Pfaffian) of the integer matrix, so each division by
the previous pivot is exact.  The rational result is the integer one over
L^n (determinant) or L^(n/2) (Pfaffian).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import factorial, lcm
from typing import Dict, List, Sequence, Tuple

from .nilalg import Layer, NilpotentAlgebra

SkewMatrix = Tuple[Tuple[Q, ...], ...]

Gamma = Dict[int, Q]  # layer index -> coefficient in the beta_r-dual basis


def _integer_matrix(m: Sequence[Sequence[Q]]) -> Tuple[List[List[int]], int]:
    """The integer matrix L * m and L, the lcm of m's entry denominators.

    Entries are exact rationals (ints or Fractions).  Rows are kept as
    given; the callers check the shape.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in m]
    scale = lcm(*[d for row in ratios for _, d in row])
    return [[a * (scale // d) for a, d in row] for row in ratios], scale


def _check_square(m: Sequence[Sequence[int]]) -> None:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")


def _check_skew(m: Sequence[Sequence[int]]) -> None:
    _check_square(m)
    n = len(m)
    for i in range(n):
        for j in range(i, n):
            if m[i][j] != -m[j][i]:
                raise ValueError("matrix must be exactly skew-symmetric")


def _bareiss(a: List[List[int]]) -> int:
    """Determinant of a square integer matrix; a is overwritten.

    After step k, entry (i, j) with i, j > k is the minor on rows
    0..k, i and columns 0..k, j of the row-swapped matrix, so the division
    by the previous pivot (the leading k x k minor) is exact.
    """
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1] if n else 1


def determinant(m: Sequence[Sequence[Q]]) -> Q:
    """Exact determinant of a square rational matrix.

    Clears denominators (L * m, L the lcm of the entry denominators), runs
    the fraction-free Bareiss elimination on the ints, with a row swap on a
    zero pivot and an exact division by the previous pivot at each step,
    and returns det(L * m) / L^n.  Non-square input raises ValueError.
    """
    a, scale = _integer_matrix(m)
    _check_square(a)
    return Q(_bareiss(a), scale ** len(a))


def _pf_eliminate(m: List[List[int]]) -> int:
    """Pfaffian of an even skew integer matrix; m is overwritten.

    Step s eliminates the pair (k, k+1) = (2s, 2s+1) with the pivot
    p = m[k][k+1].  Each later entry (i, j) becomes the Pfaffian of the 4 x 4
    minor on k, k+1, i, j, divided by the previous pivot:

        (p m[i][j] - m[k][i] m[k+1][j] + m[k+1][i] m[k][j]) / p_prev.

    By the Pfaffian form of Sylvester's identity, entry (i, j) is then the
    sub-Pfaffian on 0..k+1, i, j, so the division is exact and the last
    pivot is Pf(m).  A zero pivot swaps row and column k+1 with the first
    j with m[k][j] != 0, which flips the sign; if there is none, Pf = 0.
    """
    n = len(m)
    sign, p = 1, 1
    for k in range(0, n - 1, 2):
        prev, row_k = p, m[k]
        if row_k[k + 1] == 0:
            piv = next((j for j in range(k + 2, n) if row_k[j] != 0), None)
            if piv is None:
                return 0
            m[k + 1], m[piv] = m[piv], m[k + 1]
            for row in m:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            sign = -sign
        p, row_k1 = row_k[k + 1], m[k + 1]
        for i in range(k + 2, n):
            row_i, ki, k1i = m[i], row_k[i], row_k1[i]
            for j in range(i + 1, n):
                v = (p * row_i[j] - ki * row_k1[j] + k1i * row_k[j]) // prev
                row_i[j] = v
                m[j][i] = -v
    return sign * p


def pfaffian(mat: Sequence[Sequence[Q]]) -> Q:
    """Exact Pfaffian of a skew rational matrix.

    Odd dimension returns 0; empty matrix returns 1.  Clears denominators
    (L * mat, L the lcm of the entry denominators), runs the fraction-free
    skew elimination on the ints, whose entries stay sub-Pfaffians so that
    each division by the previous pivot is exact, and returns
    Pf(L * mat) / L^(n/2).  Every even-dimensional call checks
    Pf(L * mat)^2 = det(L * mat) against the Bareiss determinant and raises
    AssertionError if it fails.
    """
    a, scale = _integer_matrix(mat)
    _check_skew(a)
    n = len(a)
    if n % 2 == 1:
        return Q(0)
    pf = _pf_eliminate([row[:] for row in a])
    if pf * pf != _bareiss(a):
        raise AssertionError("Pfaffian must square to the determinant")
    return Q(pf, scale ** (n // 2))


def pfaffian_expansion(mat: Sequence[Sequence[Q]]) -> Q:
    """Pfaffian by expansion along the first row, an oracle for `pfaffian`.

    Shares no code with the elimination: it clears denominators on its own,
    reads only the upper triangle, and memoizes the integer sub-Pfaffians by
    the bit set of the remaining indices.  Odd dimension returns 0.
    """
    n = len(mat)
    if n % 2 == 1:
        return Q(0)
    upper = [[mat[i][j].as_integer_ratio() for j in range(i + 1, n)]
             for i in range(n)]
    scale = lcm(*[q for row in upper for _, q in row])
    # a[i][j] for j > i; the zero padding keeps the column index
    a = [[0] * (i + 1) + [p * scale // q for p, q in row]
         for i, row in enumerate(upper)]
    memo = {0: 1}

    def pf(mask: int) -> int:
        if mask not in memo:
            low = mask & -mask
            row, rest = a[low.bit_length() - 1], mask ^ low
            total, sign, todo = 0, 1, rest
            while todo:
                bit = todo & -todo
                x = row[bit.bit_length() - 1]
                if x:
                    total += sign * x * pf(rest ^ bit)
                sign, todo = -sign, todo ^ bit
            memo[mask] = total
        return memo[mask]

    return Q(pf((1 << n) - 1), scale ** (n // 2))


def b_lambda_matrix(alg: NilpotentAlgebra, layer: Layer, lambda_r: Q) -> SkewMatrix:
    """Skew matrix of (x, y) -> lambda([x, y]) on the ordered symplectic basis."""
    lambda_r = Q(lambda_r)
    table, v = alg.brackets, layer.members
    n = len(v)
    rows: List[List[Q]] = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = table.get((v[i], v[j]), {})
            if not coeffs.keys() <= {layer.beta}:
                raise AssertionError(f"[v_{layer.r}, v_{layer.r}] escapes z_{layer.r}")
            val = lambda_r * coeffs.get(layer.beta, Q(0))
            rows[i][j] = val
            rows[j][i] = -val
    return tuple(tuple(row) for row in rows)


def plancherel_constant(d_list: Sequence[int]) -> int:
    """The normalization 2^(d_1+...+d_m) * d_1! * ... * d_m!."""
    total = 1
    for d in d_list:
        total *= factorial(d)
    return (2 ** sum(d_list)) * total


@dataclass(frozen=True)
class PlancherelData:
    """Layer Pfaffians, their product, the constant, and nonsingularity."""

    pf: Dict[int, Q]
    product: Q
    d_list: Tuple[int, ...]
    c: int
    in_t_star: bool


def plancherel_density(alg: NilpotentAlgebra, layers: Sequence[Layer],
                       gamma: Gamma) -> PlancherelData:
    """Per-layer Pfaffians Pf_r(lambda_r), their product, and t*-membership.

    Layers with d_r = 0 contribute the empty Pfaffian 1, so only the
    nonabelian layers enter the density.
    """
    pf: Dict[int, Q] = {}
    product = Q(1)
    d_list: List[int] = []
    for layer in layers:
        lam = Q(gamma.get(layer.r, 0))
        d_list.append(layer.d_r)
        if layer.d_r == 0:
            pf[layer.r] = Q(1)
        else:
            pf[layer.r] = pfaffian(b_lambda_matrix(alg, layer, lam))
        product *= pf[layer.r]
    c = plancherel_constant(d_list)
    return PlancherelData(pf, product, tuple(d_list), c, product != 0)
