"""Exact Pfaffians, layer densities, and the normalization constant."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .jsonio import rat_str
from .nilalg import Layer, NilpotentAlgebra, decompose, sparse_commutator

SkewMatrix = Tuple[Tuple[Q, ...], ...]

Gamma = Dict[int, Q]  # layer index -> coefficient in the beta_r-dual basis


def _check_skew(m: SkewMatrix) -> None:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i, n):
            if m[i][j] != -m[j][i]:
                raise ValueError("matrix must be exactly skew-symmetric")


def determinant(m: Sequence[Sequence[Q]]) -> Q:
    """Exact determinant by rational Gaussian elimination."""
    n = len(m)
    a = [[Q(x) for x in row] for row in m]
    det = Q(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Q(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _pf_eliminate(mat: SkewMatrix) -> Q:
    """Pfaffian by exact skew congruence elimination."""
    n = len(mat)
    m = [list(row) for row in mat]
    result = Q(1)
    for k in range(0, n - 1, 2):
        piv = next((i for i in range(k + 1, n) if m[k][i] != 0), None)
        if piv is None:
            return Q(0)
        if piv != k + 1:
            m[k + 1], m[piv] = m[piv], m[k + 1]
            for row in m:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            result = -result
        p = m[k][k + 1]
        result *= p
        for i in range(k + 2, n):
            a = m[k + 1][i] / p
            b = -m[k][i] / p
            if a == 0 and b == 0:
                continue
            for j in range(n):
                m[i][j] += a * m[k][j] + b * m[k + 1][j]
            for j in range(n):
                m[j][i] += a * m[j][k] + b * m[j][k + 1]
    return result


def pfaffian(mat: Sequence[Sequence[Q]]) -> Q:
    """Exact Pfaffian of a skew rational matrix.

    Odd dimension returns 0; empty matrix returns 1.  The identity
    Pf^2 = det is checked on every even-dimensional call.
    """
    mat = tuple(tuple(Q(x) for x in row) for row in mat)
    _check_skew(mat)
    if len(mat) % 2 == 1:
        return Q(0)
    pf = _pf_eliminate(mat)
    if pf * pf != determinant(mat):
        raise AssertionError("Pfaffian must square to the determinant")
    return pf


def b_lambda_matrix(alg: NilpotentAlgebra, layer: Layer, lambda_r: Q) -> SkewMatrix:
    """Skew matrix of (x, y) -> lambda([x, y]) on the ordered symplectic basis."""
    lambda_r = Q(lambda_r)
    v = [alg.basis[a] for a in layer.members]
    n = len(v)
    rows: List[List[Q]] = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = decompose(alg, sparse_commutator(v[i], v[j]))
            if coeffs is None or not set(coeffs) <= {layer.beta}:
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

    def to_json(self) -> dict:
        """Serialize with rational strings."""
        return {
            "pf": {str(r): rat_str(v) for r, v in sorted(self.pf.items())},
            "product": rat_str(self.product),
            "d_list": list(self.d_list),
            "c": self.c,
            "in_t_star": self.in_t_star,
        }


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
