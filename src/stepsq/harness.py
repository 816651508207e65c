"""Desk-scale matrix harness groups with layered exponential coordinates.

A harness packages a nilpotent matrix group together with its layer
decomposition, a deterministic polarization of each symplectic part, and
numeric exp/log coordinate maps.  Supported harnesses: HEIS1/HEIS2/HEIS3
(generalized Heisenberg groups), A3, C2, B2 (two-layer groups built from the
split matrix models), C3 (the three-layer split model of type C), and A1 (the
one-parameter first-layer subgroup of A3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .cascade import cascade_decomposition, sigma_r
from .nilalg import (
    NilpotentAlgebra,
    decompose,
    layer_subalgebras,
    realize_split_nilradical,
    sparse_commutator,
)
from .plancherel import determinant
from .rootsys import Vector

HARNESS_NAMES = ("HEIS1", "HEIS2", "HEIS3", "A3", "C2", "B2", "C3", "A1")


def expm_nilpotent(M: np.ndarray) -> np.ndarray:
    """Exact-series exponential of a nilpotent matrix."""
    n = M.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 1):
        term = term @ M / k
        if not term.any():
            break
        out = out + term
    return out


def logm_unipotent(M: np.ndarray) -> np.ndarray:
    """Exact-series logarithm of a unipotent matrix."""
    n = M.shape[0]
    N = M - np.eye(n)
    out = np.zeros_like(N)
    term = np.eye(n)
    for k in range(1, n + 1):
        term = term @ N
        if not np.abs(term).max() > 0:
            break
        out = out + ((-1) ** (k + 1)) * term / k
    return out


@dataclass(frozen=True, eq=False)
class LayerDesc:
    """One layer: central direction, polarized symplectic basis, pairing."""

    r: int
    d: int
    z: np.ndarray
    a: Tuple[np.ndarray, ...]
    b: Tuple[np.ndarray, ...]
    C: np.ndarray  # [a_i, b_j] = C[i, j] * z


@dataclass(frozen=True, eq=False)
class Harness:
    """A layered matrix group with coordinate read-off data."""

    name: str
    size: int
    layers: Tuple[LayerDesc, ...]

    @property
    def m(self) -> int:
        return len(self.layers)

    @property
    def top(self) -> LayerDesc:
        return self.layers[-1]

    @property
    def dim(self) -> int:
        """Dimension of the Lie algebra spanned by the harness layers."""
        return sum(1 + 2 * layer.d for layer in self.layers)

    def coordinate_basis(self) -> List[Tuple[Tuple[int, str, int], np.ndarray]]:
        """Ordered ((r, kind, index), matrix) pairs spanning the algebra."""
        out = []
        for layer in self.layers:
            out.append(((layer.r, "z", 0), layer.z))
            for i, mat in enumerate(layer.a):
                out.append(((layer.r, "a", i), mat))
            for i, mat in enumerate(layer.b):
                out.append(((layer.r, "b", i), mat))
        return out

    def read_coords(self, w: np.ndarray, atol: float = 1e-9) -> Dict[Tuple[int, str, int], float]:
        """Coefficients of a Lie-algebra element in the coordinate basis.

        Uses the disjoint-support property of the basis matrices.
        """
        coords: Dict[Tuple[int, str, int], float] = {}
        covered = np.zeros_like(w, dtype=bool)
        for key, mat in self.coordinate_basis():
            mask = mat != 0
            vals = w[mask] / mat[mask]
            c = float(np.mean(vals.real))
            assert np.allclose(vals, c, atol=atol), "element outside the harness algebra"
            coords[key] = c
            covered |= mask
        assert np.allclose(w[~covered], 0.0, atol=atol), "element outside the harness algebra"
        return coords


LayerCoords = Tuple[float, np.ndarray, np.ndarray]  # (zeta, p, q)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Layered product coordinates g = prod_r exp(zeta z) exp(p.a) exp(q.b)."""

    harness: Harness
    coords: Tuple[LayerCoords, ...]

    def to_matrix(self) -> np.ndarray:
        M = np.eye(self.harness.size)
        for layer, (zeta, p, q) in zip(self.harness.layers, self.coords):
            M = M @ expm_nilpotent(zeta * layer.z)
            if layer.d:
                M = M @ expm_nilpotent(sum(x * mat for x, mat in zip(p, layer.a)))
                M = M @ expm_nilpotent(sum(x * mat for x, mat in zip(q, layer.b)))
        return M


def identity(h: Harness) -> GroupElement:
    """The identity element."""
    return GroupElement(h, tuple(
        (0.0, np.zeros(layer.d), np.zeros(layer.d)) for layer in h.layers))


def embed_leading(h: Harness, g: GroupElement) -> GroupElement:
    """Extend an element of a leading-layer subgroup of h by identity
    coordinates on the remaining layers."""
    extra = tuple((0.0, np.zeros(layer.d), np.zeros(layer.d))
                  for layer in h.layers[len(g.coords):])
    return GroupElement(h, g.coords + extra)


def element(h: Harness, coords: Sequence[Tuple[float, Sequence[float], Sequence[float]]]) -> GroupElement:
    """Build an element from per-layer (zeta, p, q) coordinate data."""
    out = []
    for layer, (zeta, p, q) in zip(h.layers, coords):
        p = np.asarray(p, dtype=float).reshape(layer.d)
        q = np.asarray(q, dtype=float).reshape(layer.d)
        out.append((float(zeta), p, q))
    if len(out) != h.m:
        raise ValueError("coordinate data must cover every layer")
    return GroupElement(h, tuple(out))


def from_matrix(h: Harness, M: np.ndarray) -> GroupElement:
    """Invert the layered exponential coordinates by peeling layers."""
    M = np.array(M, dtype=float)
    out: List[LayerCoords] = []
    for layer in h.layers:
        w = logm_unipotent(M)
        coords = h.read_coords(w)
        zeta_w = coords[(layer.r, "z", 0)]
        p = np.array([coords[(layer.r, "a", i)] for i in range(layer.d)])
        q = np.array([coords[(layer.r, "b", i)] for i in range(layer.d)])
        w1 = zeta_w * layer.z
        if layer.d:
            w1 = w1 + sum(x * mat for x, mat in zip(p, layer.a))
            w1 = w1 + sum(x * mat for x, mat in zip(q, layer.b))
        zeta = zeta_w - (0.5 * p @ layer.C @ q if layer.d else 0.0)
        out.append((float(zeta), p, q))
        M = expm_nilpotent(-w1) @ M
    assert np.allclose(M, np.eye(h.size), atol=1e-8), "peeling left a residual"
    return GroupElement(h, tuple(out))


def multiply(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group multiplication via the matrix model."""
    assert g1.harness is g2.harness
    return from_matrix(g1.harness, g1.to_matrix() @ g2.to_matrix())


def inverse(g: GroupElement) -> GroupElement:
    """Group inverse via the matrix model."""
    return from_matrix(g.harness, np.linalg.inv(g.to_matrix()))


def random_element(h: Harness, rng: np.random.Generator, scale: float = 1.0) -> GroupElement:
    """Random element with coordinates uniform in [-scale, scale]."""
    coords = []
    for layer in h.layers:
        coords.append((float(rng.uniform(-scale, scale)),
                       rng.uniform(-scale, scale, layer.d),
                       rng.uniform(-scale, scale, layer.d)))
    return GroupElement(h, tuple(coords))


def _heisenberg_harness(d: int) -> Harness:
    """Generalized Heisenberg group of dimension 2d + 1."""
    n = d + 2

    def E(i: int, j: int) -> np.ndarray:
        M = np.zeros((n, n))
        M[i - 1, j - 1] = 1.0
        return M

    layer = LayerDesc(
        r=1, d=d,
        z=E(1, n),
        a=tuple(E(1, 1 + i) for i in range(1, d + 1)),
        b=tuple(E(1 + i, n) for i in range(1, d + 1)),
        C=np.eye(d),
    )
    return Harness(name=f"HEIS{d}", size=n, layers=(layer,))


def _dense(alg: NilpotentAlgebra, root: Vector) -> np.ndarray:
    """Float matrix of the sparse root-space map of root."""
    M = np.zeros((alg.size, alg.size))
    for (i, j), v in alg.basis[root].items():
        M[i, j] = v
    return M


def _algebra_harness(series: str, rank: int, name: str) -> Harness:
    """Layered harness from the split matrix model with polarized layers."""
    alg = realize_split_nilradical(series, rank)
    decomp = cascade_decomposition(alg.system)
    descs: List[LayerDesc] = []
    for layer in layer_subalgebras(alg, decomp):
        if layer.d_r == 0:
            descs.append(LayerDesc(layer.r, 0, _dense(alg, layer.beta),
                                   (), (), np.zeros((0, 0))))
            continue
        members = sorted(layer.members, reverse=True)
        a_roots: List = []
        b_roots: List = []
        seen = set()
        for alpha in members:
            if alpha in seen:
                continue
            partner = sigma_r(decomp, alpha, layer.r)
            assert partner != alpha, "split harness layers have no fixed points"
            hi, lo = max(alpha, partner), min(alpha, partner)
            a_roots.append(hi)
            b_roots.append(lo)
            seen.update((alpha, partner))
        C = [[Q(0)] * len(b_roots) for _ in a_roots]
        for i, ar in enumerate(a_roots):
            for j, br in enumerate(b_roots):
                z = sparse_commutator(alg.basis[ar], alg.basis[br])
                coeffs = decompose(alg, z)
                assert coeffs is not None and set(coeffs) <= {layer.beta}
                C[i][j] = coeffs.get(layer.beta, Q(0))
        assert determinant(C) != 0, "polarization pairing must be nondegenerate"
        descs.append(LayerDesc(
            layer.r, layer.d_r, _dense(alg, layer.beta),
            tuple(_dense(alg, a) for a in a_roots),
            tuple(_dense(alg, b) for b in b_roots),
            np.array(C, dtype=float),
        ))
    return Harness(name=name, size=alg.size, layers=tuple(descs))


def build_harness(name: str) -> Harness:
    """Construct one of the supported desk-scale harness groups."""
    if name.startswith("HEIS"):
        d = int(name[4:])
        if d < 1 or d > 3:
            raise ValueError("HEIS harnesses support d = 1, 2, 3")
        return _heisenberg_harness(d)
    if name == "A3":
        return _algebra_harness("A", 3, "A3")
    if name == "C2":
        return _algebra_harness("C", 2, "C2")
    if name == "B2":
        return _algebra_harness("B", 2, "B2")
    if name == "C3":
        return _algebra_harness("C", 3, "C3")
    if name == "A1":
        big = _algebra_harness("A", 3, "A1")
        return Harness(name="A1", size=big.size, layers=big.layers[:1])
    raise ValueError(f"unknown harness {name!r}; expected one of {HARNESS_NAMES}")


def adjoint_action_on_top(h: Harness, g_mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear data of Ad(g^-1) acting on the top-layer b-coordinates.

    Returns (zvec, A, B) with Ad(g^-1)(y . b) = (zvec . y) z + (A y) . a + (B y) . b.
    Asserts that the image stays inside the top layer and that the
    b-block preserves Lebesgue measure.
    """
    top = h.top
    g_inv = np.linalg.inv(g_mat)
    zvec = np.zeros(top.d)
    A = np.zeros((top.d, top.d))
    B = np.zeros((top.d, top.d))
    for j in range(top.d):
        w = g_inv @ top.b[j] @ g_mat
        coords = h.read_coords(w)
        for key, val in coords.items():
            r, kind, i = key
            if abs(val) < 1e-12:
                continue
            assert r == top.r, "adjoint image must stay in the top layer"
            if kind == "z":
                zvec[j] = val
            elif kind == "a":
                A[i, j] = val
            else:
                B[i, j] = val
    assert abs(abs(np.linalg.det(B)) - 1.0) < 1e-9, \
        "the b-block of the adjoint action must preserve measure"
    return zvec, A, B
