"""Desk-scale matrix harness groups with layered exponential coordinates.

A harness is a nilpotent matrix group cut from a split model of ``nilalg``,
which it keeps in ``model``: its layers, a polarization of each symplectic
part, and numeric exp/log coordinate maps.  Each coordinate is keyed by the
root whose root space it spans; the basis order is, layer by layer, beta_r,
the a-roots, then the b-roots.  Harnesses: HEIS1-3 (the top layer of A_{d+1}:
beta = e_1 - e_{d+2}, a_i = e_1 - e_{1+i}, b_i = e_{1+i} - e_{d+2}) and the
whole split model of any ``<series><rank>`` name, such as A1, A3, C2, B2 or
C3.  ``leading_subgroup`` cuts the first k layers from a harness and shares
its model.  ``exact_density`` takes |Pf| from the model layers the keys name;
it predicts the ``orthogonality`` row density_abs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction as Q
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .nilalg import NilpotentAlgebra, realize_split_nilradical
from .plancherel import b_lambda_matrix, determinant, plancherel_density
from .rootsys import SERIES, Vector, vsub

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
    """One layer: central direction, polarized symplectic basis, pairing,
    and the root of each of its coordinates (beta, the a-roots, the b-roots)."""

    r: int
    d: int
    z: np.ndarray
    a: Tuple[np.ndarray, ...]
    b: Tuple[np.ndarray, ...]
    C: np.ndarray  # [a_i, b_j] = C[i, j] * z
    keys: Tuple[Vector, ...]


@dataclass(frozen=True, eq=False)
class Harness:
    """A layered matrix group cut from the split model it keeps."""

    name: str
    layers: Tuple[LayerDesc, ...]
    model: NilpotentAlgebra

    @property
    def series(self) -> str:
        return self.model.series

    @property
    def rank(self) -> int:
        return self.model.rank

    @property
    def size(self) -> int:
        return self.model.size

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

    @property
    def keys(self) -> Tuple[Vector, ...]:
        """The root of every coordinate, in basis order."""
        return tuple(key for layer in self.layers for key in layer.keys)

    @property
    def matrices(self) -> Tuple[np.ndarray, ...]:
        """The matrix of every coordinate, in basis order."""
        return tuple(mat for layer in self.layers
                     for mat in (layer.z, *layer.a, *layer.b))

    @property
    def starts(self) -> Tuple[int, ...]:
        """Basis position of each layer's central coordinate."""
        return tuple(itertools.accumulate(
            (1 + 2 * layer.d for layer in self.layers[:-1]), initial=0))

    def part(self, coords: np.ndarray, k: int) -> "LayerCoords":
        """Layer k's (centre, a-part, b-part) of a basis-order vector."""
        s, d = self.starts[k], self.layers[k].d
        return coords[s], coords[s + 1:s + 1 + d], coords[s + 1 + d:s + 1 + 2 * d]

    def pf_abs(self, gamma: Dict[int, float]) -> float:
        """|Pf| of gamma from the float pairings: prod |gamma_r|^d_r |det C_r|."""
        out = 1.0
        for layer in self.layers:
            if layer.d:
                out *= abs(gamma[layer.r]) ** layer.d * abs(np.linalg.det(layer.C))
        return out

    def read_coords(self, w: np.ndarray, atol: float = 1e-9) -> np.ndarray:
        """Coefficients of a Lie-algebra element in basis order, read off
        the disjoint supports; AssertionError outside the harness algebra."""
        coords = np.zeros(self.dim)
        covered = np.zeros(w.shape, dtype=bool)
        for i, mat in enumerate(self.matrices):
            mask = mat != 0
            vals = w[mask] / mat[mask]
            coords[i] = np.mean(vals.real)
            if not np.allclose(vals, coords[i], atol=atol):
                raise AssertionError("element outside the harness algebra")
            covered |= mask
        if not np.allclose(w[~covered], 0.0, atol=atol):
            raise AssertionError("element outside the harness algebra")
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


def leading_subgroup(h: Harness, k: int) -> Harness:
    """The subgroup of h's first k layers; it shares h's model."""
    if not 1 <= k <= h.m:
        raise ValueError(f"{h.name} has no leading subgroup of {k} layers")
    return replace(h, name=f"{h.name}[:{k}]", layers=h.layers[:k])


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
    for k, layer in enumerate(h.layers):
        zeta_w, p, q = h.part(h.read_coords(logm_unipotent(M)), k)
        w1 = zeta_w * layer.z
        if layer.d:
            w1 = w1 + sum(x * mat for x, mat in zip(p, layer.a))
            w1 = w1 + sum(x * mat for x, mat in zip(q, layer.b))
        zeta = zeta_w - (0.5 * p @ layer.C @ q if layer.d else 0.0)
        out.append((float(zeta), p, q))
        M = expm_nilpotent(-w1) @ M
    if not np.allclose(M, np.eye(h.size), atol=1e-8):
        raise AssertionError("peeling left a residual")
    return GroupElement(h, tuple(out))


def multiply(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group multiplication via the matrix model."""
    if g1.harness is not g2.harness:
        raise ValueError("the factors belong to different harnesses")
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
    """Generalized Heisenberg group of dimension 2d + 1: the top layer of
    A_{d+1}, with its roots in Heisenberg order."""
    alg = realize_split_nilradical("A", d + 1)
    n = d + 2
    # E_ij spans the root space of e_i - e_j (1-based): z, then the a's and b's
    pairs = ([(1, n)] + [(1, 1 + i) for i in range(1, d + 1)]
             + [(1 + i, n) for i in range(1, d + 1)])
    keys = tuple(tuple((k == i) - (k == j) for k in range(1, n + 1))
                 for i, j in pairs)
    mats = [_dense(alg, key) for key in keys]
    layer = LayerDesc(1, d, mats[0], tuple(mats[1:d + 1]), tuple(mats[d + 1:]),
                      np.eye(d), keys)
    return Harness(f"HEIS{d}", (layer,), alg)


def _dense(alg: NilpotentAlgebra, root: Vector) -> np.ndarray:
    """Float matrix of the sparse root-space map of root."""
    M = np.zeros((alg.size, alg.size))
    for (i, j), v in alg.basis[root].items():
        M[i, j] = v
    return M


def _algebra_harness(alg: NilpotentAlgebra, name: str) -> Harness:
    """Layered harness of the whole split model: each symplectic root
    alpha pairs with beta_r - alpha, the greater one being the a-root."""
    descs: List[LayerDesc] = []
    for layer in alg.layers:
        a_roots: List[Vector] = []
        b_roots: List[Vector] = []
        for alpha in sorted(layer.members, reverse=True):
            partner = vsub(layer.beta, alpha)
            if partner == alpha or partner not in layer.members:
                raise AssertionError("split harness layers pair distinct roots")
            if alpha > partner:
                a_roots.append(alpha)
                b_roots.append(partner)
        d, keys = layer.d_r, (layer.beta, *a_roots, *b_roots)
        # [a_i, b_j] = C[i, j] z: the a-b block of the bracket form at beta
        C = [row[d:] for row in b_lambda_matrix(
            alg, replace(layer, members=keys[1:]), Q(1))[:d]]
        if determinant(C) == 0:
            raise AssertionError("polarization pairing must be nondegenerate")
        mats = [_dense(alg, key) for key in keys]
        descs.append(LayerDesc(layer.r, d, mats[0], tuple(mats[1:d + 1]),
                               tuple(mats[d + 1:]),
                               np.array(C, dtype=float).reshape(d, d), keys))
    return Harness(name, tuple(descs), alg)


def build_harness(name: str) -> Harness:
    """HEIS1-HEIS3, or the split model ``<series><rank>`` of any other name."""
    if name.startswith("HEIS"):
        d = int(name[4:])
        if d < 1 or d > 3:
            raise ValueError("HEIS harnesses support d = 1, 2, 3")
        return _heisenberg_harness(d)
    series, rank = name[:1], name[1:]
    if series not in SERIES or not rank.isdigit():
        raise ValueError(f"unknown harness {name!r}; expected HEIS1-3 or "
                         "<series><rank> such as A3 or C2")
    return _algebra_harness(realize_split_nilradical(series, int(rank)), name)


def exact_density(h: Harness, gamma: Dict[int, Q]) -> Q:
    """|Pf| of gamma (keyed by harness layer) from ``plancherel_density`` on
    the layers of h's model named by h's keys, not from the float pairing C."""
    model = {layer.beta: layer for layer in h.model.layers}
    layers = [replace(model[layer.keys[0]], r=layer.r) for layer in h.layers]
    if any(set(layer.keys[1:]) != set(exact.members)
           for layer, exact in zip(h.layers, layers)):
        raise AssertionError(f"{h.name}: a layer is not a layer of its model")
    return abs(plancherel_density(h.model, layers, gamma).product)


def adjoint_action_on_top(h: Harness, g_mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear data of Ad(g^-1) acting on the top-layer b-coordinates.

    Returns (zvec, A, B) with Ad(g^-1)(y . b) = (zvec . y) z + (A y) . a + (B y) . b.
    Raises AssertionError unless the image stays inside the top layer and
    the b-block preserves Lebesgue measure.
    """
    top = h.top
    g_inv = np.linalg.inv(g_mat)
    zvec = np.zeros(top.d)
    A = np.zeros((top.d, top.d))
    B = np.zeros((top.d, top.d))
    for j in range(top.d):
        coords = h.read_coords(g_inv @ top.b[j] @ g_mat)
        coords[np.abs(coords) < 1e-12] = 0.0
        if coords[:h.starts[-1]].any():
            raise AssertionError("adjoint image must stay in the top layer")
        zvec[j], A[:, j], B[:, j] = h.part(coords, -1)
    if not abs(abs(np.linalg.det(B)) - 1.0) < 1e-9:
        raise AssertionError("the b-block of the adjoint action must preserve measure")
    return zvec, A, B
