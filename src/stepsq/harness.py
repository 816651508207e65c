"""Desk-scale matrix harness groups with layered exponential coordinates.

A harness is a nilpotent matrix group cut from a split model of ``nilalg``,
which it keeps in ``model``, by one rule: a sequence of the model's layers,
renumbered r = 1, 2, ..., each polarized by pairing every symplectic root
alpha with beta_r - alpha, the greater one being the a-root.  It is the only
module that turns coordinates into group matrices and back.  Each coordinate
is keyed by the root whose root space it spans; the basis order is, layer by
layer, beta_r, the a-roots, then the b-roots.  The root-space matrices are
the model's sparse ``basis``: ``Harness.lie`` turns a basis-order vector
into its Lie-algebra matrix, ``exp`` into its group matrix, and ``log``
reads a unipotent matrix back, by terminating power series in floats.
``adjoint`` is Ad of an element on the basis, read from the model's bracket
table, as is each layer's pairing C.  A ``GroupElement`` holds its
coordinates as one float vector in the basis order.  ``Harness.positions``
decides how two harnesses meet: by model, then by root key.  Harnesses:
HEIS1-3 (the top layer of A_{d+1}: beta = e_1 - e_{d+2}, a_i = e_1 -
e_{d+2-i}, b_i = e_{d+2-i} - e_{d+2}) and the whole split model of any
``<series><rank>`` name, such as A1, A3, C2, B2 or C3.  ``leading_subgroup``
cuts the first k layers and shares the model.  ``exact_density`` takes |Pf|
from the harness layers, which are model layers; it predicts the
``orthogonality`` row density_abs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction as Q
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cascade import Layer
from .nilalg import NilpotentAlgebra, realize_split_nilradical
from .plancherel import determinant, plancherel_density
from .rootsys import SERIES, Vector, vsub

HARNESS_NAMES = ("HEIS1", "HEIS2", "HEIS3", "A3", "C2", "B2", "C3", "A1")


def expm_nilpotent(M: np.ndarray) -> np.ndarray:
    """Exponential of a nilpotent matrix by its terminating power series."""
    n = M.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 1):
        term = term @ M / k
        if not term.any():
            break
        out = out + term
    return out


@dataclass(frozen=True, eq=False)
class LayerDesc(Layer):
    """A model layer as cut into a harness: the root of each of its
    coordinates (beta, the a-roots, the b-roots) and the pairing."""

    keys: Tuple[Vector, ...]
    C: np.ndarray  # [a_i, b_j] = C[i, j] * z


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

    @cached_property
    def dim(self) -> int:
        """Dimension of the Lie algebra spanned by the harness layers."""
        return sum(1 + 2 * layer.d_r for layer in self.layers)

    @cached_property
    def keys(self) -> Tuple[Vector, ...]:
        """The root of every coordinate, in basis order."""
        return tuple(key for layer in self.layers for key in layer.keys)

    @cached_property
    def starts(self) -> Tuple[int, ...]:
        """Basis position of each layer's central coordinate."""
        return tuple(itertools.accumulate(
            (1 + 2 * layer.d_r for layer in self.layers[:-1]), initial=0))

    def centres(self, values: Sequence[float]) -> np.ndarray:
        """The basis-order vector with the given values on the layer
        centres, in layer order, and zeros elsewhere."""
        out = np.zeros(self.dim)
        out[list(self.starts)] = values
        return out

    def positions(self, sub: Harness) -> Optional[List[int]]:
        """Where sub's coordinates sit in self's basis order, by root key;
        None unless sub is cut from self's split model (keys alone do not
        name it: A1 and B2[:1] share theirs) and self has every key of sub.
        They are 0, 1, ... exactly for self's group and its leading-layer
        subgroups."""
        if (sub.series, sub.rank) != (self.series, self.rank):
            return None
        if sub.keys == self.keys[:sub.dim]:
            return list(range(sub.dim))
        index = {key: n for n, key in enumerate(self.keys)}
        if not index.keys() >= set(sub.keys):
            return None
        return [index[key] for key in sub.keys]

    def part(self, coords: np.ndarray, k: int) -> Tuple[float, np.ndarray, np.ndarray]:
        """Layer k's (centre, a-part, b-part) of a basis-order vector."""
        s, d = self.starts[k], self.layers[k].d_r
        return coords[s], coords[s + 1:s + 1 + d], coords[s + 1 + d:s + 1 + 2 * d]

    def pf_abs(self, gamma: Dict[int, float]) -> float:
        """|Pf| of gamma from the float pairings: prod |gamma_r|^d_r |det C_r|."""
        out = 1.0
        for layer in self.layers:
            if layer.d_r:
                out *= abs(gamma[layer.r]) ** layer.d_r * abs(np.linalg.det(layer.C))
        return out

    @cached_property
    def _supports(self) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray,
                                 np.ndarray, np.ndarray]:
        """Every basis matrix's entries at once, read from the model's sparse
        root spaces: their positions, their values, the coordinate each
        belongs to, and the mask of the entries no support covers."""
        rows, cols, vals, owner = (np.array(column) for column in zip(*(
            (i, j, float(v), n) for n, key in enumerate(self.keys)
            for (i, j), v in self.model.basis[key].items())))
        uncovered = np.ones((self.size, self.size), dtype=bool)
        uncovered[rows, cols] = False
        return (rows, cols), vals, owner, uncovered

    def lie(self, coords: np.ndarray) -> np.ndarray:
        """The Lie-algebra matrix sum_i coords[i] X_i of a basis-order vector."""
        pos, vals, owner, _ = self._supports
        w = np.zeros((self.size, self.size))
        w[pos] = vals * coords[owner]
        return w

    def log(self, M: np.ndarray) -> np.ndarray:
        """Basis-order coordinates of the logarithm of a unipotent matrix, by
        its terminating power series, read off the disjoint supports;
        AssertionError outside the harness group."""
        N = M - np.eye(self.size)
        w, term = np.zeros_like(N), np.eye(self.size)
        for k in range(1, self.size + 1):
            term = term @ N
            if not np.abs(term).max() > 0:
                break
            w = w + ((-1) ** (k + 1)) * term / k
        pos, vals, owner, uncovered = self._supports
        ratios, off = w[pos] / vals, w[uncovered]
        coords = np.bincount(owner, ratios) / np.bincount(owner)
        # each ratio equals its coordinate and w vanishes off the supports
        if not np.allclose(np.concatenate([ratios, off]),
                           np.concatenate([coords[owner], np.zeros(off.shape)]),
                           atol=1e-9):
            raise AssertionError("element outside the harness algebra")
        return coords

    def exp(self, coords: np.ndarray) -> np.ndarray:
        """The group matrix exp(sum_i coords[i] X_i) of a basis-order vector."""
        return expm_nilpotent(self.lie(coords))

    @cached_property
    def _structure(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The model's table entries whose two roots are harness keys, as
        sparse arrays (i, j, k, v) with [X_i, X_j] = v X_k; AssertionError
        for a bracket that leaves the harness algebra."""
        index = {key: n for n, key in enumerate(self.keys)}
        table = np.array([
            (index[a], index[b], index.get(c, -1), v)
            for (a, b), coeffs in self.model.brackets.items()
            if a in index and b in index
            for c, v in coeffs.items()],
            dtype=float).reshape(-1, 4)
        if (table[:, 2] < 0).any():
            raise AssertionError("bracket outside the harness algebra")
        i, j, k = table[:, :3].T.astype(int)
        return i, j, k, table[:, 3]

    @cached_property
    def centre_slice_affine(self) -> bool:
        """Whether s -> log(exp(sum_r s_r z_r) x) is affine in s for every x,
        read from the bracket table.

        Let J be the ideal generated by [z, n]; being spanned by basis
        vectors, it is a set of basis positions.  Every Baker-Campbell-
        Hausdorff term of degree >= 2 in s lies in [z, J] + [J, J], so the
        slice is affine when no bracket has its second index in J and its
        first in J or among the centres."""
        i, j, k, _ = self._structure
        triples = list(zip(i.tolist(), j.tolist(), k.tolist()))
        centres = set(self.starts)
        ideal = {c for a, _, c in triples if a in centres}
        grown = ideal
        while grown:
            grown = {c for _, b, c in triples if b in grown} - ideal
            ideal |= grown
        return not any(b in ideal and (a in ideal or a in centres)
                       for a, b, _ in triples)

    def _layered(self, coords: np.ndarray,
                 factor: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
        """The product of the n x n matrices factor(Y) over the factors Y of
        the layered product: one basis-order vector per centre, a- and
        b-slice of coords, in product order."""
        cuts = [s + off for s, layer in zip(self.starts, self.layers)
                for off in (0, 1, 1 + layer.d_r)] + [self.dim]
        out = np.eye(n)
        for lo, hi in zip(cuts, cuts[1:]):
            if lo < hi:
                piece = np.zeros(self.dim)
                piece[lo:hi] = coords[lo:hi]
                out = out @ factor(piece)
        return out

    def adjoint(self, coords: np.ndarray) -> np.ndarray:
        """Ad of the element with layered coordinates coords on the basis:
        the product of exp(ad Y) over its factors Y, with column j of ad Y
        the coordinates of [Y, X_j], read from the model's bracket table."""
        i, j, k, v = self._structure

        def exp_ad(piece: np.ndarray) -> np.ndarray:
            ad = np.zeros((self.dim, self.dim))
            ad[k, j] = piece[i] * v  # (k, j) fixes i: the roots are distinct
            return expm_nilpotent(ad)

        return self._layered(coords, exp_ad, self.dim)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Layered product coordinates g = prod_r exp(zeta z) exp(p.a) exp(q.b),
    held as one float vector in the harness basis order."""

    harness: Harness
    coords: np.ndarray

    def to_matrix(self) -> np.ndarray:
        """The product of one exponential per centre, a- and b-slice."""
        h = self.harness
        return h._layered(self.coords, h.exp, h.size)


def identity(h: Harness) -> GroupElement:
    """The identity element."""
    return GroupElement(h, np.zeros(h.dim))


def leading_subgroup(h: Harness, k: int) -> Harness:
    """The subgroup of h's first k layers; it shares h's model."""
    if not 1 <= k <= h.m:
        raise ValueError(f"{h.name} has no leading subgroup of {k} layers")
    return replace(h, name=f"{h.name}[:{k}]", layers=h.layers[:k])


def embed_leading(h: Harness, g: GroupElement) -> GroupElement:
    """Extend an element of a leading-layer subgroup of h by identity
    coordinates on the remaining layers."""
    if h.positions(g.harness) != list(range(g.harness.dim)):
        raise ValueError(f"{g.harness.name} is not a leading-layer subgroup "
                         f"of {h.name}")
    return GroupElement(h, np.concatenate([g.coords, np.zeros(h.dim - len(g.coords))]))


def element(h: Harness, coords: Sequence[Tuple[float, Sequence[float], Sequence[float]]]) -> GroupElement:
    """Build an element from per-layer (zeta, p, q) coordinate data."""
    if len(coords) != h.m:
        raise ValueError("coordinate data must cover every layer")
    return GroupElement(h, np.concatenate([
        np.concatenate([[float(zeta)], np.asarray(p, dtype=float).reshape(layer.d_r),
                        np.asarray(q, dtype=float).reshape(layer.d_r)])
        for layer, (zeta, p, q) in zip(h.layers, coords)]))


def from_matrix(h: Harness, M: np.ndarray) -> GroupElement:
    """Invert the layered exponential coordinates by peeling layers."""
    M = np.array(M, dtype=float)
    coords = np.zeros(h.dim)
    for k, (s, layer) in enumerate(zip(h.starts, h.layers)):
        span, w = slice(s, s + 1 + 2 * layer.d_r), np.zeros(h.dim)
        w[span] = coords[span] = h.log(M)[span]
        _, p, q = h.part(w, k)
        coords[s] -= 0.5 * p @ layer.C @ q
        M = h.exp(-w) @ M
    if not np.allclose(M, np.eye(h.size), atol=1e-8):
        raise AssertionError("peeling left a residual")
    return GroupElement(h, coords)


def multiply(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group multiplication via the matrix model."""
    if g1.harness.positions(g2.harness) != list(range(g1.harness.dim)):
        raise ValueError(f"an element of {g1.harness.name} and one of "
                         f"{g2.harness.name} do not multiply")
    return from_matrix(g1.harness, g1.to_matrix() @ g2.to_matrix())


def random_element(h: Harness, rng: np.random.Generator, scale: float = 1.0) -> GroupElement:
    """Random element with coordinates uniform in [-scale, scale]."""
    return GroupElement(h, rng.uniform(-scale, scale, h.dim))


def _cut(name: str, alg: NilpotentAlgebra, layers: Sequence[Layer]) -> Harness:
    """The harness of the given layers of alg, renumbered r = 1, 2, ... in
    order.  Each symplectic root alpha pairs with beta_r - alpha, the greater
    one being the a-root; the pairing C[i, j] is the beta-coefficient of
    [a_i, b_j] in the model's bracket table, checked nondegenerate exactly."""
    descs = []
    for r, layer in enumerate(layers, start=1):
        pairs = [(alpha, vsub(layer.beta, alpha))
                 for alpha in sorted(layer.members, reverse=True)]
        if any(b == a or b not in layer.members for a, b in pairs):
            raise AssertionError("split harness layers pair distinct roots")
        kept = [(a, b) for a, b in pairs if a > b]
        C = [[alg.brackets.get((a, b), {}).get(layer.beta, 0) for _, b in kept]
             for a, _ in kept]
        if determinant(C) == 0:
            raise AssertionError("polarization pairing must be nondegenerate")
        descs.append(LayerDesc(
            r, layer.beta, layer.members,
            (layer.beta, *(a for a, _ in kept), *(b for _, b in kept)),
            np.array(C, dtype=float).reshape(len(kept), len(kept))))
    return Harness(name, tuple(descs), alg)


def build_harness(name: str) -> Harness:
    """HEIS1-HEIS3, or the split model ``<series><rank>`` of any other name."""
    if name.startswith("HEIS"):
        d = int(name[4:])
        if d < 1 or d > 3:
            raise ValueError("HEIS harnesses support d = 1, 2, 3")
        alg = realize_split_nilradical("A", d + 1)
        return _cut(name, alg, alg.layers[-1:])
    series, rank = name[:1], name[1:]
    if series not in SERIES or not rank.isdigit():
        raise ValueError(f"unknown harness {name!r}; expected HEIS1-3 or "
                         "<series><rank> such as A3 or C2")
    alg = realize_split_nilradical(series, int(rank))
    return _cut(name, alg, alg.layers)


def exact_density(h: Harness, gamma: Dict[int, Q]) -> Q:
    """|Pf| of gamma (keyed by harness layer) from ``plancherel_density`` on
    h's layers, which are layers of h's model, not from the float pairing C."""
    return abs(plancherel_density(h.model, h.layers, gamma).product)
