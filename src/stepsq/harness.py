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
``adjoint`` is Ad of an element g, or the columns of it asked for, by
conjugation in the same matrix model, with g^-1 the reversed product of
exp(-Y) over g's factors Y, so entries the root grading forbids are exact
zeros.  Each layer's pairing C is read from the model's bracket table; that
the keys span a subalgebra is checked when the harness is built.  A ``GroupElement`` holds its coordinates as one
float vector in the basis order.  ``Harness.positions``
decides how two harnesses meet: by model, then by root key.  Harnesses:
HEIS1-3 (the top layer of A_{d+1}: beta = e_1 - e_{d+2}, a_i = e_1 -
e_{d+2-i}, b_i = e_{d+2-i} - e_{d+2}) and the whole split model of any
``<series><rank>`` name, such as A1, A3, C2, B2 or C3.  ``leading_subgroup``
cuts the first k layers and shares the model.  ``orbit`` alone builds and
checks an ``OrbitDescriptor``: a functional lam, one finite float per layer
centre in layer order, the one label of pi_lam and of its coadjoint orbit.
Its ``pf_abs`` is |Pf(lam)| from the pairings C, which ``check_regular`` asks
to be a normal float, as it asks the phase of each layer to be good to
``CHECK_TOL``; ``exact_density`` takes |Pf| from the model layers.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from fractions import Fraction as Q
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._numpy import np
from .cascade import Layer
from .nilalg import NilpotentAlgebra, realize_split_nilradical
from .plancherel import determinant, plancherel_constant, plancherel_density
from .rootsys import SERIES, Vector, vsub

# coordinate range of the random elements that check a representation
# (``schrodinger.check_invariants``), and the deviation below which the
# check of its Gaussian states must stay (``schrodinger.stepwise_rep``)
CHECK_SCALE = 0.8
CHECK_TOL = 1e-8


def expm_nilpotent(M: np.ndarray) -> np.ndarray:
    """Exponential of a nilpotent matrix by its terminating power series."""
    n = M.shape[0]
    out = np.eye(n) + M
    term = M
    for k in range(2, n + 1):
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
        """The Lie-algebra matrix sum_i coords[i] X_i of a basis-order vector,
        or the stack of them for a stack of vectors."""
        pos, vals, owner, _ = self._supports
        w = np.zeros(coords.shape[:-1] + (self.size, self.size))
        w[(..., *pos)] = vals * coords[..., owner]
        return w

    def _read(self, w: np.ndarray) -> np.ndarray:
        """Basis-order coordinates of a Lie-algebra matrix, or of a stack of
        them, read off the disjoint supports; AssertionError outside the
        harness algebra."""
        pos, vals, owner, uncovered = self._supports
        ratios, off = w[(..., *pos)] / vals, w[..., uncovered]
        coords = np.zeros(w.shape[:-2] + (self.dim,))
        np.add.at(coords, (..., owner), ratios)
        coords /= np.bincount(owner)
        # allclose(ratios, their coordinates, atol=1e-9), and w is 0 elsewhere
        near = coords[..., owner]
        if not ((np.abs(ratios - near) <= 1e-9 + 1e-5 * np.abs(near)).all()
                and np.abs(off).max() <= 1e-9):
            raise AssertionError("element outside the harness algebra")
        return coords

    def log(self, M: np.ndarray) -> np.ndarray:
        """Basis-order coordinates of the logarithm of a unipotent matrix, by
        its terminating power series; AssertionError outside the harness
        group."""
        N = M - np.eye(self.size)
        w, term = np.zeros_like(N), np.eye(self.size)
        for k in range(1, self.size + 1):
            term = term @ N
            if not np.abs(term).max() > 0:
                break
            w = w + ((-1) ** (k + 1)) * term / k
        return self._read(w)

    def exp(self, coords: np.ndarray) -> np.ndarray:
        """The group matrix exp(sum_i coords[i] X_i) of a basis-order vector."""
        return expm_nilpotent(self.lie(coords))

    def __post_init__(self) -> None:
        keys = set(self.keys)
        if any(c not in keys for (a, b), coeffs in self.model.brackets.items()
               if a in keys and b in keys for c in coeffs):
            raise AssertionError("bracket outside the harness algebra")

    @cached_property
    def centre_slice_affine(self) -> bool:
        """Whether s -> log(exp(sum_r s_r z_r) x) is affine in s for every x,
        read from the model's bracket table by root key.

        Let J be the ideal generated by [z, n]; being spanned by root
        vectors, it is a set of roots.  Every Baker-Campbell-Hausdorff term
        of degree >= 2 in s lies in [z, J] + [J, J], so the slice is affine
        when no bracket has its second root in J and its first in J or among
        the centres."""
        keys = set(self.keys)
        triples = [(a, b, c) for (a, b), coeffs in self.model.brackets.items()
                   if a in keys and b in keys for c in coeffs]
        centres = {layer.beta for layer in self.layers}
        ideal = {c for a, _, c in triples if a in centres}
        grown = ideal
        while grown:
            grown = {c for _, b, c in triples if b in grown} - ideal
            ideal |= grown
        return not any(b in ideal and (a in ideal or a in centres)
                       for a, b, _ in triples)

    def _factors(self, coords: np.ndarray) -> List[np.ndarray]:
        """The factors Y of the layered product exp(Y_1) exp(Y_2) ...: one
        basis-order vector per centre, a- and b-slice of coords, in product
        order; zero slices are left out, as exp(0) = I exactly."""
        cuts = [s + off for s, layer in zip(self.starts, self.layers)
                for off in (0, 1, 1 + layer.d_r)] + [self.dim]
        values, factors = coords.tolist(), []
        for lo, hi in zip(cuts, cuts[1:]):
            if any(values[lo:hi]):
                factors.append(np.zeros(self.dim))
                factors[-1][lo:hi] = coords[lo:hi]
        return factors

    def _product(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """The group matrix exp(Y_1) exp(Y_2) ... of the factors Y_i."""
        return reduce(np.matmul, map(self.exp, factors), np.eye(self.size))

    def adjoint(self, coords: np.ndarray,
                cols: Union[slice, Sequence[int]] = slice(None)) -> np.ndarray:
        """The columns cols (default all) of Ad of g with layered coordinates
        coords: column j is g X_j g^-1 read back, with g^-1 the reversed
        product of exp(-Y) over g's factors Y, graded like g, so the
        grading's zeros are exact.  Only the basis matrices of cols are
        conjugated."""
        factors = self._factors(coords)
        g = self._product(factors)
        g_inv = self._product([-y for y in reversed(factors)])
        return self._read(g @ self.lie(np.eye(self.dim)[cols]) @ g_inv).T


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Layered product coordinates g = prod_r exp(zeta z) exp(p.a) exp(q.b),
    held as one float vector in the harness basis order."""

    harness: Harness
    coords: np.ndarray

    def to_matrix(self) -> np.ndarray:
        """The product of one exponential per centre, a- and b-slice."""
        return self.harness._product(self.harness._factors(self.coords))


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
    # allclose(M, I, atol=1e-8), NaN failing
    eye = np.eye(h.size)
    if not (np.abs(M - eye) <= 1e-8 + 1e-5 * eye).all():
        raise AssertionError("peeling left a residual")
    return GroupElement(h, coords)


def multiply(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group multiplication via the matrix model."""
    if g1.harness.positions(g2.harness) != list(range(g1.harness.dim)):
        raise ValueError(f"an element of {g1.harness.name} and one of "
                         f"{g2.harness.name} do not multiply")
    return from_matrix(g1.harness, g1.to_matrix() @ g2.to_matrix())


def random_element(h: Harness, rng: random.Random,
                   scale: float = 1.0) -> GroupElement:
    """Random element with coordinates uniform in [-scale, scale], drawn
    one ``rng.uniform`` per coordinate in basis order."""
    return GroupElement(h, np.array([rng.uniform(-scale, scale)
                                     for _ in range(h.dim)]))


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


@dataclass(frozen=True, eq=False)
class OrbitDescriptor:
    """A functional lam on the layer centres, in layer order: the label of
    pi_lam, of its coadjoint orbit and of the affine dual slice lam + v*."""

    harness: Harness
    lam: Tuple[float, ...]

    @property
    def c(self) -> int:
        return plancherel_constant([layer.d_r for layer in self.harness.layers])

    @property
    def pf_abs(self) -> float:
        """|Pf| of lam from the float pairings, prod |lam_r|^d_r |det C_r|;
        inf when a power overflows."""
        out = 1.0
        for value, layer in zip(self.lam, self.harness.layers):
            if layer.d_r:
                try:
                    out *= abs(value) ** layer.d_r * abs(np.linalg.det(layer.C))
                except OverflowError:
                    return math.inf
        return out

    def check_regular(self) -> None:
        """ValueError unless |Pf| is a normal float and the phase
        2 pi lam_r zeta of every layer is good to CHECK_TOL at the check
        scale: a regular functional's density neither vanishes nor leaves
        float range, and a representation at it can be checked.

        A line layer (d_r = 0) acts by that phase alone; the top layer adds
        the modulation 2 pi lam C^T p, of the same size.  The check forms
        the phase at centre coordinates of products of two elements, |zeta|
        up to about 4 * CHECK_SCALE, each rounded about twice, so it is off
        by up to 2 pi |lam_r| 8 CHECK_SCALE eps.  For lam_r from 1e5 to 1e8,
        the check's deviation measured at most 2.7e-15 |lam_r| on the line
        layers of A1, A3, B2 and C2, and at most 7.5e-15 |lam_r| on the top
        layers of HEIS1-3, A3, B2 and C2 (150 samples each), under this
        estimate's 8.9e-15 |lam_r|.
        """
        if not np.finfo(float).tiny <= self.pf_abs < math.inf:
            raise ValueError(f"{self.harness.name}: the functional lambda = "
                             f"{list(self.lam)} is not regular in float "
                             f"range: |Pf| = {self.pf_abs:.3g}")
        rounding = 2 * math.pi * 8 * CHECK_SCALE * np.finfo(float).eps
        for value, layer in zip(self.lam, self.harness.layers):
            if not rounding * abs(value) < CHECK_TOL:
                kind = "symplectic" if layer.d_r else "line"
                raise ValueError(
                    f"{self.harness.name}: lambda_{layer.r} = {value:.3g} on "
                    f"{kind} layer {layer.r} is too large for a float phase: "
                    f"at the check scale 2 pi lambda_{layer.r} zeta may be "
                    f"off by {rounding * abs(value):.2g}, not below "
                    f"{CHECK_TOL:g}")


def orbit(harness: Union[Harness, str], gamma: Dict[int, float]) -> OrbitDescriptor:
    """The functional with value gamma[r] on the centre of layer r; ValueError
    unless gamma holds one finite float per layer centre."""
    h = build_harness(harness) if isinstance(harness, str) else harness
    keys = {layer.r for layer in h.layers}
    if set(gamma) != keys:
        raise ValueError(f"{h.name} needs one functional value per layer "
                         f"centre, keyed r = 1..{h.m}: missing keys "
                         f"{sorted(keys - set(gamma))}, unexpected keys "
                         f"{sorted(set(gamma) - keys)}")
    lam = tuple(float(gamma[layer.r]) for layer in h.layers)
    if not all(map(math.isfinite, lam)):
        raise ValueError(f"{h.name}: the functional lambda = {list(lam)} "
                         "has a value that is not a finite float")
    return OrbitDescriptor(h, lam)


def exact_density(h: Harness, gamma: Dict[int, Q]) -> Q:
    """|Pf| of gamma (keyed by harness layer) from ``plancherel_density`` on
    h's layers, which are layers of h's model, not from the float pairing C."""
    return abs(plancherel_density(h.model, h.layers, gamma).product)
