"""Schrödinger-model representations on layered harness groups.

A representation holds one regular functional, an ``OrbitDescriptor`` of
``harness``, which also holds the group; ``stepwise_rep`` builds it.  It
acts on Gaussian states, functions of the top layer's b-coordinates.
Earlier layers act by the point transformation of the top-layer
b-coordinates that ``Harness.adjoint`` gives.  Also: matrix coefficients
and their orthogonality (the coefficient norm against 1/|Pf|), in closed
form on Gaussian states or as a rectangle-rule quadrature of grid samples
(single-layer harnesses only).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Union

from ._numpy import np
from .harness import (CHECK_SCALE, CHECK_TOL, GroupElement, Harness,
                      OrbitDescriptor, build_harness, multiply, orbit,
                      random_element)
from .states import (GaussianState, Grid, GridState, gaussian_integral,
                     gaussian_integral_parts)

# momentum bound and least width of the packets that validation_grid's point
# rule covers; the rule stays as it is so that grid reports stay byte-identical
_GRID_PACKET = (0.5, 1.0)
# target q-step and half-span of the grid norm's shift lattice
_Q_LATTICE = (0.55, 3.5)


@dataclass(frozen=True, eq=False)
class RepInstance:
    """Unitary representation realized on functions of the b-coordinates.

    The state space is L2 of R^D with D the half-dimension of the top layer
    (D = 0 gives the scalar character line).  Earlier layers act through the
    point transformation of b-coordinates induced by conjugation, with the
    phase dictated by the induced-representation model; correctness is
    enforced by the numerically checked homomorphism invariant.
    """

    orbit: OrbitDescriptor

    @property
    def harness(self) -> Harness:
        return self.orbit.harness

    @property
    def D(self) -> int:
        return self.harness.top.d_r

    @property
    def lam(self) -> float:
        """Coefficient on the top layer's central direction."""
        return self.orbit.lam[-1]

    @property
    def pf_abs(self) -> float:
        """|Pf| of the harness pairings at the functional; 1 for D = 0."""
        return self.orbit.pf_abs

    def _apply_top(self, zeta: float, p: np.ndarray, q: np.ndarray,
                   state: GaussianState) -> GaussianState:
        lam = self.lam
        top = self.harness.top
        out = state.translate(np.asarray(q, dtype=float)) if top.d_r else state
        freq = -lam * top.C.T @ np.asarray(p, dtype=float) if top.d_r else np.zeros(0)
        return out.modulate(freq, 2j * np.pi * lam * zeta)

    def _apply_earlier(self, layer_index: int, zeta: float,
                       state: GaussianState) -> GaussianState:
        h = self.harness
        layer = h.layers[layer_index]
        if layer.d_r != 0:
            raise AssertionError("earlier layers of the supported harnesses are lines")
        lam = self.lam
        # Ad(exp(-zeta z_r))(y . b) = (zvec . y) z + (A y) . a + (B y) . b
        piece = h.centres([-zeta if k == layer_index else 0.0 for k in range(h.m)])
        # only the top b-columns of Ad are read; the top b-roots come last
        cols = h.adjoint(piece, slice(h.dim - self.D, h.dim))
        if cols[:h.starts[-1]].any():
            raise AssertionError("adjoint image must stay in the top layer")
        zvec, A, B = h.part(cols, -1)
        out = state.substitute(B)
        out = out.quadratic_phase(-np.pi * lam * (A.T @ h.top.C @ B),
                                  2.0 * np.pi * lam * zvec, 0.0)
        return out.modulate(np.zeros(self.D),
                            2j * np.pi * self.orbit.lam[layer_index] * zeta)

    def apply(self, g: GroupElement, state: GaussianState) -> GaussianState:
        """pi(g) applied to a Gaussian state."""
        h = self.harness
        if h.positions(g.harness) != list(range(h.dim)):
            raise ValueError(f"an element of {g.harness.name} does not act "
                             f"in a representation of {h.name}")
        out = state
        for idx in range(h.m - 1, -1, -1):
            zeta, p, q = h.part(g.coords, idx)
            if idx == h.m - 1:
                out = self._apply_top(zeta, p, q, out)
            else:
                out = self._apply_earlier(idx, zeta, out)
        return out

    def random_state(self, rng: random.Random) -> GaussianState:
        """A random Gaussian wave packet.

        One ``rng.uniform`` per value: the D centre coordinates, then the D
        momenta, then the width.
        """
        center = [rng.uniform(-0.5, 0.5) for _ in range(self.D)]
        momentum = [rng.uniform(-1.0, 1.0) for _ in range(self.D)]
        return GaussianState.packet(self.D, center, momentum,
                                    rng.uniform(0.8, 1.2))


def _state_distance(lhs: GaussianState, rhs: GaussianState) -> float:
    """Deviation between two Gaussian states, compared by their parameters
    (the parameterization is unique up to 2*pi*i in the constant, handled
    via exponentiation)."""
    return max(float(np.abs(lhs.M - rhs.M).max(initial=0.0)),
               float(np.abs(lhs.ell - rhs.ell).max(initial=0.0)),
               abs(np.exp(lhs.k - rhs.k) - 1.0))


def validation_grid(rep: RepInstance) -> Grid:
    """The grid that ``orthogonality --backend grid`` samples the ground
    state on for the grid coefficient norm.

    Its point rule is kept bit for bit so that grid reports stay
    byte-identical: the half-width keeps shifted packets off the periodic
    boundary, and the Nyquist frequency n / (4 half_width) covers the
    ``_GRID_PACKET`` momentum, the modulation |lam| * CHECK_SCALE, and a
    Gaussian spectrum exp(-pi w^2 xi^2) down to 1e-12.  n is the next power
    of two.  ValueError, in this order, unless 1 <= D <= 3, when n would
    exceed 2^16, and for a harness with more than one layer.
    """
    if not 1 <= rep.D <= 3:
        raise ValueError(f"the grid path needs 1 <= D <= 3, got D = {rep.D}")
    half_width = 5.0
    momentum, width = _GRID_PACKET
    nyquist = (momentum + abs(rep.lam) * CHECK_SCALE
               + math.sqrt(math.log(1e12) / math.pi) / width)
    points = 2 ** math.ceil(math.log2(4.0 * half_width * nyquist))
    if points > 2 ** 16:
        raise ValueError(f"|lambda| = {abs(rep.lam):g} is too large for the "
                         "grid path")
    if rep.harness.m > 1:
        raise ValueError("grid states need a single-layer harness")
    return Grid(rep.D, points, half_width)


def check_invariants(rep: RepInstance, rng: random.Random,
                     trials: int = 5) -> Dict[str, float]:
    """Max unitarity and homomorphism deviations over random samples on
    Gaussian states; NaN when a deviation is NaN.

    Each sample draws g1, g2 and v and applies pi three times: w = pi(g2)v,
    whose norm against v's is the unitarity deviation, and pi(g1)w against
    pi(g1 g2)v, the homomorphism deviation.
    """
    uni, hom = [], []
    for _ in range(trials):
        g1 = random_element(rep.harness, rng, CHECK_SCALE)
        g2 = random_element(rep.harness, rng, CHECK_SCALE)
        v = rep.random_state(rng)
        nv = math.sqrt(v.norm_sq())
        w = rep.apply(g2, v)
        uni.append(abs(math.sqrt(w.norm_sq()) - nv) / nv)
        hom.append(_state_distance(rep.apply(g1, w),
                                   rep.apply(multiply(g1, g2), v)))
    return {"unitarity": float(np.max(uni, initial=0.0)),
            "homomorphism": float(np.max(hom, initial=0.0))}


def validate_rep(rep: RepInstance, tol: float) -> None:
    """Raise AssertionError naming the first deviation of check_invariants
    (3 samples from random.Random(11)) that is not below tol; a NaN
    deviation is not below it."""
    checks = check_invariants(rep, random.Random(11), 3)
    for name, dev in checks.items():
        if not dev < tol:
            raise AssertionError(
                f"{rep.harness.name}: Gaussian {name} deviation {dev:.2g} "
                f"is not below {tol:g}")


def stepwise_rep(harness: Union[Harness, str],
                 gamma: Dict[int, float]) -> RepInstance:
    """Representation of the layered group at ``orbit(harness, gamma)``.

    Supported shape: every layer below the top is a line (d_r = 0); other
    shapes raise ValueError, and so does a functional that ``orbit`` rejects
    or that is not regular (``OrbitDescriptor.check_regular``).  The result
    passes validate_rep on Gaussian states at CHECK_TOL.
    """
    h = build_harness(harness) if isinstance(harness, str) else harness
    if any(layer.d_r for layer in h.layers[:-1]):
        raise ValueError("unsupported harness shape: only the top layer may "
                         "carry a symplectic part")
    orb = orbit(h, gamma)
    orb.check_regular()
    rep = RepInstance(orb)
    validate_rep(rep, CHECK_TOL)
    return rep


def coefficient(rep: RepInstance, u: GaussianState, v: GaussianState,
                g: GroupElement) -> complex:
    """Matrix coefficient <u, pi(g) v>."""
    return complex(u.inner(rep.apply(g, v)))


@dataclass(frozen=True)
class NormReport:
    """Measured coefficient norm squared against the density prediction."""

    value: float
    predicted: float
    rel_error: float


def _closed_norm_sq(rep: RepInstance, u: GaussianState, v: GaussianState) -> float:
    """Exact integral of |<u, pi(0,p,q)v>|^2 over x = (p, q), up to roundoff.

    pi(0, p, q) sends v's data (M, ell, k) to (M, ell - 2 M q - 2 pi i lam C^T
    p, k - q^T M q + ell.q), so <u, pi(0,p,q)v> is pre exp(E(x)) with pre
    depending on S = conj(M_u) + M_v alone and E(x) = (1/4) L^T S^-1 L + K,
    L = L0 + J x, J = [-2 pi i lam C^T, -2 M_v], K = K0 - q^T M_v q +
    ell_v.q.  The quadratic form of E is written down from these data, not
    read from its values, and |pre|^2 exp(2 Re E) is integrated once.
    """
    D = rep.D
    lam, C = rep.lam, rep.harness.top.C
    S = np.conj(u.M) + v.M
    L0 = np.conj(u.ell) + v.ell
    pre, c = gaussian_integral_parts(S, L0, np.conj(u.k) + v.k)
    J = np.hstack([-2j * np.pi * lam * C.T, -2.0 * v.M])
    SJ = np.linalg.solve(S, J)
    Qm = 0.25 * J.T @ SJ
    Qm[D:, D:] -= v.M
    lv = 0.5 * SJ.T @ L0
    lv[D:] += v.ell
    # |f|^2 = |pre|^2 exp(2 Re(x^T Qm x + lv.x + c))
    val = abs(pre) ** 2 * gaussian_integral(-2.0 * Qm.real, 2.0 * lv.real,
                                            2.0 * c.real)
    return float(np.real(val))


def _grid_norm_sq(rep: RepInstance, u: GridState, v: GridState) -> float:
    """Quadrature of the coefficient norm on product grid states (single layer).

    By discrete Parseval the p-sum on the frequency grid at a grid shift s is
    n^D h^2D sum_y |u(y)|^2 |v(y+s)|^2, a cyclic cross-correlation of |u|^2
    and |v|^2.  For product states it is the product of the D per-axis
    correlations, so the sum over the shift box (shifts k*q_stride mod n,
    |k| <= steps, wrapped ones counted per k) is the product of D per-axis
    sums, each read off one 1-D FFT correlation.  The lattice step q_stride
    and the box half-span come from ``_Q_LATTICE``.
    """
    grid = u.grid
    if v.grid != grid:
        raise ValueError("the states live on different grids")
    D = grid.D
    lam = rep.lam
    C = rep.harness.top.C
    if not np.allclose(C, np.eye(D)):
        raise ValueError("the grid path assumes the standard pairing")
    h = grid.h
    n = grid.points
    dp = 1.0 / (n * h * abs(lam))
    q_step, q_span = _Q_LATTICE
    q_stride = max(1, round(q_step / h))
    steps = int(q_span / (q_stride * h))
    idx = (np.arange(-steps, steps + 1) * q_stride) % n
    total = math.prod(
        float(np.sum(np.fft.ifft(np.conj(np.fft.fft(np.abs(fu) ** 2))
                                 * np.fft.fft(np.abs(fv) ** 2)).real[idx]))
        for fu, fv in zip(u.factors, v.factors)) * n ** D * h ** (2 * D)
    return total * (dp ** D * (q_stride * h) ** D)


def coefficient_norm_sq(rep: RepInstance, u: Union[GaussianState, GridState],
                        v: Union[GaussianState, GridState]) -> NormReport:
    """Integral of |<u, pi(.)v>|^2 over the non-central coordinates.

    Reports the measured value, the predicted norm_u^2 norm_v^2 / |Pf|, and
    their relative error.  The state type picks the path: Gaussian states
    take the closed path, exact up to roundoff (its quadratic form is
    written down from the state data, so small |lambda| keeps its digits);
    grid states take the quadrature over grid shifts, one 1-D cyclic
    correlation of |u|^2 and |v|^2 per axis.
    """
    if rep.D < 1:
        raise ValueError("the coefficient norm needs a symplectic layer")
    predicted = u.norm_sq() * v.norm_sq() / rep.pf_abs
    path = _closed_norm_sq if isinstance(u, GaussianState) else _grid_norm_sq
    value = path(rep, u, v)
    rel = abs(value - predicted) / predicted
    return NormReport(value, predicted, rel)
