"""Schrödinger-model representations on layered harness groups.

A representation holds one regular functional, an ``OrbitDescriptor`` of
``harness``, which also holds the group; ``stepwise_rep`` builds it.  It
acts on functions of the top layer's b-coordinates, held either as Gaussian
states or as product states sampled axis by axis on a grid (single-layer
harnesses only, where the action is a translation and a modulation, both
axis by axis): the state passed in picks the closed or grid path.  Earlier
layers act by the point transformation of the top-layer b-coordinates that
``Harness.adjoint`` gives.  Also: coefficient functions with their
orthogonality, restriction to a leading-layer subgroup with renormalization,
and decay reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ._numpy import np
from .harness import (GroupElement, Harness, OrbitDescriptor, build_harness,
                      embed_leading, identity, multiply, orbit, random_element)
from .states import GaussianState, Grid, GridState, gaussian_integral

State = Union[GaussianState, GridState]

# momentum bound and width range of the random grid packets
_GRID_PACKET = (0.5, (1.0, 1.3))
# coordinate range of the random elements check_invariants draws
_CHECK_SCALE = 0.8
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
                   state: State) -> State:
        lam = self.lam
        top = self.harness.top
        out = state.translate(np.asarray(q, dtype=float)) if top.d_r else state
        freq = -lam * top.C.T @ np.asarray(p, dtype=float) if top.d_r else np.zeros(0)
        return out.modulate(freq, 2j * np.pi * lam * zeta)

    def _apply_earlier(self, layer_index: int, zeta: float, state: State) -> State:
        h = self.harness
        layer = h.layers[layer_index]
        if layer.d_r != 0:
            raise AssertionError("earlier layers of the supported harnesses are lines")
        if not isinstance(state, GaussianState):
            raise ValueError("grid states need a single-layer harness")
        lam = self.lam
        # Ad(exp(-zeta z_r))(y . b) = (zvec . y) z + (A y) . a + (B y) . b
        piece = h.centres([-zeta if k == layer_index else 0.0 for k in range(h.m)])
        cols = h.adjoint(piece)[:, h.dim - self.D:]  # the top b-roots come last
        if cols[:h.starts[-1]].any():
            raise AssertionError("adjoint image must stay in the top layer")
        zvec, A, B = h.part(cols, -1)
        out = state.substitute(B)
        out = out.quadratic_phase(-np.pi * lam * (A.T @ h.top.C @ B),
                                  2.0 * np.pi * lam * zvec, 0.0)
        return out.modulate(np.zeros(self.D),
                            2j * np.pi * self.orbit.lam[layer_index] * zeta)

    def apply(self, g: GroupElement, state: State) -> State:
        """pi(g) applied to a Gaussian or grid state vector."""
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

    def random_state(self, rng: np.random.Generator,
                     grid: Optional[Grid] = None) -> State:
        """A random Gaussian wave packet, sampled on grid when one is given.

        Grid packets stay mild (low momentum, width >= 1) so the grid
        resolves their frequency content.
        """
        p, (w0, w1) = (1.0, (0.8, 1.2)) if grid is None else _GRID_PACKET
        g = GaussianState.packet(self.D, rng.uniform(-0.5, 0.5, self.D),
                                 rng.uniform(-p, p, self.D),
                                 float(rng.uniform(w0, w1)))
        return g if grid is None else GridState.from_gaussian(g, grid)


def _state_distance(lhs: State, rhs: State) -> float:
    """Deviation between two states, scale-aware per state type.

    Gaussian states are compared by their parameters (the parameterization
    is unique up to 2*pi*i in the constant, handled via exponentiation);
    grid states by the quadrature L2 distance relative to the norm.
    """
    if isinstance(lhs, GaussianState):
        return max(float(np.abs(lhs.M - rhs.M).max(initial=0.0)),
                   float(np.abs(lhs.ell - rhs.ell).max(initial=0.0)),
                   abs(np.exp(lhs.k - rhs.k) - 1.0))
    diff = lhs.inner(lhs) - lhs.inner(rhs) - rhs.inner(lhs) + rhs.inner(rhs)
    return math.sqrt(max(float(np.real(diff)), 0.0) / rhs.norm_sq())


def validation_grid(rep: RepInstance) -> Grid:
    """The one grid of rep's grid states: check_invariants samples its
    random packets on it, and the grid coefficient norm its states.

    Its half-width keeps shifted packets off the periodic boundary, and it
    is fine enough that no checked state aliases: its
    Nyquist frequency n / (4 half_width) covers the grid packets' momentum,
    the modulation |lam| * scale of one checked element, and the packets'
    Gaussian spectrum exp(-pi w^2 xi^2) down to 1e-12.  n is the next power
    of two; ValueError when it would exceed 2^16.
    """
    if not 1 <= rep.D <= 3:
        raise ValueError(f"the grid path needs 1 <= D <= 3, got D = {rep.D}")
    half_width = 5.0
    momentum, (width, _) = _GRID_PACKET
    nyquist = (momentum + abs(rep.lam) * _CHECK_SCALE
               + math.sqrt(math.log(1e12) / math.pi) / width)
    points = 2 ** math.ceil(math.log2(4.0 * half_width * nyquist))
    if points > 2 ** 16:
        raise ValueError(f"|lambda| = {abs(rep.lam):g} is too large for the "
                         "grid path")
    return Grid(rep.D, points, half_width)


def check_invariants(rep: RepInstance, rng: np.random.Generator,
                     trials: int = 5, grid: Optional[Grid] = None) -> Dict[str, float]:
    """Max unitarity and homomorphism deviations over random samples,
    on grid states when a grid is given; NaN when a deviation is NaN."""
    uni, hom = [], []
    for _ in range(trials):
        g1 = random_element(rep.harness, rng, _CHECK_SCALE)
        g2 = random_element(rep.harness, rng, _CHECK_SCALE)
        v = rep.random_state(rng, grid)
        nv = math.sqrt(v.norm_sq())
        pv = rep.apply(g1, v)
        uni.append(abs(math.sqrt(pv.norm_sq()) - nv) / nv)
        lhs = rep.apply(g1, rep.apply(g2, v))
        rhs = rep.apply(multiply(g1, g2), v)
        hom.append(_state_distance(lhs, rhs))
    return {"unitarity": float(np.max(uni, initial=0.0)),
            "homomorphism": float(np.max(hom, initial=0.0))}


def validate_rep(rep: RepInstance, tol: float,
                 grid: Optional[Grid] = None) -> None:
    """Raise AssertionError naming the first deviation of check_invariants
    (3 samples from default_rng(11), on grid states when given) >= tol."""
    checks = check_invariants(rep, np.random.default_rng(11), 3, grid=grid)
    for name, dev in checks.items():
        if not dev < tol:
            raise AssertionError(
                f"{rep.harness.name}: {'Gaussian' if grid is None else 'grid'} "
                f"{name} deviation {dev:.2g} is not below {tol:g}")


def stepwise_rep(harness: Union[Harness, str],
                 gamma: Dict[int, float]) -> RepInstance:
    """Representation of the layered group at ``orbit(harness, gamma)``.

    Supported shape: every layer below the top is a line (d_r = 0); other
    shapes raise ValueError, and so does a functional that ``orbit`` rejects
    or that is not regular (``OrbitDescriptor.check_regular``).  The result
    passes validate_rep on Gaussian states at 1e-8.
    """
    h = build_harness(harness) if isinstance(harness, str) else harness
    if any(layer.d_r for layer in h.layers[:-1]):
        raise ValueError("unsupported harness shape: only the top layer may "
                         "carry a symplectic part")
    orb = orbit(h, gamma)
    orb.check_regular()
    rep = RepInstance(orb)
    validate_rep(rep, 1e-8)
    return rep


def coefficient(rep: RepInstance, u: State, v: State, g: GroupElement) -> complex:
    """Matrix coefficient <u, pi(g) v>."""
    return complex(u.inner(rep.apply(g, v)))


@dataclass(frozen=True)
class CoefficientField:
    """The coefficient function of a representation and a pair of states."""

    rep: RepInstance
    u: State
    v: State

    def at(self, g: GroupElement) -> complex:
        return coefficient(self.rep, self.u, self.v, g)

    def at_pq(self, p: np.ndarray, q: np.ndarray) -> complex:
        """Value on the non-central coordinates (earlier layers at identity)."""
        w = self.rep._apply_top(0.0, np.asarray(p, float), np.asarray(q, float), self.v)
        return complex(self.u.inner(w))

    def bound(self) -> float:
        """The Cauchy-Schwarz bound on |f|."""
        return math.sqrt(self.u.norm_sq() * self.v.norm_sq())


@dataclass(frozen=True)
class NormReport:
    """Measured coefficient norm squared against the density prediction."""

    value: float
    predicted: float
    rel_error: float


def _closed_norm_sq(rep: RepInstance, u: GaussianState, v: GaussianState) -> float:
    """Exact integral of |<u, pi(0,p,q)v>|^2 over (p, q).

    The exponent of the coefficient is exactly quadratic in (p, q) and the
    Gaussian prefactor is constant, so the quadratic form is reconstructed
    from exponent values at unit steps and integrated in closed form.
    """
    D = rep.D
    n = 2 * D

    def parts(x: np.ndarray) -> Tuple[complex, complex]:
        w = rep._apply_top(0.0, x[:D], x[D:], v)
        return u.inner_parts(w)

    pre0, c = parts(np.zeros(n))
    Qm = np.zeros((n, n), dtype=complex)
    lv = np.zeros(n, dtype=complex)
    plus = np.zeros(n, dtype=complex)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        pre_p, ep = parts(e)
        pre_m, em = parts(-e)
        if not (abs(pre_p - pre0) < 1e-9 * abs(pre0)
                and abs(pre_m - pre0) < 1e-9 * abs(pre0)):
            raise AssertionError("the coefficient prefactor must be constant")
        Qm[i, i] = 0.5 * (ep + em) - c
        lv[i] = 0.5 * (ep - em)
        plus[i] = ep
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n)
            e[i] = e[j] = 1.0
            _, eij = parts(e)
            off = 0.5 * (eij - plus[i] - plus[j] + c)
            Qm[i, j] = Qm[j, i] = off
    # |f|^2 = |pre0|^2 exp(2 Re(x^T Qm x + lv.x + c))
    val = abs(pre0) ** 2 * gaussian_integral(-2.0 * Qm.real, 2.0 * lv.real,
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


def coefficient_norm_sq(rep: RepInstance, u: State, v: State) -> NormReport:
    """Integral of |<u, pi(.)v>|^2 over the non-central coordinates.

    Reports the measured value, the predicted norm_u^2 norm_v^2 / |Pf|, and
    their relative error.  The state type picks the path: Gaussian states
    take the closed path, exact up to roundoff; grid states take the
    quadrature over grid shifts, one 1-D cyclic correlation of |u|^2 and
    |v|^2 per axis.
    """
    if rep.D < 1:
        raise ValueError("the coefficient norm needs a symplectic layer")
    predicted = u.norm_sq() * v.norm_sq() / rep.pf_abs
    path = _closed_norm_sq if isinstance(u, GaussianState) else _grid_norm_sq
    value = path(rep, u, v)
    rel = abs(value - predicted) / predicted
    return NormReport(value, predicted, rel)


@dataclass(frozen=True)
class RestrictionReport:
    """Pointwise and norm-level comparison of a restricted coefficient."""

    pointwise_abs_err: float
    norm_ratio_measured: float
    norm_ratio_predicted: float
    norm_ratio_rel_err: float
    central_deviation: float


def restrict_and_renormalize(rep_big: RepInstance, rep_small: RepInstance,
                             u: State, v: State, x: State,
                             y: Optional[State] = None,
                             ) -> Tuple[RestrictionReport, float]:
    """Compare the big-group coefficient of u (x) x, v (x) y with the small one.

    The small group must consist of the leading layers of the big harness and
    the functionals must agree there.  u and v are states of the small
    representation; x and y live in the complementary tensor factor, which in
    this realization is the state space of the big representation.  The big
    coefficient, evaluated on the quotient slice shared with the small group,
    is checked against <x, y> times the small coefficient; the measured norm
    ratio is compared with the density ratio scaled by the norms of x and y,
    and the square root of the density ratio is the returned renormalization
    factor.  The deviation of the pointwise identity along the small group's
    central directions is reported as a diagnostic, not asserted.
    """
    if y is None:
        y = x
    hb, hs = rep_big.harness, rep_small.harness
    if hs.m >= hb.m or hb.positions(hs) != list(range(hs.dim)):
        raise ValueError("the small harness must be a leading-layer subgroup")
    if rep_big.orbit.lam[:hs.m] != rep_small.orbit.lam:
        raise ValueError("incompatible functionals: restriction must agree")

    inner_xy = complex(x.inner(y))
    scalar = complex(u.inner(v))  # the small states span a character line

    def f_big(g_small: GroupElement) -> complex:
        return scalar * complex(x.inner(rep_big.apply(embed_leading(hb, g_small), y)))

    def f_small(g_small: GroupElement) -> complex:
        return complex(u.inner(rep_small.apply(g_small, v)))

    e_small = identity(hs)
    big_val = f_big(e_small)
    small_val = f_small(e_small)
    # pointwise identity on the shared quotient slice (the identity coset)
    pointwise_err = abs(big_val - inner_xy * small_val)

    # measured norm of the big coefficient over its non-central coordinates,
    # relative to the small coefficient's value on its (zero-dim) slice
    big_norm = coefficient_norm_sq(rep_big, x, y).value * abs(scalar) ** 2
    measured = big_norm / abs(small_val) ** 2
    predicted = x.norm_sq() * y.norm_sq() * rep_small.pf_abs / rep_big.pf_abs
    factor = math.sqrt(rep_small.pf_abs / rep_big.pf_abs)

    # diagnostic: drift of the identity along the small central directions
    dev = 0.0
    for zeta in (0.5, 1.0, 2.0):
        for sgn in (1.0, -1.0):
            g = GroupElement(hs, hs.centres(np.full(hs.m, sgn * zeta)))
            dev = max(dev, abs(f_big(g) - inner_xy * f_small(g)))

    report = RestrictionReport(
        pointwise_abs_err=pointwise_err,
        norm_ratio_measured=measured, norm_ratio_predicted=predicted,
        norm_ratio_rel_err=abs(measured - predicted) / predicted,
        central_deviation=dev,
    )
    return report, factor


@dataclass(frozen=True)
class DecayReport:
    """Weighted sup-norms over nested boxes and the L1 Cauchy gap."""

    sups: Dict[int, Tuple[float, ...]]  # k -> per-box weighted sup
    sup_stable: bool
    l1_cauchy_gap: float
    passed: bool


def schwartz_decay_report(field: Callable[[np.ndarray], np.ndarray], dim: int,
                          k_max: int = 3,
                          boxes: Sequence[float] = (2.0, 3.0, 4.0, 5.0, 6.0),
                          points_per_axis: int = 21,
                          sup_tol: float = 1e-6, l1_tol: float = 1e-6) -> DecayReport:
    """Rapid-decay evidence for a field on R^dim over nested boxes.

    field maps an array of shape (..., dim) to complex values.  For each k
    the weighted sup of (1 + |x|^2)^k |f(x)| must stabilize across boxes, and
    the truncated L1 integrals must be Cauchy; growth flags a failure.
    """
    sups: Dict[int, list] = {k: [] for k in range(k_max + 1)}
    l1 = []
    for R in boxes:
        axes = [np.linspace(-R, R, points_per_axis)] * dim
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        vals = np.abs(np.asarray(field(mesh)))
        r2 = np.sum(mesh ** 2, axis=-1)
        for k in range(k_max + 1):
            sups[k].append(float(np.max((1.0 + r2) ** k * vals)))
        step = (2.0 * R / (points_per_axis - 1)) ** dim
        l1.append(float(np.sum(vals) * step))
    sup_stable = all(
        sups[k][-1] <= sups[k][-2] * (1.0 + 1e-6) + sup_tol for k in range(k_max + 1))
    gap = abs(l1[-1] - l1[-2])
    passed = sup_stable and gap <= l1_tol
    return DecayReport({k: tuple(v) for k, v in sups.items()}, sup_stable,
                       gap, passed)
