"""Representations, coefficients, orthogonality, restriction."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from stepsq import schrodinger
from stepsq.harness import (CHECK_TOL, build_harness, element, embed_leading,
                            from_matrix, identity, leading_subgroup, multiply,
                            orbit, random_element)
from stepsq.schrodinger import (
    RepInstance,
    check_invariants,
    coefficient,
    coefficient_norm_sq,
    stepwise_rep,
    validate_rep,
    validation_grid,
)
from stepsq.states import GaussianState, Grid, GridState, gaussian_integral

STEPWISE_CASES = [
    ("HEIS1", {1: 1.0}), ("HEIS2", {1: 1.0}), ("HEIS3", {1: -0.8}),
    ("A3", {1: 1.0, 2: 1.0}), ("C2", {1: 0.7, 2: 1.3}),
    ("B2", {1: -0.4, 2: 0.9}), ("A1", {1: 1.5}),
]


def dense(state):
    """The n^D samples of a product grid state."""
    return math.prod(np.ix_(*state.factors))


def scalar_state(value: complex) -> GaussianState:
    """A zero-dimensional Gaussian state holding a single complex amplitude."""
    return GaussianState(np.zeros((0, 0), complex), np.zeros(0, complex),
                         complex(np.log(complex(value))))


# ---------- representation structure ----------

def test_layer_rep_action_structure():
    rep = stepwise_rep("HEIS1", {1: 1.0})
    h = rep.harness
    g = GaussianState.ground(1)
    y = np.linspace(-1, 1, 5).reshape(-1, 1)
    # a-direction: modulation
    ga = element(h, [(0.0, [0.6], [0.0])])
    out = rep.apply(ga, g)
    assert np.allclose(out.evaluate(y), g.evaluate(y) * np.exp(-2j * np.pi * 0.6 * y[:, 0]))
    # b-direction: translation
    gb = element(h, [(0.0, [0.0], [0.8])])
    assert np.allclose(rep.apply(gb, g).evaluate(y), g.evaluate(y + 0.8))
    # center: scalar
    gz = element(h, [(0.4, [0.0], [0.0])])
    assert np.allclose(rep.apply(gz, g).evaluate(y),
                       np.exp(2j * np.pi * 0.4) * g.evaluate(y))


def test_center_scalar_scales_with_lambda():
    rep = stepwise_rep("HEIS1", {1: 2.0})
    g = GaussianState.ground(1)
    gz = element(rep.harness, [(0.3, [0.0], [0.0])])
    y = np.array([[0.2]])
    assert np.allclose(rep.apply(gz, g).evaluate(y),
                       np.exp(4j * np.pi * 0.3) * g.evaluate(y))


def test_identity_acts_trivially():
    for name, gamma in STEPWISE_CASES:
        rep = stepwise_rep(name, gamma)
        v = GaussianState.packet(rep.D, [0.1] * rep.D, [0.2] * rep.D)
        out = rep.apply(identity(rep.harness), v)
        assert np.allclose(out.M, v.M) and np.allclose(out.ell, v.ell)
        assert abs(np.exp(out.k - v.k) - 1.0) < 1e-12


def test_stepwise_rep_errors():
    with pytest.raises(ValueError):
        stepwise_rep("A3", {1: 1.0, 2: 0.0})
    with pytest.raises(ValueError):
        stepwise_rep("A3", {1: 1.0})
    rep = stepwise_rep("A3", {1: 1.0, 2: 1.0})
    grid_state = GridState.from_gaussian(GaussianState.ground(2), Grid(2, 32, 3.0))
    with pytest.raises(ValueError):  # grid states need a single-layer harness
        rep.apply(identity(rep.harness), grid_state)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_deviation_fails_validation():
    # at lambda = 1e308 the modulation overflows and every state is NaN; the
    # deviations must stay NaN, not drop out of a max, so validation fails
    rep = RepInstance(orbit("HEIS3", {1: 1e308}))
    checks = check_invariants(rep, random.Random(11), trials=3)
    assert any(math.isnan(dev) for dev in checks.values())
    with pytest.raises(AssertionError, match="deviation nan"):
        validate_rep(rep, 1e-8)


FLIP_CASES = [("HEIS1", {1: 1.0}), ("HEIS2", {1: 1.0}),
              ("A3", {1: 1.0, 2: 1.0}), ("C2", {1: 0.7, 2: 1.3}),
              ("B2", {1: -0.4, 2: 0.9})]


@pytest.mark.parametrize("name,gamma", FLIP_CASES)
def test_a_sign_flip_of_p_fails_validation(monkeypatch, name, gamma):
    # p -> -p keeps pi unitary and keeps every coefficient norm (the norm
    # integrates over p), so only the homomorphism check can catch it;
    # validate_rep's three samples must
    real = RepInstance._apply_top
    monkeypatch.setattr(RepInstance, "_apply_top",
                        lambda self, zeta, p, q, state:
                        real(self, zeta, -np.asarray(p), q, state))
    rep = RepInstance(orbit(name, gamma))
    checks = check_invariants(rep, random.Random(11), 3)
    assert checks["unitarity"] < CHECK_TOL and checks["homomorphism"] > 0.1
    with pytest.raises(AssertionError, match="homomorphism deviation"):
        validate_rep(rep, CHECK_TOL)


@pytest.mark.parametrize("name,gamma", FLIP_CASES)
def test_a_pi_that_scales_states_fails_unitarity(monkeypatch, name, gamma):
    # pi(g) v = (1 + 1e-6) times the right state is a homomorphism up to
    # the same factor, but not unitary
    real = RepInstance.apply
    monkeypatch.setattr(RepInstance, "apply", lambda self, g, state:
                        real(self, g, state).modulate(np.zeros(self.D),
                                                      math.log1p(1e-6)))
    rep = RepInstance(orbit(name, gamma))
    with pytest.raises(AssertionError, match="unitarity deviation 1e-06"):
        validate_rep(rep, CHECK_TOL)


@pytest.mark.parametrize("name,gamma", STEPWISE_CASES)
def test_invariants_closed_50_pairs(name, gamma):
    rep = stepwise_rep(name, gamma)
    checks = check_invariants(rep, random.Random(42), trials=50)
    assert checks["unitarity"] <= 1e-8
    assert checks["homomorphism"] <= 1e-8


@pytest.mark.parametrize("d", [1, 2])
def test_invariants_grid_50_pairs(d):
    rep = stepwise_rep(f"HEIS{d}", {1: 1.0})
    checks = check_invariants(rep, random.Random(43), trials=50,
                              grid=validation_grid(rep))
    assert checks["unitarity"] <= 1e-4
    assert checks["homomorphism"] <= 1e-4


@pytest.mark.parametrize("lam", [3.0, 6.0, -4.0])
def test_validation_grid_resolves_large_lambda(lam):
    # the grid grows with |lambda|, so the modulated packets do not alias
    rep = stepwise_rep("HEIS3", {1: lam})
    checks = check_invariants(rep, random.Random(11), trials=3,
                              grid=validation_grid(rep))
    assert checks["unitarity"] <= 1e-4
    assert checks["homomorphism"] <= 1e-4



def test_stepwise_restricted_to_top_layer_matches_layer_rep():
    rep = stepwise_rep("A3", {1: 0.9, 2: 1.4})
    h = rep.harness
    top_only = replace(h, name="A3-top", layers=(h.top,))
    layer_rep = stepwise_rep(top_only, {h.top.r: 1.4})
    v = GaussianState.packet(2, [0.2, -0.3], [0.1, 0.5])
    g_top = element(layer_rep.harness, [(0.3, [0.5, -0.2], [0.4, 0.1])])
    g_full = element(rep.harness, [(0.0, [], []), (0.3, [0.5, -0.2], [0.4, 0.1])])
    a = rep.apply(g_full, v)
    b = layer_rep.apply(g_top, v)
    assert np.allclose(a.M, b.M) and np.allclose(a.ell, b.ell)
    assert abs(np.exp(a.k - b.k) - 1.0) < 1e-12


def test_apply_rejects_an_element_of_another_harness():
    # B2 and C2 have the same layer shapes; C2's elements must not act on B2
    rep = stepwise_rep("B2", {1: 2.0, 2: 0.5})
    g = element(build_harness("C2"), [(0.3, [], []), (0.2, [0.1], [0.4])])
    v = GaussianState.packet(1, [0.0], [0.0])
    with pytest.raises(ValueError, match="does not act"):
        rep.apply(g, v)


# ---------- coefficients ----------

def test_coefficient_at_identity_and_bound():
    rep = stepwise_rep("HEIS2", {1: 1.0})
    u = GaussianState.packet(2, [0.3, 0.0], [0.2, -0.1])
    v = GaussianState.ground(2)
    assert abs(coefficient(rep, u, v, identity(rep.harness)) - u.inner(v)) < 1e-12
    bound = math.sqrt(u.norm_sq() * v.norm_sq())  # Cauchy-Schwarz
    rng = random.Random(5)
    for _ in range(50):
        g = random_element(rep.harness, rng, 2.0)
        assert abs(coefficient(rep, u, v, g)) <= bound + 1e-12


def test_heisenberg_ground_coefficient_closed_form():
    # independent closed form: f(zeta, p, q) =
    #   exp(2 pi i lam zeta + pi i lam p q - pi (q^2 + lam^2 p^2) / 2)
    lam = 1.0
    rep = stepwise_rep("HEIS1", {1: lam})
    g0 = GaussianState.ground(1)
    rng = random.Random(6)
    for _ in range(100):
        zeta, p, q = (rng.uniform(-2, 2) for _ in range(3))
        g = element(rep.harness, [(zeta, [p], [q])])
        expected = np.exp(2j * np.pi * lam * zeta + 1j * np.pi * lam * p * q
                          - 0.5 * np.pi * (q * q + lam * lam * p * p))
        assert abs(coefficient(rep, g0, g0, g) - expected) < 1e-8


def test_translation_commutation_property():
    # l(x) r(y) f_{u,v} = f_{pi(x)u, pi(y)v}
    rep = stepwise_rep("C2", {1: 0.5, 2: 1.1})
    rng = random.Random(7)
    u = GaussianState.ground(1)
    v = GaussianState.packet(1, [0.2], [0.4])
    for _ in range(5):
        gx, gy, g = (random_element(rep.harness, rng) for _ in range(3))
        gx_inv = from_matrix(rep.harness, np.linalg.inv(gx.to_matrix()))
        moved = multiply(multiply(gx_inv, g), gy)
        lhs = coefficient(rep, u, v, moved)
        rhs = coefficient(rep, rep.apply(gx, u), rep.apply(gy, v), g)
        assert abs(lhs - rhs) < 1e-10


def test_coefficient_modulus_constant_on_central_cosets():
    rep = stepwise_rep("HEIS2", {1: 1.2})
    u = GaussianState.ground(2)
    v = GaussianState.packet(2, [0.1, 0.3], [0.0, 0.2])
    rng = random.Random(8)
    for _ in range(10):
        g = random_element(rep.harness, rng)
        s = element(rep.harness, [(rng.uniform(-3, 3), np.zeros(2), np.zeros(2))])
        assert abs(abs(coefficient(rep, u, v, multiply(g, s)))
                   - abs(coefficient(rep, u, v, g))) < 1e-12


# ---------- orthogonality ----------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_orthogonality_closed_heisenberg(d):
    for lam in (1.0, 2.0, -0.5, 1.7, 0.3):
        rep = stepwise_rep(f"HEIS{d}", {1: lam})
        u = GaussianState.ground(d)
        v = GaussianState.packet(d, [0.2] * d, [0.3] * d, 1.1)
        report = coefficient_norm_sq(rep, u, v)
        assert report.rel_error < 1e-6
        assert abs(report.value * rep.pf_abs / (u.norm_sq() * v.norm_sq()) - 1.0) < 1e-6


def test_orthogonality_closed_heisenberg_known_values():
    u = GaussianState.ground(1)
    assert abs(coefficient_norm_sq(stepwise_rep("HEIS1", {1: 1.0}), u, u).value - 1.0) < 1e-12
    assert abs(coefficient_norm_sq(stepwise_rep("HEIS1", {1: 2.0}), u, u).value - 0.5) < 1e-12


@pytest.mark.parametrize("name,gammas", [
    ("A3", [{1: 1.0, 2: 1.0}, {1: 0.3, 2: -1.2}, {1: -2.0, 2: 0.7},
            {1: 1.5, 2: 2.0}, {1: 0.0, 2: 0.9}]),
    ("C2", [{1: 1.0, 2: 1.0}, {1: 0.4, 2: -0.8}, {1: -1.1, 2: 1.6},
            {1: 2.0, 2: 0.5}, {1: 0.6, 2: -1.4}]),
    ("B2", [{1: 1.0, 2: 1.0}, {1: -0.7, 2: 0.9}, {1: 1.3, 2: -1.5},
            {1: 0.2, 2: 2.0}, {1: -1.8, 2: 0.6}]),
])
def test_orthogonality_stepwise(name, gammas):
    for gamma in gammas:
        rep = stepwise_rep(name, gamma)
        u = GaussianState.ground(rep.D)
        v = GaussianState.packet(rep.D, [0.1] * rep.D, [-0.2] * rep.D, 0.9)
        report = coefficient_norm_sq(rep, u, v)
        assert abs(report.value * rep.pf_abs / (u.norm_sq() * v.norm_sq()) - 1.0) < 1e-3


CLOSED_NORM_CASES = [("HEIS1", {}), ("HEIS2", {}), ("HEIS3", {}),
                     ("A3", {1: 1.0}), ("C2", {1: 0.7}), ("B2", {1: -0.4})]


def _top_rep(name, low, lam):
    """The representation with lam on the top layer over the functional low
    on the earlier (line) layers."""
    return stepwise_rep(name, {**low, len(low) + 1: lam})


def probe_norm_sq(rep, u, v):
    """The closed norm as it was assembled before the form was written down:
    the quadratic form of the coefficient's exponent is read from its values
    at 0, +-e_i and e_i + e_j, and integrated once."""
    D = rep.D
    n = 2 * D

    def parts(x):
        return u.inner_parts(rep._apply_top(0.0, x[:D], x[D:], v))

    pre0, c = parts(np.zeros(n))
    Qm = np.zeros((n, n), dtype=complex)
    lv = np.zeros(n, dtype=complex)
    plus = np.zeros(n, dtype=complex)
    for i, e in enumerate(np.eye(n)):
        (_, ep), (_, em) = parts(e), parts(-e)
        Qm[i, i] = 0.5 * (ep + em) - c
        lv[i] = 0.5 * (ep - em)
        plus[i] = ep
    for i in range(n):
        for j in range(i + 1, n):
            _, eij = parts(np.eye(n)[i] + np.eye(n)[j])
            Qm[i, j] = Qm[j, i] = 0.5 * (eij - plus[i] - plus[j] + c)
    return float(np.real(abs(pre0) ** 2 * gaussian_integral(
        -2.0 * Qm.real, 2.0 * lv.real, 2.0 * c.real)))


@pytest.mark.parametrize("name,low", CLOSED_NORM_CASES)
def test_closed_norm_is_exact_down_to_tiny_lambda(name, low):
    # the p-block of the form is of order lam^2: written down, it keeps its
    # digits where reading it from exponent values lost them (lam <= 1e-8)
    rng = random.Random(21)
    for lam in (4.0, 1.0, 1e-3, 1e-8, 1e-50, 1e-100):
        rep = _top_rep(name, low, lam)
        for _ in range(2):
            u, v = rep.random_state(rng), rep.random_state(rng)
            report = coefficient_norm_sq(rep, u, v)
            assert report.predicted == u.norm_sq() * v.norm_sq() / rep.pf_abs
            assert report.rel_error < 1e-12, (name, lam, report)


@pytest.mark.parametrize("name,low", CLOSED_NORM_CASES)
def test_closed_norm_matches_the_probe_assembly(name, low):
    # on chirped packets, so M is complex and the p- and q-blocks of the
    # form are coupled
    rng = random.Random(22)

    def chirped(rep):
        Qf = np.array([[rng.uniform(-1.0, 1.0) for _ in range(rep.D)]
                       for _ in range(rep.D)])
        return rep.random_state(rng).quadratic_phase(Qf, np.zeros(rep.D), 0.0)

    for lam in (0.5, 1.0, 3.0):
        rep = _top_rep(name, low, lam)
        for _ in range(2):
            u, v = chirped(rep), chirped(rep)
            want = probe_norm_sq(rep, u, v)
            got = coefficient_norm_sq(rep, u, v).value
            assert abs(got - want) <= 1e-12 * abs(want), (name, lam)


@pytest.mark.parametrize("d,points", [(1, 256), (2, 64), (3, 24)])
def test_orthogonality_grid(d, points):
    grid = Grid(d, points, 3.3)
    for lam in (1.0, 2.0, 0.5, -1.0, 1.5):
        rep = stepwise_rep(f"HEIS{d}", {1: lam})
        u = GridState.from_gaussian(GaussianState.ground(d), grid)
        report = coefficient_norm_sq(rep, u, u)
        assert report.rel_error < 1e-3, (d, lam, report.rel_error)


def _per_shift_norm_sq(rep, u, v, q_stride, q_span):
    """The grid coefficient norm with one FFT per shift s: the frequency sum
    of |FFT(conj(u) * v(. + s))|^2, summed over the shift lattice."""
    grid = u.grid
    D, h, n = grid.D, grid.h, grid.points
    steps = int(q_span / (q_stride * h))
    cu, dv = np.conj(dense(u)), dense(v)
    total = 0.0
    for flat in np.ndindex(*([2 * steps + 1] * D)):
        shifts = tuple((steps - s) * q_stride for s in flat)
        vs = np.roll(dv, shifts, axis=tuple(range(D)))
        total += float(np.sum(np.abs(np.fft.fftn(cu * vs) * h ** D) ** 2))
    dp = 1.0 / (n * h * abs(rep.lam))
    return total * dp ** D * (q_stride * h) ** D


@pytest.mark.parametrize("d,points", [(1, 256), (2, 64), (3, 24)])
def test_grid_norm_matches_per_shift_quadrature(d, points):
    grid = Grid(d, points, 3.3)
    q_step, q_span = schrodinger._Q_LATTICE
    q_stride = max(1, round(q_step / grid.h))
    steps = int(q_span / (q_stride * grid.h))
    residues = (np.arange(-steps, steps + 1) * q_stride) % points
    # the 24-point grid wraps: the extreme shifts +-12 share one residue
    assert (len(set(residues)) < len(residues)) == (points == 24)
    rng = random.Random(17)
    for lam in (1.0, -1.5, 0.5):
        rep = stepwise_rep(f"HEIS{d}", {1: lam})
        u, v = rep.random_state(rng, grid), rep.random_state(rng, grid)
        assert np.abs(dense(u) - dense(v)).max() > 1e-3
        value = coefficient_norm_sq(rep, u, v).value
        oracle = _per_shift_norm_sq(rep, u, v, q_stride, q_span)
        assert abs(value - oracle) <= 1e-12 * oracle, (d, lam, value, oracle)


def test_grid_norm_rejects_states_on_different_grids():
    rep = stepwise_rep("HEIS1", {1: 1.0})
    g = GaussianState.ground(1)
    u = GridState.from_gaussian(g, Grid(1, 64, 3.0))
    v = GridState.from_gaussian(g, Grid(1, 64, 5.0))
    with pytest.raises(ValueError, match="different grids"):
        coefficient_norm_sq(rep, u, v)


def test_coefficient_norm_rejects_character_reps():
    rep = stepwise_rep("A1", {1: 1.0})
    s = scalar_state(1.0)
    with pytest.raises(ValueError):
        coefficient_norm_sq(rep, s, s)


# ---------- restriction / renormalization ----------

def test_restriction_a1_in_a3():
    # the small stage acts on a line, so with unit states there the
    # restricted coefficient's squared norm is the big coefficient norm of x
    lam1, lam2 = 0.8, 1.5
    big = build_harness("A3")
    rep_big = stepwise_rep(big, {1: lam1, 2: lam2})
    rep_small = stepwise_rep(leading_subgroup(big, 1), {1: lam1})
    x = GaussianState.packet(2, [0.2, -0.1], [0.3, 0.1])
    norm = coefficient_norm_sq(rep_big, x, x).value
    predicted = x.norm_sq() ** 2 * rep_small.pf_abs / rep_big.pf_abs
    assert abs(norm - predicted) < 1e-3 * predicted
    factor = math.sqrt(rep_small.pf_abs / rep_big.pf_abs)
    assert abs(factor - 1.0 / abs(lam2)) < 1e-12
    # the big coefficient restricts to <x, x> times the small character only
    # at the identity: along the small centre it drifts, and the drift is real
    small = rep_small.harness
    drift = max(
        abs(coefficient(rep_big, x, x,
                        embed_leading(big, element(small, [(zeta, [], [])])))
            - x.inner(x) * np.exp(2j * np.pi * lam1 * zeta))
        for zeta in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0))
    assert drift > 1e-3


def test_restriction_factor_transitivity_on_values():
    # |P1/P3|^(1/2) = |P1/P2|^(1/2) * |P2/P3|^(1/2) for the same harness pair
    big = build_harness("A3")
    rep_a = stepwise_rep(leading_subgroup(big, 1), {1: 0.3})
    for lam2a, lam2b in [(1.5, 3.0), (0.5, 2.0)]:
        big_a = stepwise_rep(big, {1: 0.3, 2: lam2a})
        big_b = stepwise_rep(big, {1: 0.3, 2: lam2b})
        fa = math.sqrt(rep_a.pf_abs / big_a.pf_abs)
        fb = math.sqrt(rep_a.pf_abs / big_b.pf_abs)
        assert abs(fa / fb - lam2b / lam2a) < 1e-12
