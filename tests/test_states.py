"""Gaussian state algebra, closed-form integrals, and grid quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from stepsq.states import (
    GaussianState,
    Grid,
    GridState,
    gaussian_integral,
    gaussian_integral_parts,
)


def dense(state):
    """The n^D samples of a product grid state: the outer product of its
    per-axis factors."""
    return math.prod(np.ix_(*state.factors))


def test_gaussian_integral_1d_oracle():
    # scipy quadrature oracle for a complex 1-d integral
    S = np.array([[2.0 + 0.5j]])
    L = np.array([0.3 - 0.2j])
    K = 0.1 + 0.7j
    f = lambda y: np.exp(-S[0, 0] * y * y + L[0] * y + K)
    re, _ = quad(lambda y: f(y).real, -np.inf, np.inf)
    im, _ = quad(lambda y: f(y).imag, -np.inf, np.inf)
    val = gaussian_integral(S, L, K)
    assert abs(val - (re + 1j * im)) < 1e-10


def test_gaussian_integral_diagonal_product():
    S = np.diag([1.0, 4.0]).astype(complex)
    val = gaussian_integral(S, np.zeros(2), 0.0)
    assert abs(val - np.pi / 2.0) < 1e-12


def test_gaussian_integral_parts_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        S = A @ A.T + 3 * np.eye(3) + 1j * (lambda B: B + B.T)(rng.normal(size=(3, 3)))
        L = rng.normal(size=3) + 1j * rng.normal(size=3)
        K = complex(rng.normal(), rng.normal())
        pre, expo = gaussian_integral_parts(S, L, K)
        assert abs(pre * np.exp(expo) - gaussian_integral(S, L, K)) < 1e-10


def test_gaussian_integral_zero_dim():
    assert gaussian_integral(np.zeros((0, 0)), np.zeros(0), 0.25j) == np.exp(0.25j)


def test_gaussian_integral_rejects_bad_input():
    with pytest.raises(AssertionError):
        gaussian_integral(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), 0.0)
    with pytest.raises(AssertionError):
        gaussian_integral(np.array([[-1.0 + 0j]]), np.zeros(1), 0.0)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_ground_state_unit_norm(D):
    assert abs(GaussianState.ground(D).norm_sq() - 1.0) < 1e-12


def test_translate_modulate_preserve_norm():
    g = GaussianState.ground(2)
    moved = g.translate(np.array([0.7, -1.1])).modulate(np.array([2.0, 0.5]), 0.3j)
    assert abs(moved.norm_sq() - 1.0) < 1e-12


def test_translate_matches_pointwise():
    g = GaussianState.packet(2, [0.1, -0.2], [0.5, 0.3], 1.2)
    q = np.array([0.4, -0.6])
    y = np.random.default_rng(0).normal(size=(10, 2))
    assert np.allclose(g.translate(q).evaluate(y), g.evaluate(y + q))


def test_modulate_matches_pointwise():
    g = GaussianState.ground(1)
    f = np.array([1.7])
    y = np.linspace(-2, 2, 11).reshape(-1, 1)
    expected = g.evaluate(y) * np.exp(2j * np.pi * (y @ f))
    assert np.allclose(g.modulate(f).evaluate(y), expected)


def test_quadratic_phase_matches_pointwise():
    g = GaussianState.ground(2)
    Qf = np.array([[0.3, 0.1], [0.1, -0.2]])
    lin = np.array([0.5, -0.4])
    y = np.random.default_rng(1).normal(size=(7, 2))
    phase = np.exp(1j * (np.einsum("ni,ij,nj->n", y, Qf, y) + y @ lin + 0.2))
    out = g.quadratic_phase(Qf, lin, 0.2)
    assert np.allclose(out.evaluate(y), g.evaluate(y) * phase)
    assert abs(out.norm_sq() - g.norm_sq()) < 1e-12


def test_substitute_matches_pointwise_and_rejects_nonunimodular():
    g = GaussianState.packet(2, [0.2, 0.1], [0.0, 0.4])
    B = np.array([[1.0, 0.7], [0.0, 1.0]])  # unipotent
    y = np.random.default_rng(2).normal(size=(5, 2))
    assert np.allclose(g.substitute(B).evaluate(y), g.evaluate(y @ B.T))
    with pytest.raises(AssertionError):
        g.substitute(2.0 * np.eye(2))


def test_inner_product_oracle_1d():
    u = GaussianState.packet(1, [0.3], [0.2])
    v = GaussianState.packet(1, [-0.1], [0.6], 1.1)
    f = lambda y: np.conj(u.evaluate(np.array([[y]]))[0]) * v.evaluate(np.array([[y]]))[0]
    re, _ = quad(lambda y: f(y).real, -np.inf, np.inf)
    im, _ = quad(lambda y: f(y).imag, -np.inf, np.inf)
    assert abs(u.inner(v) - (re + 1j * im)) < 1e-10


def test_grid_matches_closed_inner():
    grid = Grid(2, 64, 6.0)
    u = GaussianState.packet(2, [0.3, -0.2], [0.5, 0.1])
    v = GaussianState.ground(2)
    gu, gv = GridState.from_gaussian(u, grid), GridState.from_gaussian(v, grid)
    assert abs(gu.inner(gv) - u.inner(v)) < 1e-8
    assert abs(gu.norm_sq() - u.norm_sq()) < 1e-8


def test_grid_translate_matches_closed():
    grid = Grid(1, 128, 6.0)
    g = GaussianState.ground(1)
    gs = GridState.from_gaussian(g, grid)
    q = np.array([0.37])  # not grid aligned
    ref = GridState.from_gaussian(g.translate(q), grid)
    moved = gs.translate(q)
    assert np.abs(dense(moved) - dense(ref)).max() < 1e-9


def test_grid_modulate_matches_closed():
    grid = Grid(1, 128, 6.0)
    g = GaussianState.ground(1)
    out = GridState.from_gaussian(g, grid).modulate(np.array([1.3]), 0.2j)
    ref = GridState.from_gaussian(g.modulate(np.array([1.3]), 0.2j), grid)
    assert np.abs(dense(out) - dense(ref)).max() < 1e-12


SEPARABLE_GRIDS = [Grid(2, 64, 5.0), Grid(3, 48, 4.0)]


@pytest.mark.parametrize("grid", SEPARABLE_GRIDS, ids=lambda g: f"D{g.D}")
def test_grid_translate_matches_closed_nd(grid):
    D = grid.D
    g = GaussianState.packet(D, [0.2, -0.1, 0.15][:D], [0.3, -0.2, 0.1][:D])
    q = np.array([0.37, -0.21, 0.13][:D])  # not grid aligned
    moved = GridState.from_gaussian(g, grid).translate(q)
    ref = GridState.from_gaussian(g.translate(q), grid)
    assert np.abs(dense(moved) - dense(ref)).max() < 1e-9


@pytest.mark.parametrize("grid", SEPARABLE_GRIDS, ids=lambda g: f"D{g.D}")
def test_grid_modulate_matches_closed_nd(grid):
    D = grid.D
    g = GaussianState.packet(D, [0.2, -0.1, 0.15][:D], [0.3, -0.2, 0.1][:D])
    freq = np.array([1.3, -0.7, 0.45][:D])  # not on the frequency grid
    out = GridState.from_gaussian(g, grid).modulate(freq, 0.3 + 0.2j)
    ref = GridState.from_gaussian(g.modulate(freq, 0.3 + 0.2j), grid)
    assert np.abs(dense(out) - dense(ref)).max() < 1e-12


def test_grid_states_on_different_grids_rejected():
    # same point count, different half-widths: the spacings differ
    g = GaussianState.ground(1)
    a = GridState.from_gaussian(g, Grid(1, 64, 3.0))
    b = GridState.from_gaussian(g, Grid(1, 64, 5.0))
    with pytest.raises(ValueError, match="different grids"):
        a.inner(b)
    with pytest.raises(ValueError, match="different grids"):
        b.inner(a)


def test_grid_axis_and_freqs():
    grid = Grid(1, 8, 4.0)
    assert grid.h == 1.0
    assert grid.axis()[0] == -4.0 and grid.axis()[-1] == 3.0
    assert np.allclose(sorted(grid.freqs()), np.arange(-4, 4) / 8.0)


def _dense_translate(grid, values, q):
    """y -> f(y + q) by n^D FFT phase rotation on the full frequency mesh."""
    freqs = np.meshgrid(*[grid.freqs()] * grid.D, indexing="ij")
    phase = np.exp(2j * np.pi * sum(qi * k for qi, k in zip(q, freqs)))
    return np.fft.ifftn(np.fft.fftn(values) * phase)


def _dense_modulate(grid, values, freq, phase):
    """Multiply by exp(2 pi i freq . y + phase) on the full sample mesh."""
    mesh = np.meshgrid(*[grid.axis()] * grid.D, indexing="ij")
    return values * np.exp(2j * np.pi * sum(f * y for f, y in zip(freq, mesh))
                           + phase)


@pytest.mark.parametrize("grid", SEPARABLE_GRIDS, ids=lambda g: f"D{g.D}")
def test_product_ops_match_dense_oracle(grid):
    # the per-axis operations against the same operations on n^D samples
    D = grid.D
    rng = np.random.default_rng(5)
    u = GridState.from_gaussian(
        GaussianState.packet(D, rng.uniform(-0.5, 0.5, D),
                             rng.uniform(-1, 1, D), 1.1), grid)
    v = GridState.from_gaussian(GaussianState.ground(D), grid)
    q, freq = rng.uniform(-1.5, 1.5, D), rng.uniform(-2, 2, D)
    phase = 0.3 + 0.7j
    moved = u.translate(q)
    ref = _dense_translate(grid, dense(u), q)
    assert np.abs(dense(moved) - ref).max() < 1e-12
    out = moved.modulate(freq, phase)
    ref = _dense_modulate(grid, ref, freq, phase)
    assert np.abs(dense(out) - ref).max() < 1e-12
    oracle = np.vdot(dense(v), ref) * grid.h ** D
    # relative to the Cauchy-Schwarz bound: the modulated overlap is small
    assert abs(v.inner(out) - oracle) < 1e-12 * math.sqrt(v.norm_sq() * out.norm_sq())
    assert abs(out.norm_sq() - np.vdot(ref, ref).real * grid.h ** D) \
        < 1e-12 * out.norm_sq()


def test_from_gaussian_rejects_non_diagonal_forms():
    g = GaussianState.ground(2)
    sheared = GaussianState(g.M + 0.1 * np.array([[0, 1], [1, 0]]), g.ell, g.k)
    with pytest.raises(ValueError, match="diagonal"):
        GridState.from_gaussian(sheared, Grid(2, 32, 3.0))
    with pytest.raises(ValueError, match="dimension"):
        GridState.from_gaussian(g, Grid(3, 32, 3.0))
