"""Orbit integrals, Fourier inversion, and the two-stage limit check."""

import time
from dataclasses import replace

import numpy as np
import pytest

from stepsq import inversion
from stepsq.harness import (build_harness, element, from_matrix, identity,
                            inverse, leading_subgroup, multiply,
                            random_element)
from stepsq.inversion import (
    TestFunction,
    character_of_translate,
    fourier_inversion,
    limit_inversion_check,
    orbit,
    orbit_integral,
    restrict_test_function,
)
from stepsq.states import GaussianState


def scaled(f, c):
    """c * f, built by shifting the constant k of every term by log c."""
    return TestFunction(f.harness, tuple(
        GaussianState(t.M, t.ell, t.k + np.log(c)) for t in f.terms))


@pytest.mark.parametrize("t", [1.0, 2.0, -0.5, 0.25])
def test_heisenberg_orbit_integral_oracle(t):
    h = build_harness("HEIS1")
    theta = orbit_integral(TestFunction.standard(h), orbit(h, {1: t}))
    oracle = np.exp(-np.pi * t * t) / (2.0 * abs(t))
    assert abs(theta - oracle) < 1e-12


def test_orbit_integral_matches_slice_path():
    for name, lam in (("HEIS2", {1: 0.8}), ("A3", {1: 0.5, 2: 1.1}),
                      ("C2", {1: -0.7, 2: 0.9})):
        h = build_harness(name)
        f = TestFunction.standard(h)
        orb = orbit(h, lam)
        assert abs(orbit_integral(f, orb)
                   - character_of_translate(f, identity(h), orb)) < 1e-12


def test_orbit_integral_linearity():
    h = build_harness("HEIS2")
    orb = orbit(h, {1: 0.9})
    f = TestFunction.standard(h)
    g = TestFunction.gaussian(h, [0.2] * h.dim, [0.1] * h.dim)
    total = orbit_integral(TestFunction(h, f.terms + g.terms), orb)
    parts = orbit_integral(f, orb) + orbit_integral(g, orb)
    assert abs(total - parts) < 1e-12
    assert abs(orbit_integral(scaled(f, 3.0), orb)
               - 3.0 * orbit_integral(f, orb)) < 1e-12


def test_orbit_integral_rejects_singular_functional():
    h = build_harness("HEIS1")
    with pytest.raises(ValueError):
        orbit_integral(TestFunction.standard(h), orbit(h, {1: 0.0}))
    with pytest.raises(ValueError):
        orbit(h, {2: 1.0})


def test_central_translate_phase():
    h = build_harness("HEIS1")
    f = TestFunction.standard(h)
    orb = orbit(h, {1: 1.3})
    z = element(h, [(0.7, [0.0], [0.0])])
    lhs = character_of_translate(f, z, orb)
    rhs = np.exp(2j * np.pi * 1.3 * 0.7) * character_of_translate(f, identity(h), orb)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("name,lam", [("HEIS1", {1: 0.9}), ("HEIS2", {1: -1.2}),
                                      ("HEIS3", {1: 0.6})])
def test_character_conjugation_invariance_heisenberg(name, lam):
    # on these groups the dual slice is the full coadjoint orbit, so the
    # character is a conjugation-invariant distribution
    h = build_harness(name)
    f = TestFunction.standard(h)
    orb = orbit(h, lam)
    rng = np.random.default_rng(3)
    base = character_of_translate(f, identity(h), orb)
    for _ in range(3):
        g = random_element(h, rng)
        assert abs(character_of_translate(f.conjugate_by(g), identity(h), orb)
                   - base) < 1e-10


def test_affine_slice_differs_from_curved_orbit_on_two_layer_groups():
    # for the two-layer harnesses the coadjoint orbit curves out of the
    # affine dual slice, so the slice functional is not conjugation
    # invariant even though inversion (which integrates over all
    # functionals) remains exact; the deviation is real and measured here
    h = build_harness("C2")
    f = TestFunction.standard(h)
    orb = orbit(h, {1: 0.4, 2: 1.2})
    rng = np.random.default_rng(3)
    base = character_of_translate(f, identity(h), orb)
    dev = max(abs(character_of_translate(f.conjugate_by(random_element(h, rng)),
                                         identity(h), orb) - base)
              for _ in range(3))
    assert dev > 1e-8  # documents the curvature of the orbit


def test_inversion_heisenberg_identity_and_random_points():
    h = build_harness("HEIS1")
    f = TestFunction.standard(h)
    start = time.perf_counter()
    res = fourier_inversion(f, identity(h))
    assert abs(res.value - 1.0) < 1e-4
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = random_element(h, rng, 1.0)
        res = fourier_inversion(f, x)
        assert res.rel_error < 1e-4
    assert time.perf_counter() - start < 120.0


def test_inversion_scaling_linearity():
    h = build_harness("HEIS1")
    f = TestFunction.standard(h)
    x = element(h, [(0.2, [0.3], [-0.4])])
    assert abs(fourier_inversion(scaled(f, 2.5), x).value
               - 2.5 * fourier_inversion(f, x).value) < 1e-10


def test_inversion_of_an_offset_packet():
    h = build_harness("HEIS1")
    f = TestFunction.gaussian(h, [0.1, 0.2, -0.1], [0.3, 0.0, 0.1], 1.2)
    x = element(h, [(0.1, [0.2], [0.3])])
    res = fourier_inversion(f, x)
    assert res.rel_error < 1e-6
    assert res.quad_error <= 1e-6


def test_an_error_budget_over_tolerance_raises():
    # no rule in double precision reaches 1e-30: successive estimates may
    # agree bit for bit, but the budget is floored at the rounding bound of
    # the final sum, so it stays above the tolerance
    rng = np.random.default_rng(8)
    for name in ("HEIS1", "A3"):
        h = build_harness(name)
        f = TestFunction.standard(h)
        for x in (identity(h), random_element(h, rng, 0.8)):
            with pytest.raises(AssertionError,
                               match=rf"{name}: inversion error budget"):
                fourier_inversion(f, x, tolerance=1e-30)


def test_inversion_rejects_a_complex_slice_form():
    h = build_harness("HEIS1")
    term = TestFunction.standard(h).terms[0].quadratic_phase(
        np.eye(h.dim), np.zeros(h.dim), 0.0)
    with pytest.raises(ValueError, match=r"HEIS1: .*real slice form"):
        fourier_inversion(TestFunction(h, (term,)), identity(h))


@pytest.mark.parametrize("name,lam", [("A3", {1: 0.5, 2: 1.1}),
                                      ("C2", {1: -0.7, 2: 0.9}),
                                      ("B2", {1: 0.6, 2: -1.0})])
def test_inversion_two_layer_harnesses(name, lam):
    h = build_harness(name)
    f = TestFunction.standard(h)
    rng = np.random.default_rng(5)
    x = random_element(h, rng, 0.8)
    res = fourier_inversion(f, x, tolerance=1e-5)
    assert res.rel_error < 1e-4


@pytest.mark.parametrize("name", ["A3", "C2", "B2", "C3", "C4", "A7", "C5",
                                  "packet"])
def test_inversion_error_budget_covers_the_residual(name):
    # "packet" is an offset, modulated Gaussian on C3: its momentum makes b
    # complex, which shifts each whitened one-dimensional Gaussian off 0
    h = build_harness("C3" if name == "packet" else name)
    if name == "packet":
        f = TestFunction.gaussian(h, np.linspace(-0.3, 0.2, h.dim),
                                  np.linspace(0.4, -0.3, h.dim), 1.1)
    else:
        f = TestFunction.standard(h)
    x = random_element(h, np.random.default_rng(5), 0.8)
    res = fourier_inversion(f, x, tolerance=1e-8)
    assert res.rel_error < 1e-8
    assert abs(res.value - res.reference) <= res.quad_error + 1e-12


def test_inversion_three_layers():
    h = build_harness("C3")
    assert h.m == 3
    f = TestFunction.standard(h)
    for x in (identity(h), random_element(h, np.random.default_rng(6), 0.8)):
        res = fourier_inversion(f, x)
        assert res.rel_error < 1e-6


SLICE_HARNESSES = (["HEIS1", "HEIS2", "HEIS3"] + [f"A{r}" for r in range(1, 8)]
                   + [f"{s}{r}" for s in "CB" for r in range(2, 6)]
                   + ["D4", "D5", "D6"])


def _slice_is_affine_by_probes(h, x):
    """The finite-difference degree probe of the slice map
    s -> log(exp(sum_r s_r z_r) x): its values at -e_r and at e_r + e_s
    against the affine map through its values at 0 and at e_r."""
    x_mat = x.to_matrix()

    def xi(s):
        centre = np.zeros(h.dim)
        centre[list(h.starts)] = s
        return h.log(h.exp(centre) @ x_mat)

    e = np.eye(h.m)
    b = xi(np.zeros(h.m))
    A = np.stack([xi(e_r) - b for e_r in e], axis=1)
    for r in range(h.m):
        if not np.allclose(xi(-e[r]), b - A[:, r], atol=1e-9):
            return False
        for s in range(r + 1, h.m):
            if not np.allclose(xi(e[r] + e[s]), b + A[:, r] + A[:, s],
                               atol=1e-9):
                return False
    return True


@pytest.mark.parametrize("name", SLICE_HARNESSES)
def test_centre_slice_affine_matches_the_degree_probe(name):
    h = build_harness(name)
    x = random_element(h, np.random.default_rng(11))
    assert h.centre_slice_affine == _slice_is_affine_by_probes(h, x)


@pytest.mark.parametrize("name", ["B3", "B4", "D4", "D5"])
def test_inversion_rejects_a_curved_centre_slice(name):
    h = build_harness(name)
    assert not h.centre_slice_affine
    x = random_element(h, np.random.default_rng(12), 0.8)
    with pytest.raises(AssertionError, match="must be affine"):
        fourier_inversion(TestFunction.standard(h), x)


def test_limit_inversion_two_stage_agreement():
    big = build_harness("A3")
    small = leading_subgroup(big, 1)
    f_big = TestFunction.standard(big)
    f_small = restrict_test_function(f_big, small)
    for zeta in (0.0, 0.6):
        x = element(small, [(zeta, [], [])])
        rep = limit_inversion_check(f_big, f_small, x, tolerance=1e-3)
        assert rep.coherent and rep.agree
        assert rep.stage_small.rel_error < 1e-3
        assert rep.stage_big.rel_error < 1e-3


def test_limit_inversion_flags_incoherent_family():
    big = build_harness("A3")
    small = leading_subgroup(big, 1)
    f_big = TestFunction.standard(big)
    bad = TestFunction.gaussian(small, [0.1], [0.0], 1.1)
    rep = limit_inversion_check(f_big, bad, element(small, [(0.3, [], [])]))
    assert not rep.coherent
    assert rep.coherence_gap > 1e-3
    assert not rep.agree


def test_limit_inversion_does_not_invert_incoherent_family(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fourier_inversion(*args, **kwargs)

    monkeypatch.setattr(inversion, "fourier_inversion", counted)
    big = build_harness("A3")
    small = leading_subgroup(big, 1)
    x = element(small, [(0.3, [], [])])
    f_big = TestFunction.standard(big)
    bad = TestFunction.gaussian(small, [0.1], [0.0], 1.1)
    rep = limit_inversion_check(f_big, bad, x)
    assert not rep.coherent and not rep.agree
    assert rep.stage_small is None and rep.stage_big is None
    assert calls == []
    # the coherent family still inverts both stages
    rep = limit_inversion_check(f_big, restrict_test_function(f_big, small), x)
    assert rep.agree and len(calls) == 2


def test_abelian_stage_is_classical_fourier_inversion():
    # the one-layer line group: characters are scalars, c = 1, density = 1
    big = build_harness("A3")
    small = leading_subgroup(big, 1)
    f = restrict_test_function(TestFunction.standard(big), small)
    orb_ = orbit(small, {1: 0.8})
    assert orb_.c == 1 and orb_.pf_abs == 1.0
    x = element(small, [(0.4, [], [])])
    res = fourier_inversion(f, x)
    assert abs(res.value - np.exp(-np.pi * 0.16)) < 1e-8


def test_conjugate_by_matches_pointwise():
    rng = np.random.default_rng(7)
    for name in ("HEIS2", "C2"):
        h = build_harness(name)
        f = TestFunction.standard(h)
        g = random_element(h, rng)
        fg = f.conjugate_by(g)
        for _ in range(5):
            x = random_element(h, rng)
            gxg = multiply(multiply(g, x), inverse(g))
            assert abs(fg.value(x) - f.value(gxg)) < 1e-10


def test_test_function_values_on_group():
    h = build_harness("HEIS1")
    f = TestFunction.standard(h)
    g = element(h, [(0.3, [0.5], [-0.2])])
    # lift coordinates are the single-exponential coordinates of g
    xi = f.lift_coords(g)
    assert abs(f.value(g) - np.exp(-np.pi * xi @ xi)) < 1e-12
    assert abs(f.value(identity(h)) - 1.0) < 1e-12


def test_restriction_is_an_index_map_by_root_key():
    # HEIS2 is the top layer of A3; with its two a-roots and its two b-roots
    # swapped (the pairing stays C = I) its keys are a permutation of A3's
    # top keys, and the restricted function must agree with the big one on
    # the same matrices
    big, heis = build_harness("A3"), build_harness("HEIS2")
    z, a1, a2, b1, b2 = heis.keys
    small = replace(heis, name="HEIS2-swapped", layers=(
        replace(heis.top, keys=(z, a2, a1, b2, b1)),))
    assert small.keys != big.keys[1:] and set(small.keys) == set(big.keys[1:])
    f_big = TestFunction.gaussian(big, np.linspace(-0.4, 0.5, big.dim),
                                  np.linspace(0.3, -0.2, big.dim), 0.9)
    f_small = restrict_test_function(f_big, small)
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = random_element(small, rng)
        g_big = from_matrix(big, g.to_matrix())
        assert abs(f_small.value(g) - f_big.value(g_big)) < 1e-12
    for other in ("C2", "A5"):
        with pytest.raises(ValueError):
            restrict_test_function(f_big, build_harness(other))
