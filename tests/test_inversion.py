"""Orbit integrals, Fourier inversion, and the two-stage limit check."""

import json
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from stepsq import inversion
from stepsq.cli import run
from stepsq.harness import (build_harness, element, from_matrix, identity,
                            leading_subgroup, multiply, orbit, random_element)
from stepsq.inversion import (
    TestFunction,
    character_of_translate,
    fourier_inversion,
    limit_inversion_check,
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
    rng = random.Random(3)
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
    rng = random.Random(3)
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
    rng = random.Random(4)
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
    assert res.budget <= 1e-6


def test_an_error_budget_is_returned_at_double_precision():
    # the budget is a rounding bound in double precision, at least eps
    # relative to |f(x)|, so it stays above a tolerance of 1e-30; the
    # caller compares it with its tolerance, and nothing raises
    rng = random.Random(8)
    for name in ("HEIS1", "A3"):
        h = build_harness(name)
        f = TestFunction.standard(h)
        for x in (identity(h), random_element(h, rng, 0.8)):
            res = fourier_inversion(f, x)
            assert np.finfo(float).eps <= res.budget < 1e-12
            assert res.rel_error <= res.budget


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
    rng = random.Random(5)
    x = random_element(h, rng, 0.8)
    res = fourier_inversion(f, x)
    assert res.rel_error < 1e-4


@pytest.mark.parametrize("name", ["A3", "C2", "B2", "C3", "C4", "A7", "C5",
                                  "packet"])
def test_inversion_error_budget_covers_the_residual(name):
    # "packet" is an offset, modulated Gaussian on C3: its momentum makes b
    # complex, so b.b is the plain product of a complex vector
    h = build_harness("C3" if name == "packet" else name)
    if name == "packet":
        f = TestFunction.gaussian(h, np.linspace(-0.3, 0.2, h.dim),
                                  np.linspace(0.4, -0.3, h.dim), 1.1)
    else:
        f = TestFunction.standard(h)
    x = random_element(h, random.Random(5), 0.8)
    res = fourier_inversion(f, x)
    assert res.rel_error < 1e-8 and res.budget <= 1e-8
    assert res.rel_error <= res.budget + 1e-12


def test_inversion_three_layers():
    h = build_harness("C3")
    assert h.m == 3
    f = TestFunction.standard(h)
    for x in (identity(h), random_element(h, random.Random(6), 0.8)):
        res = fourier_inversion(f, x)
        assert res.rel_error < 1e-6


@pytest.mark.parametrize("name", ["A31", "C16"])
def test_inversion_at_depth_is_exact_relative_to_f_of_x(name):
    # |f(x)| is about 1e-23 on A31 and 2e-13 on C16, so a residual scaled by
    # the sup of f, which is 1, would pass any value near 0
    h = build_harness(name)
    x = random_element(h, random.Random(5), 0.3)
    res = fourier_inversion(TestFunction.standard(h), x)
    assert abs(res.reference) < 1e-12
    assert res.rel_error < 1e-12


def test_a_reference_that_underflows_is_named():
    h = build_harness("HEIS1")
    x = element(h, [(50.0, [0.0], [0.0])])
    with pytest.raises(ValueError, match=r"HEIS1: \|f\(x\)\| = 0 underflows "
                                         r"at log x = \[50\."):
        fourier_inversion(TestFunction.standard(h), x)


def scale_the_value(monkeypatch, factor):
    """Make fourier_inversion return factor times its value, by scaling the
    prefactor of every term where inversion reads gaussian_integral_parts."""
    parts = inversion.gaussian_integral_parts

    def scaled_parts(S, L, K):
        pre, expo = parts(S, L, K)
        return factor * pre, expo

    monkeypatch.setattr(inversion, "gaussian_integral_parts", scaled_parts)


@pytest.mark.parametrize("factor", [0.0, 0.5])
@pytest.mark.parametrize("name,scale", [("HEIS1", 0.8), ("A5", 0.8),
                                        ("C4", 0.8), ("A7", 0.8),
                                        ("C16", 0.3), ("A31", 0.3)])
def test_a_wrong_value_fails_the_direct_call(monkeypatch, factor, name, scale):
    # |f(x)| runs from 0.2 on HEIS1 down to 1e-23 on A31, so a residual
    # scaled by the sup of f would let the wrong value pass everywhere but
    # on HEIS1
    scale_the_value(monkeypatch, factor)
    h = build_harness(name)
    x = random_element(h, random.Random(5), scale)
    res = fourier_inversion(TestFunction.standard(h), x)
    assert abs(res.value - factor * res.reference) < 1e-12 * abs(res.reference)
    assert res.rel_error > 1e-6  # the default tolerance


@pytest.mark.parametrize("factor", [0.0, 0.5])
@pytest.mark.parametrize("command,count", [("inversion", 11),
                                           ("limit-check", 2)])
def test_a_wrong_value_fails_every_residual_row(tmp_path, monkeypatch, factor,
                                                command, count):
    scale_the_value(monkeypatch, factor)
    out = tmp_path / "r.json"
    assert run([command, "--out", str(out)]) == 1
    rows = [row for row in json.loads(out.read_text(encoding="utf-8"))["rows"]
            if row["name"].endswith("_rel_error")]
    assert len(rows) == count
    assert not any(row["pass"] for row in rows)


@pytest.mark.parametrize("name", ["HEIS1", "A3", "C2", "C4"])
def test_inversion_does_not_see_the_slice_map(monkeypatch, name):
    # a documented negative result: each slice form (S, L0) taken to
    # (G^T S G, G^T L0), the slice map A replaced by A G for a random
    # invertible G, reconstructs the same value, by Euclidean Fourier
    # inversion on R^m.  So the inversion rows check inversion through the
    # slice; they cannot see the group law, |Pf| or c
    h = build_harness(name)
    rng = random.Random(13)
    f, x = TestFunction.standard(h), random_element(h, rng, 0.8)
    exact = fourier_inversion(f, x).value
    G = np.array([[rng.uniform(-1.0, 1.0) for _ in range(h.m)]
                  for _ in range(h.m)]) + 2.0 * np.eye(h.m)
    slice_quadratic = inversion._slice_quadratic

    def moved(f, x):
        log_x, slices = slice_quadratic(f, x)
        return log_x, [(G.T @ S @ G, G.T @ L0, K) for S, L0, K in slices]

    monkeypatch.setattr(inversion, "_slice_quadratic", moved)
    assert abs(fourier_inversion(f, x).value - exact) <= 1e-12 * abs(exact)


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
    x = random_element(h, random.Random(11))
    assert h.centre_slice_affine == _slice_is_affine_by_probes(h, x)


@pytest.mark.parametrize("name", ["B3", "B4", "D4", "D5"])
def test_inversion_rejects_a_curved_centre_slice(name):
    h = build_harness(name)
    assert not h.centre_slice_affine
    x = random_element(h, random.Random(12), 0.8)
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


def test_limit_inversion_enforces_the_tolerance_asked_for():
    # the stages agree at a tolerance equal to their larger budget and not
    # at half of it, so the tolerance asked for is the one enforced
    big = build_harness("A3")
    small = leading_subgroup(big, 1)
    f_big = TestFunction.standard(big)
    f_small = restrict_test_function(f_big, small)
    x = element(small, [(0.6, [], [])])
    rep = limit_inversion_check(f_big, f_small, x, tolerance=1e-30)
    assert rep.coherent and not rep.agree
    budget = max(rep.stage_small.budget, rep.stage_big.budget)
    assert budget > 1e-30
    assert limit_inversion_check(f_big, f_small, x, tolerance=budget).agree
    assert not limit_inversion_check(f_big, f_small, x,
                                     tolerance=budget / 2).agree


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
    rng = random.Random(7)
    for name in ("HEIS2", "C2"):
        h = build_harness(name)
        f = TestFunction.standard(h)
        g = random_element(h, rng)
        g_inv = from_matrix(h, np.linalg.inv(g.to_matrix()))
        fg = f.conjugate_by(g)
        for _ in range(5):
            x = random_element(h, rng)
            gxg = multiply(multiply(g, x), g_inv)
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
    rng = random.Random(12)
    for _ in range(5):
        g = random_element(small, rng)
        g_big = from_matrix(big, g.to_matrix())
        assert abs(f_small.value(g) - f_big.value(g_big)) < 1e-12
    for other in ("C2", "A5"):
        with pytest.raises(ValueError):
            restrict_test_function(f_big, build_harness(other))
