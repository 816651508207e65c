"""End-to-end acceptance checks at the stated tolerances and rank bounds."""

import filecmp
import time
from fractions import Fraction as Q

import numpy as np

from stepsq.cascade import closed_form_beta, sigma_r
from stepsq.cli import run
from stepsq.harness import (build_harness, element, identity,
                            leading_subgroup, random_element)
from stepsq.inversion import (TestFunction, fourier_inversion,
                              limit_inversion_check, restrict_test_function)
from stepsq.limits import (cascade_stability, check_well_aligned, propagate,
                           restriction_projection_factor)
from stepsq.nilalg import (corrupted_fixture, realize_split_nilradical,
                           verify_setup_axioms)
from stepsq.plancherel import determinant, pfaffian, plancherel_density
from stepsq.rootsys import build_root_system, vadd
from stepsq.schrodinger import (CoefficientField, coefficient_norm_sq,
                                restrict_and_renormalize,
                                schwartz_decay_report, stepwise_rep)
from stepsq.states import GaussianState, Grid, GridState

# every (series, rank) pair inside the stated rank bounds
ORACLE_SYSTEMS = ([("A", r) for r in range(1, 14)]
                  + [("B", r) for r in range(2, 13)]
                  + [("C", r) for r in range(2, 13)]
                  + [("D", r) for r in range(2, 13)])


def test_01_cascade_tables_exact_and_fast():
    start = time.perf_counter()
    for series, rank in ORACLE_SYSTEMS:
        layers = build_root_system(series, rank).cascade
        assert (tuple(layer.beta for layer in layers)
                == closed_form_beta(series, rank)), (series, rank)
    assert time.perf_counter() - start < 10.0


def test_02_layer_lemmas_exhaustive():
    for series, rank in ORACLE_SYSTEMS:
        system = build_root_system(series, rank)
        # partition fill-out and the orthogonality characterization are
        # raised inside layer_partition; the pairing is checked here
        covered = set()
        for layer in system.cascade:
            for a in layer.members:
                image = sigma_r(layer, a)
                assert vadd(a, image) == layer.beta
            covered |= {layer.beta, *layer.members}
        assert covered == set(system.positives)


def test_03_setup_axioms_with_negative_control():
    cases = ([("A", r) for r in range(1, 8)]
             + [(s, r) for s in "BCD" for r in range(2, 6)])
    for series, rank in cases:
        alg = realize_split_nilradical(series, rank)
        assert verify_setup_axioms(alg).passed, (series, rank)
    assert not verify_setup_axioms(corrupted_fixture()).passed


def test_04_pfaffian_oracle_and_homogeneity():
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(1, 11))
        m = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Q(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                m[i][j], m[j][i] = v, -v
        assert pfaffian(m) ** 2 == determinant(m)
    t = Q(5, 3)
    for series, rank in (("A", 3), ("C", 2), ("B", 2), ("D", 4)):
        alg = realize_split_nilradical(series, rank)
        base = {r: Q(2 * r - 1, 2) for r in range(1, len(alg.layers) + 1)}
        scaled = {r: t * v for r, v in base.items()}
        d0 = plancherel_density(alg, alg.layers, base)
        d1 = plancherel_density(alg, alg.layers, scaled)
        for r, d in enumerate(d0.d_list, start=1):
            assert d1.pf[r] == t ** d * d0.pf[r]


LAMBDAS = (0.5, 1.0, 2.0, -1.5, 3.0)


def _packets(rng, D):
    u = GaussianState.packet(D, rng.normal(size=D) * 0.4,
                             rng.normal(size=D) * 0.4)
    v = GaussianState.packet(D, rng.normal(size=D) * 0.4,
                             rng.normal(size=D) * 0.4, 1.1)
    return u, v


def test_05_orthogonality_closed_and_grid():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3):
        for lam in LAMBDAS:
            rep = stepwise_rep(f"HEIS{d}", {1: lam})
            u, v = _packets(rng, d)
            report = coefficient_norm_sq(rep, u, v)
            ratio = report.value * rep.pf_abs / (u.norm_sq() * v.norm_sq())
            assert abs(ratio - 1.0) < 1e-6, (d, lam)
    for d, points in ((1, 256), (2, 64), (3, 24)):
        grid = Grid(d, points, 3.3)
        for lam in LAMBDAS:
            rep = stepwise_rep(f"HEIS{d}", {1: lam})
            u, v = _packets(rng, d)
            gu = GridState.from_gaussian(u, grid)
            gv = GridState.from_gaussian(v, grid)
            report = coefficient_norm_sq(rep, gu, gv)
            ratio = report.value * rep.pf_abs / (gu.norm_sq() * gv.norm_sq())
            assert abs(ratio - 1.0) < 1e-3, (d, lam)
    for name, gamma in (("A3", {1: 0.7, 2: 1.4}), ("C2", {1: -0.6, 2: 0.9}),
                        ("B2", {1: 1.1, 2: -0.8})):
        rep = stepwise_rep(name, gamma)
        u, v = _packets(rng, rep.D)
        report = coefficient_norm_sq(rep, u, v)
        ratio = report.value * rep.pf_abs / (u.norm_sq() * v.norm_sq())
        assert abs(ratio - 1.0) < 1e-3, name


def test_06_restriction_and_factor_transitivity():
    big = build_harness("A3")
    rep_big = stepwise_rep(big, {1: 0.9, 2: 1.7})
    rep_small = stepwise_rep(leading_subgroup(big, 1), {1: 0.9})
    scalar = GaussianState(np.zeros((0, 0)), np.zeros(0), 0.0)
    x = GaussianState.packet(2, [0.2, -0.3], [0.1, 0.4])
    report, factor = restrict_and_renormalize(rep_big, rep_small, scalar,
                                              scalar, x)
    assert report.pointwise_abs_err < 1e-8
    assert report.norm_ratio_rel_err < 1e-3
    assert abs(factor - 1.0 / 1.7) < 1e-12
    # exact factor transitivity along a three-stage chain
    chain = propagate(build_root_system("A", 1), 2)
    g1 = {1: Q(1)}
    g3 = {1: Q(1), 2: Q(3, 2)}
    g5 = {1: Q(1), 2: Q(3, 2), 3: Q(2, 5)}
    f_02 = restriction_projection_factor(chain, g1, g5, stages=(0, 2))
    f_01 = restriction_projection_factor(chain, g1, g3, stages=(0, 1))
    f_12 = restriction_projection_factor(chain, g3, g5, stages=(1, 2))
    assert f_02 == f_01 * f_12


def test_07_fourier_inversion_and_two_stage_limit():
    start = time.perf_counter()
    h = build_harness("HEIS1")
    f = TestFunction.standard(h)
    res = fourier_inversion(f, identity(h))
    assert abs(res.value - 1.0) < 1e-4
    rng = np.random.default_rng(31)
    for _ in range(10):
        res = fourier_inversion(f, random_element(h, rng, 1.0))
        assert res.rel_error < 1e-4
    assert time.perf_counter() - start < 120.0
    big = build_harness("A3")
    small = leading_subgroup(big, 1)
    f_big = TestFunction.standard(big)
    f_small = restrict_test_function(f_big, small)
    rep = limit_inversion_check(f_big, f_small,
                                element(small, [(0.4, [], [])]),
                                tolerance=1e-3)
    assert rep.coherent and rep.agree
    assert rep.stage_small.rel_error < 1e-3
    assert rep.stage_big.rel_error < 1e-3


def test_08_alignment_coherence_and_negative_control():
    starts = (("A", 1), ("A", 2), ("B", 3), ("B", 2), ("C", 2), ("D", 3),
              ("D", 2))
    for series, rank in starts:
        chain = propagate(build_root_system(series, rank), 3)
        assert len(chain.stages) >= 4
        assert check_well_aligned(chain).aligned, (series, rank)
        assert cascade_stability(chain).stable, (series, rank)
    big = build_harness("A3")
    small = leading_subgroup(big, 1)
    f_big = TestFunction.standard(big)
    bad = TestFunction.gaussian(small, [0.2], [0.0], 1.05)
    rep = limit_inversion_check(f_big, bad, element(small, [(0.3, [], [])]))
    assert not rep.coherent


def test_09_schwartz_decay_with_negative_control():
    rep = stepwise_rep("HEIS1", {1: 1.0})
    field = CoefficientField(rep, GaussianState.ground(1),
                             GaussianState.ground(1))

    def fn(mesh):
        flat = mesh.reshape(-1, 2)
        vals = [field.at_pq(pt[:1], pt[1:]) for pt in flat]
        return np.array(vals).reshape(mesh.shape[:-1])

    report = schwartz_decay_report(fn, 2, k_max=3)
    assert report.passed and report.sup_stable
    assert report.l1_cauchy_gap < 1e-6
    slow = schwartz_decay_report(
        lambda m: 1.0 / (1.0 + np.sum(m ** 2, axis=-1)), 2, k_max=3)
    assert not slow.passed


def test_10_full_run_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["all", "--seed", "777", "--out", a]) == 0
    assert run(["all", "--seed", "777", "--out", b]) == 0
    assert filecmp.cmp(a, b, shallow=False)
