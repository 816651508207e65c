"""End-to-end acceptance checks at the stated tolerances and rank bounds."""

import cmath
import filecmp
import math
import random
import time
from fractions import Fraction as Q

from stepsq.cascade import closed_form_beta, sigma_r
from stepsq.cli import run
from stepsq.harness import (build_harness, element, identity,
                            leading_subgroup, random_element)
from stepsq.inversion import (TestFunction, fourier_inversion,
                              limit_inversion_check, restrict_test_function)
from stepsq.limits import (cascade_stability, exact_sqrt, propagate,
                           restriction_projection_factor)
from stepsq.nilalg import (corrupted_fixture, realize_split_nilradical,
                           verify_setup_axioms)
from stepsq.plancherel import determinant, pfaffian, plancherel_density
from stepsq.rootsys import build_root_system, vadd
from stepsq.schrodinger import coefficient, coefficient_norm_sq, stepwise_rep
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
    rng = random.Random(12)
    for _ in range(500):
        n = rng.randint(1, 10)
        m = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Q(rng.randint(-9, 9), rng.randint(1, 9))
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
    def normal():
        return [rng.gauss(0.0, 0.4) for _ in range(D)]

    u = GaussianState.packet(D, normal(), normal())
    v = GaussianState.packet(D, normal(), normal(), 1.1)
    return u, v


def test_05_orthogonality_closed_and_grid():
    rng = random.Random(21)
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
    x = GaussianState.packet(2, [0.2, -0.3], [0.1, 0.4])
    # the small stage acts on a line: with unit states there, the restricted
    # coefficient's squared norm is the big coefficient norm of x, which the
    # closed norm integrates; the prediction reads only the densities
    measured = coefficient_norm_sq(rep_big, x, x).value
    predicted = x.norm_sq() ** 2 * rep_small.pf_abs / rep_big.pf_abs
    assert abs(measured - predicted) < 1e-3 * predicted
    factor = math.sqrt(rep_small.pf_abs / rep_big.pf_abs)
    assert abs(factor - 1.0 / 1.7) < 1e-12
    exact = restriction_projection_factor(
        propagate(build_root_system("A", 1), 1), {1: Q(9, 10)},
        {1: Q(9, 10), 2: Q(17, 10)})
    assert abs(factor - float(exact_sqrt(exact))) < 1e-12
    # exact factor transitivity along a three-stage chain
    chain = propagate(build_root_system("A", 1), 2)
    g1 = {1: Q(1)}
    g3 = {1: Q(1), 2: Q(3, 2)}
    g5 = {1: Q(1), 2: Q(3, 2), 3: Q(2, 5)}
    f_02 = restriction_projection_factor(chain, g1, g5)
    f_01 = restriction_projection_factor(propagate(chain.stages[0], 1), g1, g3)
    f_12 = restriction_projection_factor(propagate(chain.stages[1], 1), g3, g5)
    assert f_02 == f_01 * f_12


def test_07_fourier_inversion_and_two_stage_limit():
    start = time.perf_counter()
    h = build_harness("HEIS1")
    f = TestFunction.standard(h)
    res = fourier_inversion(f, identity(h))
    assert abs(res.value - 1.0) < 1e-4
    rng = random.Random(31)
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
        # propagate validates every consecutive embedding: aligned chains
        chain = propagate(build_root_system(series, rank), 3)
        assert len(chain.stages) >= 4
        assert cascade_stability(chain).stable, (series, rank)
    big = build_harness("A3")
    small = leading_subgroup(big, 1)
    f_big = TestFunction.standard(big)
    bad = TestFunction.gaussian(small, [0.2], [0.0], 1.05)
    rep = limit_inversion_check(f_big, bad, element(small, [(0.3, [], [])]))
    assert not rep.coherent


def test_09_schwartz_decay_with_negative_control():
    # <g0, pi(0, p, q) g0> for the ground state g0 on HEIS1 is
    # exp(-pi (lam^2 p^2 + q^2) / 2 + i pi lam p q), whose exponent has a
    # negative definite real part for lam != 0: a Schwartz function of (p, q)
    rng = random.Random(9)
    g0 = GaussianState.ground(1)
    for lam in (1.0, 0.5, 2.0, -1.3):
        rep = stepwise_rep("HEIS1", {1: lam})
        worst = conjugate = 0.0
        for _ in range(25):
            p, q = rng.uniform(-2, 2), rng.uniform(-2, 2)
            value = coefficient(rep, g0, g0,
                                element(rep.harness, [(0.0, [p], [q])]))
            decay = -0.5 * math.pi * (lam ** 2 * p ** 2 + q ** 2)
            closed = cmath.exp(decay + 1j * math.pi * lam * p * q)
            worst = max(worst, abs(value - closed) / abs(closed))
            # negative control: the conjugate phase is a wrong closed form
            conjugate = max(conjugate, abs(value - closed.conjugate())
                            / abs(closed))
        assert worst < 1e-12, lam
        assert conjugate > 0.5, lam


def test_10_full_run_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["all", "--seed", "777", "--out", a]) == 0
    assert run(["all", "--seed", "777", "--out", b]) == 0
    assert filecmp.cmp(a, b, shallow=False)
