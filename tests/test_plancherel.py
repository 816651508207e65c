"""Pfaffian oracle, layer densities, constants, and homogeneity."""

import itertools
import random
from fractions import Fraction as Q

import pytest

import stepsq.plancherel as plancherel
from stepsq.nilalg import realize_split_nilradical
from stepsq.plancherel import (
    b_lambda_matrix,
    determinant,
    pfaffian,
    pfaffian_expansion,
    plancherel_constant,
    plancherel_density,
)


def harness(series, rank):
    alg = realize_split_nilradical(series, rank)
    return alg, alg.layers


def test_pfaffian_2x2():
    a = Q(5, 3)
    assert pfaffian(((Q(0), a), (-a, Q(0)))) == a


def test_pfaffian_4x4_textbook():
    rng = random.Random(0)
    p = {(i, j): Q(rng.randint(-9, 9)) for i in range(4) for j in range(i + 1, 4)}
    m = [[Q(0)] * 4 for _ in range(4)]
    for (i, j), v in p.items():
        m[i][j], m[j][i] = v, -v
    expected = p[(0, 1)] * p[(2, 3)] - p[(0, 2)] * p[(1, 3)] + p[(0, 3)] * p[(1, 2)]
    assert pfaffian(m) == expected


def test_pfaffian_conventions():
    assert pfaffian(()) == Q(1)
    assert pfaffian(((Q(0),),)) == Q(0)  # odd dimension
    assert pfaffian_expansion(()) == Q(1)
    assert pfaffian_expansion(((Q(0),),)) == Q(0)
    with pytest.raises(ValueError):
        pfaffian(((Q(0), Q(1)), (Q(1), Q(0))))


def random_skew(rng, n):
    m = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Q(rng.randint(-20, 20), rng.randint(1, 5))
            m[i][j], m[j][i] = v, -v
    return tuple(tuple(row) for row in m)


def test_pfaffian_squares_to_det_500_random():
    rng = random.Random(20240817)
    for _ in range(500):
        n = rng.randint(1, 10)
        m = random_skew(rng, n)
        pf = pfaffian(m)  # Pf^2 = det asserted internally on every call
        assert pf * pf == determinant(m)


def pf_first_row(m, active):
    """Reference Pfaffian: expansion along the first active row.

    Fixes the sign, which the Pf^2 = det check inside pfaffian cannot.
    """
    if not active:
        return Q(1)
    i, rest = active[0], active[1:]
    total = Q(0)
    for pos, j in enumerate(rest):
        if m[i][j] != 0:
            total += (-1) ** pos * m[i][j] * pf_first_row(m, rest[:pos] + rest[pos + 1:])
    return total


def test_elimination_matches_recursion():
    rng = random.Random(5)
    for n in (2, 4, 6, 8, 10):
        m = random_skew(rng, n)
        assert pfaffian(m) == pf_first_row(m, list(range(n))) == pfaffian_expansion(m)
    # zero pivots force the elimination to swap rows and columns
    m = [[Q(0)] * 6 for _ in range(6)]
    for i, j, v in ((0, 3, 2), (1, 2, Q(-1, 3)), (4, 5, 5), (0, 4, 1), (1, 5, 7)):
        m[i][j], m[j][i] = Q(v), -Q(v)
    assert pfaffian(m) == pf_first_row(m, list(range(6))) == pfaffian_expansion(m) != 0


def leibniz(m):
    """Reference determinant: the sum over permutations, signed by parity."""
    n = len(m)
    total = Q(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Q((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_determinant_matches_leibniz():
    rng = random.Random(11)
    for n in range(8):
        for _ in range(3 if n < 7 else 1):
            m = [[Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                 for _ in range(n)]
            assert determinant(m) == leibniz(m)
    # singular: a repeated row, and a rank-one matrix
    m = [[Q(1, 2), 3, Q(-2, 7)], [4, 5, 6], [Q(1, 2), 3, Q(-2, 7)]]
    assert determinant(m) == leibniz(m) == 0
    u, v = [1, Q(2, 3), -5, 7], [Q(3, 4), 1, 0, -2]
    assert determinant([[a * b for b in v] for a in u]) == 0
    # zero pivots force row swaps at steps 0 and 1
    m = [[0, 2, 1, 0, 3], [0, 0, 0, Q(5, 3), 1], [4, 1, 0, 2, 0],
         [0, 0, 7, 1, Q(-1, 2)], [1, 0, 0, 0, 2]]
    assert determinant(m) == leibniz(m) != 0
    # integer entries in, an exact Fraction out
    assert type(determinant([[2, 1], [1, 1]])) is Q
    assert determinant([]) == 1


@pytest.mark.parametrize("m", [[[1, 2]], [[1], [2]], [[1, 2], [3]]])
def test_determinant_rejects_non_square(m):
    with pytest.raises(ValueError, match="matrix must be square"):
        determinant(m)


def test_pfaffian_large_coprime_denominators_mixed_entries():
    rng = random.Random(3)
    primes = (999983, 1000003, 1000033, 1000037, 1000039, 7919, 104729)
    for n in (2, 4, 6, 8):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    v = rng.randint(-9, 9)  # a plain int
                else:
                    v = Q(rng.randint(-10 ** 6, 10 ** 6), rng.choice(primes))
                m[i][j], m[j][i] = v, -v
        pf = pfaffian(m)
        assert type(pf) is Q
        assert pf == pf_first_row(m, list(range(n))) == pfaffian_expansion(m)
        assert pf * pf == determinant(m)


def test_wrong_pfaffian_kernel_fails_the_det_check(monkeypatch):
    real = plancherel._pf_eliminate
    monkeypatch.setattr(plancherel, "_pf_eliminate", lambda m: real(m) + 1)
    with pytest.raises(AssertionError, match="Pfaffian must square to the determinant"):
        pfaffian(random_skew(random.Random(4), 6))


def test_b_lambda_heisenberg():
    alg, layers = harness("A", 2)
    top = layers[-1]
    assert top.d_r == 1
    t = Q(3)
    m = b_lambda_matrix(alg, top, t)
    assert m[0][1] in (t, -t) and m[1][0] == -m[0][1]
    assert b_lambda_matrix(alg, top, Q(0)) == ((Q(0), Q(0)), (Q(0), Q(0)))


def test_b_lambda_entries_exact():
    # integer basis entries must not turn the pairing into floats
    for series, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4)):
        alg, layers = harness(series, rank)
        for layer in layers:
            for lam in (3, Q(5, 7)):
                for row in b_lambda_matrix(alg, layer, lam):
                    assert all(type(x) is Q for x in row)


def test_b_lambda_a3_layer2_pairings():
    alg, layers = harness("A", 3)
    m = b_lambda_matrix(alg, layers[1], Q(1))
    nonzero_pairs = sum(1 for i in range(4) for j in range(i + 1, 4) if m[i][j] != 0)
    assert nonzero_pairs == 2


def test_plancherel_density_heisenberg():
    alg, layers = harness("A", 2)
    r = layers[-1].r
    assert r == 1  # the Heisenberg nilradical is a single layer
    for t in (Q(1), Q(2), Q(-3, 2)):
        data = plancherel_density(alg, layers, {r: t})
        assert abs(data.product) == abs(t)
        assert plancherel_constant(data.d_list) == 2
        assert data.in_t_star
    assert not plancherel_density(alg, layers, {r: Q(0)}).in_t_star


def test_plancherel_density_a3():
    alg, layers = harness("A", 3)
    lam1, lam2 = Q(7), Q(3)
    data = plancherel_density(alg, layers, {1: lam1, 2: lam2})
    assert abs(data.product) == lam2 ** 2  # lambda_1 does not enter (d_1 = 0)
    assert plancherel_constant(data.d_list) == 8
    assert data.d_list == (0, 2)
    assert data.in_t_star
    assert not plancherel_density(alg, layers, {1: lam1, 2: Q(0)}).in_t_star


def test_plancherel_constant():
    assert plancherel_constant([1]) == 2
    assert plancherel_constant([0, 2]) == 8
    assert plancherel_constant([0, 1]) == 2
    assert plancherel_constant([]) == 1


@pytest.mark.parametrize("series,rank", [("A", 5), ("B", 4), ("C", 4), ("D", 4), ("B", 5)])
def test_homogeneity_degree_per_layer(series, rank):
    alg, layers = harness(series, rank)
    rng = random.Random(9)
    for layer in layers:
        lam = Q(rng.randint(1, 7), rng.randint(1, 4))
        s = Q(rng.randint(2, 6), rng.randint(1, 3))
        base = pfaffian(b_lambda_matrix(alg, layer, lam)) if layer.d_r else Q(1)
        scaled = pfaffian(b_lambda_matrix(alg, layer, s * lam)) if layer.d_r else Q(1)
        assert scaled == s ** layer.d_r * base
        if layer.d_r:
            assert base != 0, "beta-dual functional must be nondegenerate"


def test_t_star_scale_invariance():
    alg, layers = harness("C", 3)
    gamma = {1: Q(1), 2: Q(2), 3: Q(-1, 3)}
    base = plancherel_density(alg, layers, gamma)
    for s in (Q(2), Q(-5, 7)):
        scaled = plancherel_density(alg, layers, {r: s * v for r, v in gamma.items()})
        assert scaled.in_t_star == base.in_t_star
