"""Matrix harness groups and the layered exponential coordinates."""

import random
import time
from fractions import Fraction as Q

import numpy as np
import pytest
from scipy.linalg import expm

from stepsq.cascade import Layer
from stepsq.harness import (
    _cut,
    build_harness,
    element,
    embed_leading,
    exact_density,
    expm_nilpotent,
    from_matrix,
    identity,
    leading_subgroup,
    multiply,
    orbit,
    random_element,
)
from stepsq.inversion import TestFunction, restrict_test_function
from stepsq.nilalg import realize_split_nilradical
from stepsq.schrodinger import stepwise_rep
from stepsq.states import GaussianState

# the named harnesses: the six that `orthogonality` offers, then C3 and A1
HARNESS_NAMES = ("HEIS1", "HEIS2", "HEIS3", "A3", "C2", "B2", "C3", "A1")


def test_exp_log_inverse_pair():
    rng = random.Random(0)
    for h in (build_harness("A3"), build_harness("B2")):
        for _ in range(10):
            c = np.array([rng.gauss(0.0, 1.0) for _ in range(h.dim)])
            M = h.exp(c)
            assert np.allclose(M, expm(h.lie(c)))
            assert np.allclose(h.log(M), c)
            assert np.allclose(M @ h.exp(-c), np.eye(h.size))


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_coordinate_round_trip(name):
    h = build_harness(name)
    rng = random.Random(1)
    for _ in range(10):
        g = random_element(h, rng, 2.0)
        back = from_matrix(h, g.to_matrix())
        assert back.coords.shape == (h.dim,)
        assert np.allclose(back.coords, g.coords, rtol=0, atol=1e-9)


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_multiplication_matches_matrices(name):
    h = build_harness(name)
    rng = random.Random(2)
    for _ in range(10):
        g1, g2 = random_element(h, rng), random_element(h, rng)
        assert np.allclose(multiply(g1, g2).to_matrix(),
                           g1.to_matrix() @ g2.to_matrix())
    g = random_element(h, rng)
    g_inv = from_matrix(h, np.linalg.inv(g.to_matrix()))
    assert np.allclose(multiply(g, g_inv).to_matrix(), np.eye(h.size),
                       atol=1e-9)
    assert np.allclose(identity(h).to_matrix(), np.eye(h.size))


def test_heisenberg_central_commutator():
    # [exp(p a), exp(q b)] = exp((p.q) z) in the Heisenberg group
    h = build_harness("HEIS2")
    p, q = np.array([0.7, -0.3]), np.array([0.4, 1.1])
    ga = element(h, [(0.0, p, np.zeros(2))])
    gb = element(h, [(0.0, np.zeros(2), q)])
    ga_inv, gb_inv = (from_matrix(h, np.linalg.inv(g.to_matrix()))
                      for g in (ga, gb))
    comm = multiply(multiply(ga, gb), multiply(ga_inv, gb_inv))
    zeta, pp, qq = h.part(comm.coords, 0)
    assert abs(zeta - p @ q) < 1e-12
    assert np.allclose(pp, 0) and np.allclose(qq, 0)


def test_layer_shapes():
    expected = {"HEIS1": [1], "HEIS2": [2], "HEIS3": [3],
                "A3": [0, 2], "C2": [0, 1], "B2": [0, 1], "C3": [0, 1, 2],
                "A1": [0]}
    for name, dims in expected.items():
        h = build_harness(name)
        assert [layer.d_r for layer in h.layers] == dims


def test_pairing_matrices():
    assert np.allclose(build_harness("HEIS3").top.C, np.eye(3))
    assert np.allclose(build_harness("A3").top.C, np.eye(2))
    assert np.allclose(build_harness("C2").top.C, [[-2.0]])
    assert np.allclose(build_harness("B2").top.C, [[-1.0]])


def test_a_side_is_lexicographically_greater():
    h = build_harness("A3")
    # a-directions sit strictly above the b-directions in the matrix model
    d = h.top.d_r
    a_positions = sorted(pos for key in h.top.keys[1:1 + d]
                         for pos in h.model.basis[key])
    b_positions = sorted(pos for key in h.top.keys[1 + d:]
                         for pos in h.model.basis[key])
    assert a_positions == [(0, 1), (0, 2)]
    assert b_positions == [(1, 3), (2, 3)]


def test_a1_is_leading_subgroup_of_a3():
    # the A1 split model is a line; in A3 it is the subgroup of the first
    # layer, cut from the A3 harness and sharing its model
    a1, big = build_harness("A1"), build_harness("A3")
    assert (a1.series, a1.rank, a1.size) == ("A", 1, 2)
    small = leading_subgroup(big, 1)
    assert [layer.d_r for layer in small.layers] == [layer.d_r for layer in a1.layers]
    assert small.model is big.model and (small.series, small.rank) == ("A", 3)
    assert small.size == big.size
    assert small.layers == big.layers[:1] and small.keys == big.keys[:1]
    assert leading_subgroup(big, 2).layers == big.layers
    for k in (0, 3):
        with pytest.raises(ValueError):
            leading_subgroup(big, k)


def _top_b_columns(h, coords):
    """(zvec, A, B) of Ad(g) on the top-layer b-coordinates, checked to stay
    exactly in the top layer."""
    b0 = h.starts[-1] + 1 + h.top.d_r
    cols = h.adjoint(coords)[:, b0:]
    assert not cols[:h.starts[-1]].any()
    return h.part(cols, -1)


@pytest.mark.parametrize("name", ["A3", "C2", "B2"])
def test_adjoint_action_stays_in_top_layer(name):
    h = build_harness(name)
    rng = random.Random(3)
    for _ in range(5):
        zvec, A, B = _top_b_columns(h, random_element(h, rng).coords)
        assert abs(abs(np.linalg.det(B)) - 1.0) < 1e-9
    # the earlier (line) layer alone, as in Ad(g^-1) for g = exp(zeta z_1)
    zeta = 0.9
    l1 = element(h, [(-zeta, [], []), (0.0, np.zeros(h.top.d_r), np.zeros(h.top.d_r))])
    zvec, A, B = _top_b_columns(h, l1.coords)
    if name == "A3":
        # the top center is central in the whole group only for A-type here
        assert not np.allclose(B, np.eye(h.top.d_r))  # conjugation acts
        assert not A.any() and not zvec.any()
    else:
        # C2/B2: conjugation pushes b into the a-direction
        assert not np.allclose(A, 0)


def bracket_table_adjoint(h, coords):
    """Reference Ad from the model's bracket table alone, not the matrix
    model: the product of exp(ad Y) over the factors Y of the layered
    product, with column j of ad Y the coordinates of [Y, X_j]."""
    index = {key: n for n, key in enumerate(h.keys)}
    i, j, k, v = np.array([
        (index[a], index[b], index[c], v)
        for (a, b), coeffs in h.model.brackets.items()
        if a in index and b in index for c, v in coeffs.items()],
        dtype=float).reshape(-1, 4).T
    i, j, k = i.astype(int), j.astype(int), k.astype(int)
    cuts = [s + off for s, layer in zip(h.starts, h.layers)
            for off in (0, 1, 1 + layer.d_r)] + [h.dim]
    out = np.eye(h.dim)
    for lo, hi in zip(cuts, cuts[1:]):
        ad, factor = np.zeros((h.dim, h.dim)), (lo <= i) & (i < hi)
        np.add.at(ad, (k[factor], j[factor]), coords[i[factor]] * v[factor])
        out = out @ expm_nilpotent(ad)
    return out


@pytest.mark.parametrize("name", HARNESS_NAMES + ("A5", "C4", "B3", "D4",
                                                  "C8", "A15", "C16"))
def test_adjoint_matches_matrix_conjugation(name):
    # Ad(g) by conjugation in the matrix model agrees with the bracket-table
    # exponential, and is exactly 0 just where the table gives exactly 0
    h = build_harness(name)
    rng = random.Random(4)
    for _ in range(3):
        coords = random_element(h, rng).coords
        want, got = bracket_table_adjoint(h, coords), h.adjoint(coords)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got == 0, want == 0)


@pytest.mark.parametrize("name", ["A3", "C2", "B2", "A5", "C4"])
def test_adjoint_columns_are_the_columns_of_the_whole_adjoint(name):
    # asking for some columns conjugates only their basis matrices, and
    # gives the same floats as reading them off the whole Ad(g)
    h = build_harness(name)
    rng = random.Random(12)
    top_b = slice(h.dim - h.top.d_r, h.dim)
    for _ in range(3):
        coords = random_element(h, rng).coords
        whole = h.adjoint(coords)
        picked = sorted(rng.sample(range(h.dim), 3))
        for cols in (top_b, picked, [h.dim - 1]):
            assert np.array_equal(h.adjoint(coords, cols), whole[:, cols])


@pytest.mark.parametrize("name", ["C32", "A63"])
def test_adjoint_at_depth(name):
    # a cold build and one Ad(g), on 1024 and 2016 coordinates
    start = time.perf_counter()
    h = build_harness(name)
    rng = random.Random(9)
    g1, g2 = random_element(h, rng), random_element(h, rng)
    ad1 = h.adjoint(g1.coords)
    assert time.perf_counter() - start < 10.0
    # Ad(g) X_a - X_a lies in root spaces above a, which are lexicographically
    # greater, so in increasing root order Ad(g) is unitriangular and
    # det Ad(g) = 1 exactly
    order = sorted(range(h.dim), key=h.keys.__getitem__)
    ordered = ad1[np.ix_(order, order)]
    assert np.array_equal(np.diag(ordered), np.ones(h.dim))
    assert not np.triu(ordered, 1).any()
    if name == "C32":
        want = ad1 @ h.adjoint(g2.coords)
        got = h.adjoint(multiply(g1, g2).coords)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_adjoint_is_a_homomorphism(name):
    h = build_harness(name)
    rng = random.Random(6)
    for _ in range(5):
        g1, g2 = random_element(h, rng), random_element(h, rng)
        assert np.allclose(h.adjoint(multiply(g1, g2).coords),
                           h.adjoint(g1.coords) @ h.adjoint(g2.coords),
                           rtol=0, atol=1e-12)


def test_pairing_and_adjoint_read_the_bracket_table():
    # HEIS1 is cut from A2: z = e1 - e3, a = e1 - e2, b = e2 - e3, and
    # [x_a, x_b] = +x_z; C2's top layer has [x_a, x_b] = -2 x_z
    alg = realize_split_nilradical("A", 2)
    z, a, b = (1, 0, -1), (1, -1, 0), (0, 1, -1)
    heis = _cut("HEIS1", alg, alg.layers[-1:])
    assert heis.keys == (z, a, b) and alg.brackets[(a, b)] == {z: 1}
    assert heis.top.C.tolist() == [[1.0]]
    c2 = build_harness("C2")
    z, a, b = c2.top.keys
    assert c2.model.brackets[(a, b)] == {z: -2}
    assert c2.top.C.tolist() == [[-2.0]]
    # e1 - e2 and e3 - e4 sum to no root of A3, so their bracket vanishes
    # and the table has no entry for it
    a3 = realize_split_nilradical("A", 3)
    flat = Layer(1, (1, -1, 1, -1), ((1, -1, 0, 0), (0, 0, 1, -1)))
    assert flat.members not in a3.brackets
    with pytest.raises(AssertionError, match="nondegenerate"):
        _cut("flat", a3, [flat])
    # the simple lines e1 - e2 and e2 - e3 of A3 span no subalgebra:
    # [x_{e1-e2}, x_{e2-e3}] = x_{e1-e3}
    lines = [Layer(1, (1, -1, 0, 0), ()), Layer(2, (0, 1, -1, 0), ())]
    with pytest.raises(AssertionError, match="bracket outside the harness"):
        _cut("bad", a3, lines)


def test_log_rejects_outside_elements():
    h = build_harness("HEIS1")
    M = np.eye(3)
    M[1, 1] = 2.0  # diagonal: not in the unipotent group
    with pytest.raises(AssertionError, match="outside the harness algebra"):
        h.log(M)


def test_log_rejects_a_broken_support_or_an_entry_off_all():
    # B2's basis matrices each span two signed entries
    h = build_harness("B2")
    c = np.arange(1.0, h.dim + 1)
    w = h.lie(c)
    assert np.allclose(h.log(expm_nilpotent(w)), c, rtol=0, atol=1e-12)
    rows, cols = np.nonzero(h.lie(np.eye(h.dim)[-1]))
    skewed = w.copy()
    skewed[rows[0], cols[0]] *= 1.5  # the two ratios of one support disagree
    covered = sum(np.abs(h.lie(e)) for e in np.eye(h.dim)) > 0
    above = w.copy()
    above[tuple(np.argwhere(np.triu(~covered, 1))[0])] = 0.3  # no support covers it
    below = w.copy()
    below[h.size - 1, 0] = 0.3  # below the diagonal: no support covers it
    # the first two are nilpotent, so log returns them
    for M in (expm_nilpotent(skewed), expm_nilpotent(above), np.eye(h.size) + below):
        with pytest.raises(AssertionError, match="outside the harness algebra"):
            h.log(M)


def test_unknown_harness():
    for bad in ("E8", "HEIS9", "A", "A3x", "C1"):
        with pytest.raises(ValueError):
            build_harness(bad)


MODELS = {"HEIS1": ("A", 2), "HEIS2": ("A", 3), "HEIS3": ("A", 4),
          "A3": ("A", 3), "C2": ("C", 2), "B2": ("B", 2), "C3": ("C", 3),
          "A1": ("A", 1)}


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_matrices_are_the_model_root_spaces(name):
    # every coordinate matrix is the root space its key names in the split
    # model the harness is cut from; HEIS_d is cut from A_{d+1}
    h = build_harness(name)
    assert (h.series, h.rank) == MODELS[name]
    alg = realize_split_nilradical(h.series, h.rank)
    assert len(h.keys) == len(set(h.keys)) == h.dim
    for key, e in zip(h.keys, np.eye(h.dim)):
        dense = np.zeros((alg.size, alg.size))
        for (i, j), v in alg.basis[key].items():
            dense[i, j] = v
        assert np.array_equal(h.lie(e), dense), (name, key)


def test_heisenberg_keys_in_model_order():
    # HEIS_d is A_{d+1}'s top layer, cut by the rule of every harness:
    # beta = e_1 - e_{d+2}, a_i = e_1 - e_{d+2-i}, b_i = e_{d+2-i} - e_{d+2}
    for d in (1, 2, 3):
        h = build_harness(f"HEIS{d}")
        n = d + 2
        e = np.eye(n, dtype=int)
        pairs = ([(0, n - 1)] + [(0, n - 1 - i) for i in range(1, d + 1)]
                 + [(n - 1 - i, n - 1) for i in range(1, d + 1)])
        assert h.keys == tuple(tuple(int(x) for x in e[i] - e[j])
                               for i, j in pairs)
        top = realize_split_nilradical("A", d + 1).layers[-1]
        assert h.keys[0] == top.beta and set(h.keys[1:]) == set(top.members)
        assert h.top.r == 1 and np.array_equal(h.top.C, np.eye(d))
    assert build_harness("HEIS2").keys == build_harness("A3").keys[1:]


@pytest.mark.parametrize("name,gamma,missing,unexpected", [
    ("HEIS1", {0: 1.0}, [1], [0]),
    ("HEIS1", {}, [1], []),
    ("A3", {1: 1.0}, [2], []),
    ("A3", {1: 1.0, 2: 1.0, 3: 1.0}, [], [3]),
    ("C2", {2: 1.0, 3: 1.0}, [1], [3]),
])
def test_orbit_names_the_missing_and_unexpected_keys(name, gamma, missing,
                                                     unexpected):
    # layers are keyed from r = 1; a count of the values does not say which
    # key is wrong
    with pytest.raises(ValueError) as err:
        orbit(name, gamma)
    assert (f"missing keys {missing}, unexpected keys {unexpected}"
            in str(err.value))


@pytest.mark.parametrize("name", HARNESS_NAMES + ("A5", "C4"))
def test_orbit_density_matches_the_exact_layer(name):
    # the float |Pf| of an orbit reads the harness pairings C; the exact one
    # is the Pfaffian of the model layers that the harness keys name
    h = build_harness(name)
    gamma = {layer.r: Q(2 * layer.r + 1, 3) * (-1) ** layer.r for layer in h.layers}
    exact = exact_density(h, gamma)
    measured = orbit(h, {r: float(v) for r, v in gamma.items()}).pf_abs
    assert exact > 0
    assert abs(measured - float(exact)) <= 1e-12 * float(exact)


def test_log_reads_coordinates_in_basis_order():
    h = build_harness("C2")
    c = np.arange(1.0, h.dim + 1)
    assert np.allclose(h.log(h.exp(c)), c, rtol=0, atol=1e-12)
    # C2: a line layer, then beta_2 with one a- and one b-root
    assert h.starts == (0, 1)
    zeta, p, q = h.part(c, 1)
    assert (zeta, list(p), list(q)) == (2.0, [3.0], [4.0])


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_random_element_draws_the_per_layer_stream(name):
    # the coordinates are the uniform draws of one seeded random.Random,
    # layer by layer the centre, the d a-coordinates, then the d
    # b-coordinates: the stream of every numeric report
    h = build_harness(name)
    for seed in (0, 7):
        g = random_element(h, random.Random(seed), 1.5)
        rng = random.Random(seed)
        per_layer = [(rng.uniform(-1.5, 1.5),
                      [rng.uniform(-1.5, 1.5) for _ in range(layer.d_r)],
                      [rng.uniform(-1.5, 1.5) for _ in range(layer.d_r)])
                     for layer in h.layers]
        assert g.coords.shape == (h.dim,)
        assert np.array_equal(g.coords, element(h, per_layer).coords)


def test_element_coords_are_one_basis_order_vector():
    h = build_harness("C2")
    g = element(h, [(0.5, [], []), (1.0, [2.0], [3.0])])
    assert np.array_equal(g.coords, [0.5, 1.0, 2.0, 3.0])
    assert np.array_equal(identity(h).coords, np.zeros(h.dim))
    with pytest.raises(ValueError):
        element(h, [(0.5, [], [])])


def test_embed_leading_pads_its_own_subgroup_and_rejects_others():
    big = build_harness("A3")
    g = element(leading_subgroup(big, 1), [(0.6, [], [])])
    assert np.array_equal(embed_leading(big, g).coords,
                          [0.6, 0.0, 0.0, 0.0, 0.0, 0.0])
    foreign = element(leading_subgroup(build_harness("C2"), 1), [(0.6, [], [])])
    with pytest.raises(ValueError, match="not a leading-layer subgroup"):
        embed_leading(big, foreign)


def test_multiply_compares_factors_by_root_keys():
    rng = random.Random(5)
    g1 = random_element(build_harness("A3"), rng)
    g2 = random_element(build_harness("A3"), rng)
    assert g1.harness is not g2.harness
    assert np.allclose(multiply(g1, g2).to_matrix(),
                       g1.to_matrix() @ g2.to_matrix())
    with pytest.raises(ValueError, match="do not multiply"):
        multiply(g1, random_element(build_harness("C2"), rng))
    with pytest.raises(ValueError, match="do not multiply"):
        multiply(g1, random_element(leading_subgroup(g1.harness, 1), rng))


@pytest.mark.parametrize("big,other", [("D4", "B4"), ("B2", "A1")])
def test_equal_keys_of_another_model_are_rejected(big, other):
    # D4[:1] and B4[:1], and B2[:1] and A1, have equal root keys but are
    # cut from different split models, so no site may take one for the other
    h = build_harness(big)
    own = leading_subgroup(h, 1)
    foreign = leading_subgroup(build_harness(other), 1)
    assert foreign.keys == own.keys and foreign.series != own.series
    rng = random.Random(8)
    g = random_element(foreign, rng)
    multiply(random_element(own, rng), random_element(own, rng))
    with pytest.raises(ValueError, match="do not multiply"):
        multiply(random_element(own, rng), g)
    scalar = GaussianState(np.zeros((0, 0)), np.zeros(0), 0.0)
    with pytest.raises(ValueError, match="does not act"):
        stepwise_rep(own, {1: 1.0}).apply(g, scalar)
    embed_leading(h, random_element(own, rng))
    with pytest.raises(ValueError, match="not a leading-layer subgroup"):
        embed_leading(h, g)
    f = TestFunction.standard(h)
    restrict_test_function(f, own)
    with pytest.raises(ValueError, match="not cut from the model"):
        restrict_test_function(f, foreign)
