"""Matrix harness groups and the layered exponential coordinates."""

from fractions import Fraction as Q

import numpy as np
import pytest

from stepsq.harness import (
    HARNESS_NAMES,
    adjoint_action_on_top,
    build_harness,
    element,
    exact_density,
    expm_nilpotent,
    from_matrix,
    identity,
    inverse,
    leading_subgroup,
    logm_unipotent,
    multiply,
    random_element,
)
from stepsq.inversion import orbit
from stepsq.nilalg import realize_split_nilradical


def test_exp_log_inverse_pair():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = np.triu(rng.normal(size=(4, 4)), 1)
        M = expm_nilpotent(w)
        assert np.allclose(logm_unipotent(M), w)
        assert np.allclose(M @ expm_nilpotent(-w), np.eye(4))


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_coordinate_round_trip(name):
    h = build_harness(name)
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_element(h, rng, 2.0)
        back = from_matrix(h, g.to_matrix())
        for (z1, p1, q1), (z2, p2, q2) in zip(g.coords, back.coords):
            assert abs(z1 - z2) < 1e-9
            assert np.allclose(p1, p2) and np.allclose(q1, q2)


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_multiplication_matches_matrices(name):
    h = build_harness(name)
    rng = np.random.default_rng(2)
    for _ in range(10):
        g1, g2 = random_element(h, rng), random_element(h, rng)
        assert np.allclose(multiply(g1, g2).to_matrix(),
                           g1.to_matrix() @ g2.to_matrix())
    g = random_element(h, rng)
    assert np.allclose(multiply(g, inverse(g)).to_matrix(), np.eye(h.size),
                       atol=1e-9)
    assert np.allclose(identity(h).to_matrix(), np.eye(h.size))


def test_heisenberg_central_commutator():
    # [exp(p a), exp(q b)] = exp((p.q) z) in the Heisenberg group
    h = build_harness("HEIS2")
    p, q = np.array([0.7, -0.3]), np.array([0.4, 1.1])
    ga = element(h, [(0.0, p, np.zeros(2))])
    gb = element(h, [(0.0, np.zeros(2), q)])
    comm = multiply(multiply(ga, gb), multiply(inverse(ga), inverse(gb)))
    zeta, pp, qq = comm.coords[0]
    assert abs(zeta - p @ q) < 1e-12
    assert np.allclose(pp, 0) and np.allclose(qq, 0)


def test_layer_shapes():
    expected = {"HEIS1": [1], "HEIS2": [2], "HEIS3": [3],
                "A3": [0, 2], "C2": [0, 1], "B2": [0, 1], "C3": [0, 1, 2],
                "A1": [0]}
    for name, dims in expected.items():
        h = build_harness(name)
        assert [layer.d for layer in h.layers] == dims


def test_pairing_matrices():
    assert np.allclose(build_harness("HEIS3").top.C, np.eye(3))
    assert np.allclose(build_harness("A3").top.C, np.eye(2))
    assert np.allclose(build_harness("C2").top.C, [[-2.0]])
    assert np.allclose(build_harness("B2").top.C, [[-1.0]])


def test_a_side_is_lexicographically_greater():
    h = build_harness("A3")
    # a-directions sit strictly above the b-directions in the matrix model
    a_positions = sorted(tuple(np.argwhere(m)[0]) for m in h.top.a)
    b_positions = sorted(tuple(np.argwhere(m)[0]) for m in h.top.b)
    assert a_positions == [(0, 1), (0, 2)]
    assert b_positions == [(1, 3), (2, 3)]


def test_a1_is_leading_subgroup_of_a3():
    # the A1 split model is a line; in A3 it is the subgroup of the first
    # layer, cut from the A3 harness and sharing its model
    a1, big = build_harness("A1"), build_harness("A3")
    assert (a1.series, a1.rank, a1.size) == ("A", 1, 2)
    small = leading_subgroup(big, 1)
    assert [layer.d for layer in small.layers] == [layer.d for layer in a1.layers]
    assert small.model is big.model and (small.series, small.rank) == ("A", 3)
    assert small.size == big.size
    assert small.layers == big.layers[:1] and small.keys == big.keys[:1]
    assert leading_subgroup(big, 2).layers == big.layers
    for k in (0, 3):
        with pytest.raises(ValueError):
            leading_subgroup(big, k)


@pytest.mark.parametrize("name", ["A3", "C2", "B2"])
def test_adjoint_action_stays_in_top_layer(name):
    h = build_harness(name)
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_element(h, rng)
        zvec, A, B = adjoint_action_on_top(h, g.to_matrix())
        assert abs(abs(np.linalg.det(B)) - 1.0) < 1e-9
    # the earlier (line) layer alone
    zeta = 0.9
    l1 = element(h, [(zeta, [], []), (0.0, np.zeros(h.top.d), np.zeros(h.top.d))])
    zvec, A, B = adjoint_action_on_top(h, l1.to_matrix())
    if name == "A3":
        # the top center is central in the whole group only for A-type here
        assert not np.allclose(B, np.eye(h.top.d))  # conjugation acts
        assert np.allclose(A, 0) and np.allclose(zvec, 0)
    else:
        # C2/B2: conjugation pushes b into the a-direction
        assert not np.allclose(A, 0)


def test_read_coords_rejects_outside_elements():
    h = build_harness("HEIS1")
    w = np.zeros((3, 3))
    w[1, 1] = 1.0  # diagonal: not in the nilpotent algebra
    with pytest.raises(AssertionError):
        h.read_coords(w)


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
    assert len(h.keys) == len(set(h.keys)) == len(h.matrices) == h.dim
    for key, mat in zip(h.keys, h.matrices):
        dense = np.zeros((alg.size, alg.size))
        for (i, j), v in alg.basis[key].items():
            dense[i, j] = v
        assert np.array_equal(mat, dense), (name, key)
    for layer in h.layers:
        assert np.array_equal(layer.z, h.matrices[h.keys.index(layer.keys[0])])


def test_heisenberg_keys_in_heisenberg_order():
    h = build_harness("HEIS2")
    e = np.eye(4, dtype=int)
    assert h.keys == tuple(tuple(int(x) for x in e[i] - e[j]) for i, j in
                           [(0, 3), (0, 1), (0, 2), (1, 3), (2, 3)])


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


def test_read_coords_in_basis_order():
    h = build_harness("C2")
    c = np.arange(1.0, h.dim + 1)
    w = sum(x * mat for x, mat in zip(c, h.matrices))
    assert np.array_equal(h.read_coords(w), c)
    # C2: a line layer, then beta_2 with one a- and one b-root
    assert h.starts == (0, 1)
    zeta, p, q = h.part(c, 1)
    assert (zeta, list(p), list(q)) == (2.0, [3.0], [4.0])
