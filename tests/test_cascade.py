"""Cascade construction, layer partition, sigma pairing, and closed-form oracle."""

import itertools
from fractions import Fraction as Q

import pytest

from stepsq import rootsys
from stepsq.cascade import Layer, closed_form_beta, kostant_cascade, sigma_r
from stepsq.rootsys import (RootSystem, build_root_system, vadd, vneg, vscale,
                            strongly_orthogonal)


def V(*xs):
    return tuple(Q(x) for x in xs)


def brute_force_greedy(system):
    """Independent oracle: exhaustive greedy maxima over strongly orthogonal chains."""
    chain = []
    candidates = list(system.positives)
    while candidates:
        # an element is maximal if no other candidate exceeds it coordinatewise
        # in every simple-height sense; use direct root-sum reachability instead:
        maxima = [a for a in candidates
                  if not any(vadd(a, c) in candidates for c in system.positives)]
        chain.append(max(maxima))
        chain_set = chain[-1]
        candidates = [a for a in candidates if strongly_orthogonal(system, a, chain_set)]
    return tuple(chain)


def test_cascade_a3():
    s = build_root_system("A", 3)
    assert kostant_cascade(s) == (V(1, 0, 0, -1), V(0, 1, -1, 0))


def test_cascade_c2():
    s = build_root_system("C", 2)
    assert kostant_cascade(s) == (V(2, 0), V(0, 2))


def test_cascade_a1_singleton():
    s = build_root_system("A", 1)
    assert kostant_cascade(s) == (V(1, -1),)


def test_cascade_brute_force_agreement():
    for series, rank in (("A", 3), ("A", 4), ("B", 3), ("C", 3), ("B", 2)):
        s = build_root_system(series, rank)
        assert kostant_cascade(s) == brute_force_greedy(s)


def test_layer_partition_a3():
    layers = build_root_system("A", 3).cascade
    assert [layer.r for layer in layers] == [1, 2]
    assert set(layers[1].members) == {V(1, -1, 0, 0), V(1, 0, -1, 0),
                                      V(0, 1, 0, -1), V(0, 0, 1, -1)}
    assert layers[0].members == ()


def test_layer_partition_c2_b2():
    lc = build_root_system("C", 2).cascade
    assert set(lc[1].members) == {V(1, -1), V(1, 1)}
    assert lc[0].members == ()
    lb = build_root_system("B", 2).cascade
    assert set(lb[1].members) == {V(1, 0), V(0, 1)}
    assert lb[0].members == ()


def test_sigma_r_a3():
    layers = build_root_system("A", 3).cascade
    img = sigma_r(layers[1], V(1, -1, 0, 0))
    assert img == V(0, 1, 0, -1)
    assert vadd(V(1, -1, 0, 0), img) == layers[1].beta
    with pytest.raises(ValueError, match="is not in layer 1"):
        sigma_r(layers[0], V(1, -1, 0, 0))


def test_sigma_involution_and_pairing():
    for series, rank in (("A", 5), ("B", 4), ("C", 4), ("D", 4), ("B", 5), ("D", 5)):
        system = build_root_system(series, rank)
        for layer in system.cascade:
            for a in layer.members:
                img = sigma_r(layer, a)
                assert sigma_r(layer, img) == a
                assert vadd(a, img) == layer.beta
            # sums of two layer roots that are roots equal beta_r
            for a, b in itertools.combinations(layer.members, 2):
                if vadd(a, b) in system.roots:
                    assert vadd(a, b) == layer.beta


def test_sigma_images_are_int_vectors():
    for series, rank in (("B", 4), ("D", 5)):
        images = [sigma_r(layer, a)
                  for layer in build_root_system(series, rank).cascade
                  for a in layer.members]
        assert images
        assert all(type(x) is int for img in images for x in img)


def test_sigma_rejects_a_non_integral_cartan_integer():
    # with beta_2 = 2 e1 of C2 doubled, 2(alpha, beta)/(beta, beta) = 8/16
    # for alpha = e1 +- e2, which is not an integer
    layer = build_root_system("C", 2).cascade[1]
    bad = Layer(layer.r, vscale(2, layer.beta), layer.members)
    with pytest.raises(AssertionError, match="not integral"):
        sigma_r(bad, layer.members[0])


def test_closed_form_examples():
    s3 = build_root_system("C", 3)
    p = s3.simple_enumeration
    assert closed_form_beta("C", 3) == (
        p[1],
        vadd(p[1], vadd(p[2], p[2])),
        tuple(a + 2 * b + 2 * c for a, b, c in zip(p[1], p[2], p[3])),
    )
    b2 = build_root_system("B", 2)
    q = b2.simple_enumeration
    assert closed_form_beta("B", 2) == (q[2], vadd(vadd(q[1], q[1]), q[2]))
    a3 = build_root_system("A", 3)
    r = a3.simple_enumeration
    assert closed_form_beta("A", 3) == (r[0], vadd(vadd(r[-1], r[0]), r[1]))


ORACLE_FAMILIES = (
    [("A", 2 * n + 1) for n in range(0, 7)]
    + [("A", 2 * n) for n in range(1, 7)]
    + [("B", l) for l in range(2, 13)]
    + [("C", l) for l in range(2, 13)]
    + [("D", l) for l in range(3, 13)]
)


@pytest.mark.parametrize("series,rank", ORACLE_FAMILIES)
def test_cascade_matches_closed_form(series, rank):
    s = build_root_system(series, rank)
    computed = tuple(reversed(kostant_cascade(s)))
    assert computed == closed_form_beta(series, rank)
    assert tuple(layer.beta for layer in s.cascade) == computed


@pytest.mark.parametrize("series,rank", ORACLE_FAMILIES)
def test_layer_lemmas_exhaustive(series, rank):
    s = build_root_system(series, rank)
    layers = s.cascade
    assert [layer.r for layer in layers] == list(range(1, len(layers) + 1))
    # partition count
    assert len(s.positives) == len(layers) + sum(len(l.members) for l in layers)
    # every positive root is assigned exactly once
    assigned = [a for layer in layers for a in (layer.beta, *layer.members)]
    assert sorted(assigned) == sorted(s.positives)
    for layer in layers:
        # each beta_r is nonmultipliable
        assert tuple(2 * x for x in layer.beta) not in s.roots
        # pairing lemma, exhaustively
        for a in layer.members:
            assert vadd(a, sigma_r(layer, a)) == layer.beta


def test_cascade_rejects_non_integral_simple_coordinates():
    # the base check behind the lexicographic cascade: with doubled simple
    # roots the coordinates are half-integral, with a negated one they are
    # negative, and with one removed some positive root is out of reach
    s = build_root_system("A", 3)
    simple = s.simple_enumeration

    def system(enumeration):
        return RootSystem(s.series, s.rank, s.roots, s.positives, enumeration)

    rootsys._check_invariants(system(simple))
    doubled = {i: vscale(2, a) for i, a in simple.items()}
    negated = {i: vneg(a) if i == 0 else a for i, a in simple.items()}
    removed = {i: a for i, a in simple.items() if i != 0}
    for enumeration, match in ((doubled, "lexicographically positive"),
                               (negated, "lexicographically positive"),
                               (removed, "not integral")):
        with pytest.raises(AssertionError, match=match):
            rootsys._check_invariants(system(enumeration))
    # swapping two coordinates keeps a valid base whose root order the
    # lexicographic order no longer follows: (-1, 1, 0, 0) is simple
    def swap(a):
        return (a[1], a[0]) + a[2:]

    swapped = RootSystem(s.series, s.rank, frozenset(map(swap, s.roots)),
                         tuple(map(swap, s.positives)),
                         {i: swap(a) for i, a in simple.items()})
    with pytest.raises(AssertionError, match="lexicographically positive"):
        rootsys._check_invariants(swapped)


# beyond the rank 13 / 12 oracle range, both parities where the closed form
# branches on them
LARGE_RANKS = [("A", 31), ("A", 32), ("B", 20), ("B", 21), ("C", 32),
               ("D", 31), ("D", 32)]


@pytest.mark.parametrize("series,rank", LARGE_RANKS)
def test_large_rank_cascade_and_pairing(series, rank):
    layers = build_root_system(series, rank).cascade
    assert tuple(layer.beta for layer in layers) == closed_form_beta(series, rank)
    for layer in layers:
        for a in layer.members:
            assert vadd(a, sigma_r(layer, a)) == layer.beta
