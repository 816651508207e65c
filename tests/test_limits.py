"""Chains of root systems: propagation, alignment, stability, factors."""

from fractions import Fraction as Q

import pytest

from stepsq.cascade import cascade_decomposition, closed_form_beta
from stepsq.limits import (
    FAMILIES,
    check_well_aligned,
    cascade_stability,
    exact_sqrt,
    family_of,
    propagate,
    restriction_projection_factor,
    stage_embedding,
)
from stepsq.rootsys import build_root_system

# one starting system per stable family
FAMILY_STARTS = {
    "A_odd": ("A", 1), "A_even": ("A", 2),
    "B_odd": ("B", 3), "B_even": ("B", 2),
    "C": ("C", 2),
    "D_odd": ("D", 3), "D_even": ("D", 2),
}


def test_family_labels():
    for fam, (series, rank) in FAMILY_STARTS.items():
        assert family_of(build_root_system(series, rank)) == fam
    assert set(FAMILY_STARTS) == set(FAMILIES)


def test_propagate_c_chain_ranks():
    chain = propagate(build_root_system("C", 2), 2)
    assert [s.rank for s in chain.stages] == [2, 3, 4]
    # the original simple roots stay fixed under the embeddings
    small = chain.stages[0]
    for i in small.simple_indices():
        assert (chain.embed(0, 2, small.simple_enumeration[i])
                == chain.stages[2].simple_enumeration[i])


def test_propagate_a_chain_symmetric_growth():
    chain = propagate(build_root_system("A", 1), 2)
    assert [s.rank for s in chain.stages] == [1, 3, 5]
    assert chain.stages[1].simple_indices() == [-1, 0, 1]
    assert chain.stages[2].simple_indices() == [-2, -1, 0, 1, 2]
    small = chain.stages[0]
    assert (chain.embed(0, 1, small.simple_enumeration[0])
            == chain.stages[1].simple_enumeration[0])


def test_embedded_roots_are_int_vectors():
    chain = propagate(build_root_system("C", 2), 2)
    images = [chain.embed(0, 2, a) for a in chain.stages[0].positives]
    assert all(type(x) is int for img in images for x in img)
    assert set(images) <= set(chain.stages[2].positives)


def test_embedding_functoriality():
    chain = propagate(build_root_system("C", 2), 3)
    direct = stage_embedding(chain.stages[0], chain.stages[3])
    for a in chain.stages[0].positives:
        assert chain.embed(0, 3, a) == direct.apply(a)


def test_embedding_preserves_positives():
    chain = propagate(build_root_system("B", 2), 1)
    big_pos = set(chain.stages[1].positives)
    for a in chain.stages[0].positives:
        assert chain.embeddings[0].apply(a) in big_pos


@pytest.mark.parametrize("fam", FAMILIES)
def test_chains_of_length_four_are_aligned_and_stable(fam):
    series, rank = FAMILY_STARTS[fam]
    chain = propagate(build_root_system(series, rank), 3)
    assert len(chain.stages) == 4
    assert check_well_aligned(chain).aligned
    assert cascade_stability(chain).stable


def test_mixed_chain_is_not_aligned():
    report = check_well_aligned([build_root_system("A", 3),
                                 build_root_system("B", 3)])
    assert not report.aligned
    assert report.rows[0]["same_family"] is False
    assert report.rows[0]["embedding_ok"] is False


def test_same_series_wrong_parity_is_not_aligned():
    report = check_well_aligned([build_root_system("A", 2),
                                 build_root_system("A", 3)])
    assert not report.aligned


def test_a_even_chain_aligned_through_rank_eight():
    # four stages of even-rank type A
    chain = propagate(build_root_system("A", 2), 3)
    assert [s.rank for s in chain.stages] == [2, 4, 6, 8]
    assert check_well_aligned(chain).aligned


def test_c_chain_beta_table_is_stage_independent():
    chain = propagate(build_root_system("C", 2), 2)
    tables = [closed_form_beta("C", s.rank) for s in chain.stages]
    for k, e in enumerate(chain.embeddings):
        small, big = tables[k], tables[k + 1]
        for r in range(len(small)):
            assert e.apply(small[r]) == big[r]


def test_a_chain_first_beta_fixed():
    chain = propagate(build_root_system("A", 1), 2)
    decomps = [cascade_decomposition(s) for s in chain.stages]
    for k in range(2):
        assert (chain.embeddings[k].apply(decomps[k].beta[0])
                == decomps[k + 1].beta[0])
        # beta_1 is the fixed central simple root at every stage
        assert decomps[k].beta[0] == chain.stages[k].simple_enumeration[0]


def test_layer_intersection_a1_in_a3():
    chain = propagate(build_root_system("A", 1), 1)
    small_d = cascade_decomposition(chain.stages[0])
    big_d = cascade_decomposition(chain.stages[1])
    e = chain.embeddings[0]
    embedded = {e.apply(a) for a in chain.stages[0].positives}
    assert {e.apply(a) for a in small_d.layers[1]} == set(big_d.layers[1]) & embedded
    report = cascade_stability(chain)
    assert report.stable and len(report.rows) == 1


def test_restriction_factor_a1_in_a3():
    chain = propagate(build_root_system("A", 1), 1)
    lam2 = Q(3, 2)
    rep = restriction_projection_factor(chain, {1: Q(1)}, {1: Q(1), 2: lam2})
    # the small stage is abelian (density 1); the big one contributes lam2^2
    assert rep.pf_small == 1
    assert rep.factor == 1 / lam2 ** 2
    assert rep.factor == 1 / rep.pf_big


def test_restriction_factor_unit_big_density():
    chain = propagate(build_root_system("A", 1), 1)
    rep = restriction_projection_factor(chain, {1: Q(2)}, {1: Q(2), 2: Q(1)})
    assert rep.factor == 1 / rep.pf_big == 1


def test_restriction_factor_idempotence():
    chain = propagate(build_root_system("C", 2), 0)
    g = {1: Q(1, 2), 2: Q(3)}
    rep = restriction_projection_factor(chain, g, g)
    assert rep.factor == 1


def test_restriction_factor_transitivity():
    chain = propagate(build_root_system("C", 2), 2)
    g2 = {1: Q(1), 2: Q(2)}
    g3 = {**g2, 3: Q(1, 2)}
    g4 = {**g3, 4: Q(3)}
    f_02 = restriction_projection_factor(chain, g2, g4, stages=(0, 2)).factor
    f_01 = restriction_projection_factor(chain, g2, g3, stages=(0, 1)).factor
    f_12 = restriction_projection_factor(chain, g3, g4, stages=(1, 2)).factor
    assert f_02 == f_01 * f_12


def test_restriction_factor_rejects_singular_and_incoherent():
    chain = propagate(build_root_system("A", 1), 1)
    with pytest.raises(ValueError):
        restriction_projection_factor(chain, {1: Q(1)}, {1: Q(1), 2: Q(0)})
    with pytest.raises(ValueError):
        restriction_projection_factor(chain, {1: Q(1)}, {1: Q(2), 2: Q(1)})
    with pytest.raises(ValueError):
        restriction_projection_factor(chain, {5: Q(1)}, {1: Q(1), 2: Q(1)})


def test_exact_sqrt():
    assert exact_sqrt(Q(49, 9)) == Q(7, 3)
    with pytest.raises(ValueError):
        exact_sqrt(Q(2))
    with pytest.raises(ValueError):
        exact_sqrt(Q(-4))


def test_direct_chain_embed_range_errors():
    chain = propagate(build_root_system("C", 2), 1)
    with pytest.raises(ValueError):
        chain.embed(1, 0, chain.stages[1].positives[0])
