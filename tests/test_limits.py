"""Chains of root systems: propagation, alignment, stability, factors."""

from fractions import Fraction as Q

import pytest

from stepsq.cascade import closed_form_beta
from stepsq.limits import (
    StageEmbedding,
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


def compose(chain, v):
    """Image of a first-stage vector at the last stage of chain."""
    for e in chain.embeddings:
        v = e.apply(v)
    return v


def test_family_labels():
    for fam, (series, rank) in FAMILY_STARTS.items():
        assert family_of(build_root_system(series, rank)) == fam


def test_propagate_c_chain_ranks():
    chain = propagate(build_root_system("C", 2), 2)
    assert [s.rank for s in chain.stages] == [2, 3, 4]
    # the original simple roots stay fixed under the embeddings
    small = chain.stages[0]
    for i in small.simple_indices():
        assert (compose(chain, small.simple_enumeration[i])
                == chain.stages[2].simple_enumeration[i])


def test_propagate_a_chain_symmetric_growth():
    chain = propagate(build_root_system("A", 1), 2)
    assert [s.rank for s in chain.stages] == [1, 3, 5]
    assert chain.stages[1].simple_indices() == [-1, 0, 1]
    assert chain.stages[2].simple_indices() == [-2, -1, 0, 1, 2]
    small = chain.stages[0]
    assert (chain.embeddings[0].apply(small.simple_enumeration[0])
            == chain.stages[1].simple_enumeration[0])


def test_embedded_roots_are_int_vectors():
    chain = propagate(build_root_system("C", 2), 2)
    images = [compose(chain, a) for a in chain.stages[0].positives]
    assert all(type(x) is int for img in images for x in img)
    assert set(images) <= set(chain.stages[2].positives)


def test_embedding_functoriality():
    chain = propagate(build_root_system("C", 2), 3)
    direct = stage_embedding(chain.stages[0], chain.stages[3])
    for a in chain.stages[0].positives:
        assert compose(chain, a) == direct.apply(a)


def test_embedding_preserves_positives():
    chain = propagate(build_root_system("B", 2), 1)
    big_pos = set(chain.stages[1].positives)
    for a in chain.stages[0].positives:
        assert chain.embeddings[0].apply(a) in big_pos


@pytest.mark.parametrize("fam", list(FAMILY_STARTS))
def test_chains_of_length_four_are_aligned_and_stable(fam):
    series, rank = FAMILY_STARTS[fam]
    chain = propagate(build_root_system(series, rank), 3)
    assert len(chain.stages) == 4  # propagate validated every pair
    assert cascade_stability(chain).stable


def test_mixed_chain_is_not_aligned():
    with pytest.raises(ValueError, match="different stable families"):
        stage_embedding(build_root_system("A", 3), build_root_system("B", 3))


def test_same_series_wrong_parity_is_not_aligned():
    with pytest.raises(ValueError, match="different stable families"):
        stage_embedding(build_root_system("A", 2), build_root_system("A", 3))


def test_a_even_chain_aligned_through_rank_eight():
    # four stages of even-rank type A
    chain = propagate(build_root_system("A", 2), 3)
    assert [s.rank for s in chain.stages] == [2, 4, 6, 8]
    big_pos = set(chain.stages[-1].positives)
    assert all(compose(chain, a) in big_pos for a in chain.stages[0].positives)


def test_c_chain_beta_table_is_stage_independent():
    chain = propagate(build_root_system("C", 2), 2)
    tables = [closed_form_beta("C", s.rank) for s in chain.stages]
    for k, e in enumerate(chain.embeddings):
        small, big = tables[k], tables[k + 1]
        for r in range(len(small)):
            assert e.apply(small[r]) == big[r]


def test_a_chain_first_beta_fixed():
    chain = propagate(build_root_system("A", 1), 2)
    beta_1 = [s.cascade[0].beta for s in chain.stages]
    for k in range(2):
        assert chain.embeddings[k].apply(beta_1[k]) == beta_1[k + 1]
        # beta_1 is the fixed central simple root at every stage
        assert beta_1[k] == chain.stages[k].simple_enumeration[0]


def test_layer_intersection_a1_in_a3():
    chain = propagate(build_root_system("A", 1), 1)
    small, big = chain.stages[0].cascade[0], chain.stages[1].cascade[0]
    e = chain.embeddings[0]
    embedded = {e.apply(a) for a in chain.stages[0].positives}
    assert {e.apply(a) for a in small.members} == set(big.members) & embedded
    report = cascade_stability(chain)
    assert report.stable and len(report.rows) == 1


def test_restriction_factor_a1_in_a3():
    chain = propagate(build_root_system("A", 1), 1)
    lam2 = Q(3, 2)
    factor = restriction_projection_factor(chain, {1: Q(1)}, {1: Q(1), 2: lam2})
    # the small stage is abelian (density 1); the big one contributes lam2^2
    assert factor == 1 / lam2 ** 2


def test_restriction_factor_unit_big_density():
    chain = propagate(build_root_system("A", 1), 1)
    factor = restriction_projection_factor(chain, {1: Q(2)}, {1: Q(2), 2: Q(1)})
    assert factor == 1  # 1 / lam2^2 at lam2 = 1


def test_restriction_factor_idempotence():
    chain = propagate(build_root_system("C", 2), 0)
    g = {1: Q(1, 2), 2: Q(3)}
    assert restriction_projection_factor(chain, g, g) == 1


def test_restriction_factor_transitivity():
    chain = propagate(build_root_system("C", 2), 2)
    g2 = {1: Q(1), 2: Q(2)}
    g3 = {**g2, 3: Q(1, 2)}
    g4 = {**g3, 4: Q(3)}
    f_02 = restriction_projection_factor(chain, g2, g4)
    f_01 = restriction_projection_factor(propagate(chain.stages[0], 1), g2, g3)
    f_12 = restriction_projection_factor(propagate(chain.stages[1], 1), g3, g4)
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


def test_one_padding_mutant_fails_both_checks(monkeypatch):
    # StageEmbedding.apply is the one padding: a mutant that puts all of it
    # on one side must fail the stability rows and the embedding's checks
    a_chain = propagate(build_root_system("A", 1), 1)
    monkeypatch.setattr(StageEmbedding, "apply", lambda self, v: (
        (0,) * (self.left + self.right) + tuple(v)))
    assert not cascade_stability(a_chain).stable
    with pytest.raises(ValueError, match="simple root 0 is not preserved"):
        stage_embedding(build_root_system("A", 1), build_root_system("A", 3))
    monkeypatch.setattr(StageEmbedding, "apply", lambda self, v: (
        tuple(v) + (0,) * (self.left + self.right)))
    with pytest.raises(ValueError, match="simple root 1 is not preserved"):
        stage_embedding(build_root_system("C", 2), build_root_system("C", 3))
