"""Exact root-system construction, enumeration, and orthogonality tests."""

from fractions import Fraction as Q

import pytest

from stepsq import rootsys
from stepsq.rootsys import (
    build_root_system,
    cartan_matrix,
    inner,
    simple_coordinates_all,
    strongly_orthogonal,
)


def V(*xs):
    return tuple(Q(x) for x in xs)


def test_a3_counts():
    s = build_root_system("A", 3)
    assert len(s.roots) == 12
    assert len(s.positives) == 6


def test_classical_positive_counts():
    # |Delta+| = l(l+1)/2 (A), l^2 (B, C), l(l-1) (D)
    for rank in range(2, 7):
        assert len(build_root_system("A", rank).positives) == rank * (rank + 1) // 2
        assert len(build_root_system("B", rank).positives) == rank * rank
        assert len(build_root_system("C", rank).positives) == rank * rank
        assert len(build_root_system("D", rank).positives) == rank * (rank - 1)


def test_c2_enumeration():
    s = build_root_system("C", 2)
    assert set(s.positives) == {V(2, 0), V(0, 2), V(1, 1), V(1, -1)}
    assert s.simple_enumeration[1] == V(0, 2)
    assert s.simple_enumeration[2] == V(1, -1)


def test_b2_enumeration():
    s = build_root_system("B", 2)
    assert s.simple_enumeration[1] == V(0, 1)
    assert s.simple_enumeration[2] == V(1, -1)


def test_a_series_center_out_indices():
    odd = build_root_system("A", 3)
    assert sorted(odd.simple_enumeration) == [-1, 0, 1]
    assert odd.simple_enumeration[0] == V(0, 1, -1, 0)
    even = build_root_system("A", 4)
    assert sorted(even.simple_enumeration) == [-2, -1, 1, 2]
    assert even.simple_enumeration[-1] == V(0, 1, -1, 0, 0)
    assert even.simple_enumeration[1] == V(0, 0, 1, -1, 0)


def test_bond_end_first_adjacency():
    # psi_1 sits at the multiple bond (or fork) end; indices increase leftward.
    for series in ("B", "C", "D"):
        s = build_root_system(series, 5)
        idx = s.simple_indices()
        simples = [s.simple_enumeration[i] for i in idx]
        # consecutive enumerated simples are adjacent in the diagram
        start = 2 if series == "D" else 1
        for a, b in zip(simples[start - 1:], simples[start:]):
            assert inner(a, b) != 0


def test_cartan_matrix_bond_multiplicities():
    c = cartan_matrix(build_root_system("C", 3))
    # C-diagram: psi_1 long end; <psi_2, psi_1^vee> = -1, <psi_1, psi_2^vee> = -2
    assert c[1][0] == Q(-1)
    assert c[0][1] == Q(-2)
    b = cartan_matrix(build_root_system("B", 3))
    assert b[1][0] == Q(-2)
    assert b[0][1] == Q(-1)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_root_system("E", 8)
    with pytest.raises(ValueError):
        build_root_system("D", 1)


def test_nonmultipliable_identity_on_reduced():
    # the classical systems are reduced: every root a is nonmultipliable,
    # that is, 2a is not a root
    for series, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4)):
        s = build_root_system(series, rank)
        assert not any(tuple(2 * x for x in a) in s.roots for a in s.roots)


def test_strongly_orthogonal_examples():
    s = build_root_system("A", 3)
    a, b = V(1, 0, 0, -1), V(0, 1, -1, 0)
    assert strongly_orthogonal(s, a, b)
    assert inner(a, b) == 0
    assert not strongly_orthogonal(s, a, a)
    assert not strongly_orthogonal(s, V(1, -1, 0, 0), V(0, 1, -1, 0))


def test_strong_orthogonality_implies_orthogonality_rank8():
    for series, rank in (("A", 8), ("B", 8), ("C", 8), ("D", 8)):
        s = build_root_system(series, rank)
        pos = s.positives
        for i, a in enumerate(pos):
            for b in pos[i + 1:]:
                if strongly_orthogonal(s, a, b):
                    assert inner(a, b) == 0


def test_is_root_and_inner_exact():
    s = build_root_system("B", 3)
    assert V(1, 0, 0) in s.roots
    assert V(2, 0, 0) not in s.roots
    assert inner(V(Q(1, 2), Q(1, 3)), V(Q(2), Q(3))) == Q(2)
    with pytest.raises(ValueError):
        inner(V(1), V(1, 2))


def test_invariants_reject_a_negated_positive_root():
    # negating the highest root keeps the positive/negative split and the
    # simple roots intact; only the simple-coordinate check can catch it
    s = build_root_system("A", 3)
    top = V(1, 0, 0, -1)
    assert top in s.positives and top not in s.simple_enumeration.values()
    bad = tuple(tuple(-x for x in a) if a == top else a for a in s.positives)
    bad_system = rootsys.RootSystem("A", 3, s.roots, bad, s.simple_enumeration)
    rootsys._check_invariants(s)
    with pytest.raises(AssertionError):
        rootsys._check_invariants(bad_system)


def test_simple_coordinates_exact_on_integer_roots():
    c = build_root_system("C", 3)
    assert all(type(x) is int for a in c.positives for x in a)
    simples = [c.simple_enumeration[i] for i in c.simple_indices()]
    # e_3 = 1/2 * (2 e_3), the long simple root psi_1
    [coeffs] = simple_coordinates_all([(0, 0, 1)], simples)
    assert coeffs == [Q(1, 2), 0, 0]
    assert all(type(x) is Q for x in coeffs)
    a = build_root_system("A", 3)
    a_simples = [a.simple_enumeration[i] for i in a.simple_indices()]
    assert simple_coordinates_all([(1, 0, 0, 0)], a_simples) == [None]
    # the one-target form is the batch solve of one target
    assert rootsys.simple_coordinates((0, 0, 1), simples) == coeffs
    assert rootsys.simple_coordinates((1, 0, 0, 0), a_simples) is None


# the exact-table oracle range of the acceptance tests
ORACLE_SYSTEMS = ([("A", r) for r in range(1, 14)]
                  + [(s, r) for s in "BCD" for r in range(2, 13)])


@pytest.mark.parametrize("series,rank", ORACLE_SYSTEMS)
def test_coords_match_the_fraction_solve(series, rank):
    # what _check_invariants certifies by descending simple-root steps, that
    # every positive root is a nonnegative integer combination of the simple
    # roots, against the general Gauss-Jordan solve over the rationals
    s = build_root_system(series, rank)
    simples = [s.simple_enumeration[i] for i in s.simple_indices()]
    solved = simple_coordinates_all(s.positives, simples)
    assert len(solved) == len(s.positives)
    for coeffs in solved:
        assert coeffs is not None
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
