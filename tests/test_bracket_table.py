"""The bracket table of a split model against dense integer matrices and
against the all-pairs build, and the number of commutators one model costs."""

from itertools import combinations

import numpy as np
import pytest

import stepsq.nilalg as nilalg
from stepsq.nilalg import realize_split_nilradical, verify_setup_axioms
from stepsq.plancherel import plancherel_density
from stepsq.rootsys import vadd

SYSTEMS = ([("A", r) for r in range(1, 9)]
           + [(s, r) for s in "BC" for r in range(2, 9)]
           + [("D", r) for r in range(3, 9)])


def dense(alg, entries):
    m = np.zeros((alg.size, alg.size), dtype=np.int64)
    for (i, j), v in entries.items():
        m[i, j] = v
    return m


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_table_matches_dense_commutators(series, rank):
    alg = realize_split_nilradical(series, rank)
    roots = list(alg.basis)
    mats = np.stack([dense(alg, alg.basis[a]) for a in roots])
    flat = mats.reshape(len(roots), -1).T  # column g is the matrix of roots[g]
    comm = (np.einsum("aij,bjk->abik", mats, mats)
            - np.einsum("bij,ajk->abik", mats, mats))
    rhs = comm.reshape(len(roots) ** 2, -1).T
    coeffs = np.rint(np.linalg.lstsq(flat, rhs, rcond=None)[0]).astype(np.int64)
    in_span = (flat @ coeffs == rhs).all(axis=0)
    positives = set(alg.system.positives)
    # the table holds exactly the nonzero brackets
    assert len(alg.brackets) == rhs.any(axis=0).sum()
    for ia, a in enumerate(roots):
        for ib, b in enumerate(roots):
            k = ia * len(roots) + ib
            assert in_span[k], (a, b)
            expected = {roots[g]: int(c) for g, c in enumerate(coeffs[:, k]) if c}
            got = alg.brackets.get((a, b), {})
            assert got == expected, (a, b)
            s = vadd(a, b)
            assert set(got) == ({s} if s in positives else set()), (a, b)


def shares_index(x, y):
    """Whether x y or y x can be nonzero: an entry of one has its column
    equal to the row of an entry of the other."""
    return any(j == k or l == i for i, j in x for k, l in y)


def all_pairs_brackets(alg):
    """The table built from one commutator per unordered pair of distinct
    roots, in basis order: the oracle of the entry-index build."""
    table = {}
    items = list(alg.basis.items())
    for n, (a, x) in enumerate(items):
        for b, y in items[n + 1:]:
            coeffs = nilalg.decompose(alg, nilalg.sparse_commutator(x, y))
            assert coeffs is not None, (a, b)
            if coeffs:
                table[(a, b)] = coeffs
                table[(b, a)] = {c: -v for c, v in coeffs.items()}
    return table


@pytest.mark.parametrize("series,rank",
                         [("A", r) for r in range(1, 12)]
                         + [(s, r) for s in "BCD" for r in range(2, 9)])
def test_table_matches_all_pairs_build_in_order(series, rank):
    alg = realize_split_nilradical(series, rank)
    # the table holds the all-pairs entries, in the all-pairs order
    assert list(alg.brackets.items()) == list(all_pairs_brackets(alg).items())
    # in basis order the left factor of a nonzero product comes first; the
    # reversed basis finds every pair from the other side of the index
    rev = nilalg.NilpotentAlgebra(series, rank, alg.system,
                                  dict(reversed(alg.basis.items())),
                                  alg.size, alg.layers)
    assert list(rev.brackets.items()) == list(all_pairs_brackets(rev).items())


def test_one_commutator_per_pair_sharing_an_index(monkeypatch):
    calls = []
    real = nilalg.sparse_commutator

    def counted(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(nilalg, "sparse_commutator", counted)
    alg = realize_split_nilradical("C", 4)
    assert verify_setup_axioms(alg).passed
    plancherel_density(alg, alg.layers, {layer.r: 1 for layer in alg.layers})
    expected = sum(shares_index(x, y)
                   for x, y in combinations(alg.basis.values(), 2))
    n = len(alg.basis)
    assert len(calls) == expected < n * (n - 1) // 2
