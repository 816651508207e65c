"""Matrix-model nilradicals: grading, brackets, layers, and setup axioms."""

import os
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

import stepsq
from stepsq.nilalg import (
    NilpotentAlgebra,
    _validate_algebra,
    check_layers,
    corrupted_fixture,
    decompose,
    realize_split_nilradical,
    sparse_commutator,
    verify_setup_axioms,
)


def V(*xs):
    return tuple(Q(x) for x in xs)


def combine(*terms):
    """Sparse linear combination sum(c * x) of sparse matrices, zeros dropped."""
    out = {}
    for c, x in terms:
        for p, v in x.items():
            out[p] = out.get(p, 0) + c * v
    return {p: v for p, v in out.items() if v != 0}


def test_dimensions():
    assert len(realize_split_nilradical("A", 2).basis) == 3
    assert len(realize_split_nilradical("A", 3).basis) == 6
    assert len(realize_split_nilradical("C", 2).basis) == 4
    assert len(realize_split_nilradical("B", 3).basis) == 9
    assert len(realize_split_nilradical("D", 4).basis) == 12


def test_strictly_triangular_a():
    alg = realize_split_nilradical("A", 3)
    for x in alg.basis.values():
        assert x
        for (i, j), v in x.items():
            assert 0 <= i < j < alg.size and v != 0


def test_bracket_examples():
    alg = realize_split_nilradical("A", 3)
    a, b = V(1, -1, 0, 0), V(0, 1, 0, -1)
    coeffs = decompose(alg, sparse_commutator(alg.basis[a], alg.basis[b]))
    assert set(coeffs) == {V(1, 0, 0, -1)}
    assert coeffs[V(1, 0, 0, -1)] in (Q(1), Q(-1))
    x = alg.basis[a]
    assert sparse_commutator(x, x) == {}


def cartan_element(series, t):
    """Diagonal Cartan element with split parameters t, as a sparse map, and
    the root value alpha -> alpha(h), by the series' diagonal convention."""
    if series == "A":
        diag = t + [Q(0)]
    elif series == "C":
        diag = t + [-x for x in t]
    else:
        diag = t + [Q(0)] * (series == "B") + [-x for x in reversed(t)]
    h = {(r, r): x for r, x in enumerate(diag) if x != 0}
    tt = t + [Q(0)] if series == "A" else t
    return h, lambda alpha: sum(c * x for c, x in zip(alpha, tt))


def test_grading_random_cartan():
    rng = random.Random(3)
    for series, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4)):
        alg = realize_split_nilradical(series, rank)
        t = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rank)]
        h, root_value = cartan_element(series, t)
        for a, x in alg.basis.items():
            assert sparse_commutator(h, x) == combine((root_value(a), x))


def test_grading_rejects_a_misplaced_root_space():
    # E_21 is disjoint from every other root space of A3, but it carries
    # the weight e_2 - e_1, not e_1 - e_2
    alg = realize_split_nilradical("A", 3)
    basis = {**alg.basis, (1, -1, 0, 0): {(1, 0): 1}}
    bad = NilpotentAlgebra("A", 3, alg.system, basis, alg.size, alg.layers)
    with pytest.raises(AssertionError, match="grading fails at"):
        _validate_algebra(bad)


def test_jacobi_random_triples():
    rng = random.Random(11)
    for series, rank in (("A", 4), ("B", 3), ("C", 3), ("D", 4)):
        alg = realize_split_nilradical(series, rank)
        mats = list(alg.basis.values())
        for _ in range(100):
            def rand_elem():
                return combine(*((Q(rng.randint(-3, 3)), m)
                                 for m in rng.sample(mats, k=3)))
            x, y, z = rand_elem(), rand_elem(), rand_elem()
            jac = combine((1, sparse_commutator(x, sparse_commutator(y, z))),
                          (1, sparse_commutator(y, sparse_commutator(z, x))),
                          (1, sparse_commutator(z, sparse_commutator(x, y))))
            assert jac == {}


def test_layer_dims():
    layers = realize_split_nilradical("A", 3).layers
    assert 1 + 2 * layers[0].d_r == 1 + len(layers[0].members) == 1
    assert 1 + 2 * layers[1].d_r == 1 + len(layers[1].members) == 5
    for series in ("C", "B"):
        layers = realize_split_nilradical(series, 2).layers
        assert 1 + 2 * layers[1].d_r == 1 + len(layers[1].members) == 3


def test_decompose_roundtrip():
    alg = realize_split_nilradical("B", 3)
    roots = sorted(alg.basis, reverse=True)
    target = combine((Q(2, 3), alg.basis[roots[0]]), (Q(-5), alg.basis[roots[3]]))
    coeffs = decompose(alg, target)
    assert coeffs == {roots[0]: Q(2, 3), roots[3]: Q(-5)}
    assert all(type(c) is Q for c in coeffs.values())
    # integer entries decompose exactly, never into floats
    coeffs = decompose(alg, combine((3, alg.basis[roots[1]])))
    assert coeffs == {roots[1]: 3} and type(coeffs[roots[1]]) is Q
    # E_21 is strictly lower triangular, and half of a two-entry root
    # space matches no single basis element
    assert decompose(alg, {(1, 0): 1}) is None
    two = next(x for x in alg.basis.values() if len(x) == 2)
    assert decompose(alg, dict([next(iter(two.items()))])) is None


AXIOM_CASES = (
    [("A", r) for r in range(2, 8)]
    + [(s, r) for s in ("B", "C", "D") for r in range(2, 6) if not (s == "D" and r == 2)]
)


@pytest.mark.parametrize("series,rank", AXIOM_CASES)
def test_setup_axioms_pass(series, rank):
    report = verify_setup_axioms(realize_split_nilradical(series, rank))
    assert report.passed, [r for r in report.rows if not r["ok"]]


def test_corrupted_negative_control():
    bad = corrupted_fixture()
    assert bad.layers == realize_split_nilradical("A", 3).layers
    report = verify_setup_axioms(bad)
    assert not report.passed
    assert any(not r["ok"] for r in report.rows)
    with pytest.raises(AssertionError, match="escapes z_2"):
        check_layers(bad)


def test_symplectic_form_nondegenerate_on_layers():
    # the beta_r-coefficient pairing on v_r must pair each root with exactly
    # its sigma partner, nondegenerately
    for series, rank in (("A", 5), ("B", 4), ("C", 3), ("D", 4)):
        alg = realize_split_nilradical(series, rank)
        for layer in alg.layers:
            if layer.d_r == 0:
                continue
            roots = layer.members
            mat = [[0] * len(roots) for _ in roots]
            for i, a in enumerate(roots):
                for j, b in enumerate(roots):
                    z = sparse_commutator(alg.basis[a], alg.basis[b])
                    coeffs = decompose(alg, z)
                    mat[i][j] = coeffs.get(layer.beta, Q(0)) if coeffs else Q(0)
            for i, row in enumerate(mat):
                nz = [j for j, x in enumerate(row) if x != 0]
                assert len(nz) == 1, "each root pairs with exactly one partner"
                assert mat[nz[0]][i] == -row[nz[0]]


def test_overlapping_basis_positions_rejected():
    alg = realize_split_nilradical("A", 2)
    basis = dict(alg.basis)
    a, b = sorted(basis)[:2]
    basis[a] = basis[b]
    with pytest.raises(AssertionError, match="disjoint"):
        NilpotentAlgebra(alg.series, alg.rank, alg.system, basis, alg.size,
                         alg.layers)


def test_shape_errors():
    with pytest.raises(ValueError):
        realize_split_nilradical("E", 6)


OPTIMIZED_CHECKS = {
    "grading fails at": (
        "from stepsq.nilalg import NilpotentAlgebra, _validate_algebra, "
        "realize_split_nilradical\n"
        "alg = realize_split_nilradical('A', 3)\n"
        "basis = {**alg.basis, (1, -1, 0, 0): {(1, 0): 1}}\n"
        "_validate_algebra(NilpotentAlgebra('A', 3, alg.system, basis, "
        "alg.size, alg.layers))"),
    # in B2, flipping a sign of x_{e1+e2} makes [x_{e1-e2}, x_{e1+e2}] a
    # nonzero multiple of E_{1,5}, of weight 2e_1, which is not a root
    "should vanish": (
        "from stepsq.nilalg import NilpotentAlgebra, _validate_algebra, "
        "realize_split_nilradical\n"
        "alg = realize_split_nilradical('B', 2)\n"
        "basis = {**alg.basis, (1, 1): {(0, 3): 1, (1, 4): 1}}\n"
        "_validate_algebra(NilpotentAlgebra('B', 2, alg.system, basis, "
        "alg.size, alg.layers))"),
    "escapes z_2": (
        "from stepsq.nilalg import check_layers, corrupted_fixture\n"
        "check_layers(corrupted_fixture())"),
    "layer characterization failed at r=1": (
        "from stepsq.cascade import cascade_decomposition, layer_partition\n"
        "from stepsq.rootsys import build_root_system\n"
        "system = build_root_system('A', 3)\n"
        "layer_partition(system, tuple(reversed("
        "cascade_decomposition(system).beta)))"),
    "Pfaffian must square to the determinant": (
        "import stepsq.plancherel as p\n"
        "real = p._pf_eliminate\n"
        "p._pf_eliminate = lambda m: real(m) + 1\n"
        "p.pfaffian([[0, 1], [-1, 0]])"),
}


@pytest.mark.parametrize("message", sorted(OPTIMIZED_CHECKS))
def test_invariants_raise_under_python_O(message):
    # the invariant checks are raised errors, so -O must not strip them
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepsq.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS[message]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "AssertionError: " in proc.stderr and message in proc.stderr
