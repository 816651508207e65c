"""Matrix-model nilradicals: grading, brackets, layers, and setup axioms."""

import os
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

import stepsq
from stepsq.cascade import Layer
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
    # integer entries decompose into ints, never into floats
    coeffs = decompose(alg, combine((3, alg.basis[roots[1]])))
    assert coeffs == {roots[1]: 3} and type(coeffs[roots[1]]) is int
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


def all_pairs_axiom_rows(alg):
    """The axiom rows from a table lookup for every pair of layer roots:
    the oracle of the one walk over the table's entries."""
    rows = []
    layers = alg.layers
    m = len(layers)
    table = alg.brackets

    def supp_ok(a, b, allowed):
        return table.get((a, b), {}).keys() <= allowed

    def layer_roots(layer):
        return [layer.beta, *layer.members]

    for r in range(m):
        for s in range(r + 1, m):
            ok = all(supp_ok(x, layers[s].beta, frozenset())
                     for x in layer_roots(layers[r]))
            rows.append({"axiom": "commute_with_later_centers",
                         "r": r + 1, "s": s + 1, "ok": ok})
            v_s = frozenset(layers[s].members)
            ok2 = all(supp_ok(x, y, v_s)
                      for x in layer_roots(layers[r])
                      for y in layer_roots(layers[s]))
            rows.append({"axiom": "bracket_into_later_symplectic_part",
                         "r": r + 1, "s": s + 1, "ok": ok2})
    all_roots = [a for layer in layers for a in layer_roots(layer)]
    for r in range(m - 1):
        tail = frozenset(a for layer in layers[r + 1:] for a in layer_roots(layer))
        ok = all(supp_ok(x, y, tail) for x in all_roots for y in tail)
        rows.append({"axiom": "tail_is_ideal", "r": r + 2, "s": m, "ok": ok})
    return rows


@pytest.mark.parametrize("model",
                         [("A", r) for r in range(1, 12)]
                         + [(s, r) for s in "BCD" for r in range(2, 9)]
                         + ["corrupted"])
def test_setup_axioms_match_all_pairs_oracle(model):
    alg = (corrupted_fixture() if model == "corrupted"
           else realize_split_nilradical(*model))
    assert list(verify_setup_axioms(alg).rows) == all_pairs_axiom_rows(alg)


def with_entry(alg, pair, coeffs):
    """A copy of alg whose bracket table carries one more entry."""
    copy = NilpotentAlgebra(alg.series, alg.rank, alg.system, alg.basis,
                            alg.size, alg.layers)
    copy.__dict__["brackets"] = {**alg.brackets, pair: coeffs}
    return copy


def failing_rows(alg):
    rows = verify_setup_axioms(alg).rows
    assert list(rows) == all_pairs_axiom_rows(alg)
    return [(row["axiom"], row["r"], row["s"]) for row in rows if not row["ok"]]


def test_commute_with_later_centers_negative_control():
    # in A5, l_3 has a symplectic part; a member of l_2 that brackets with
    # beta_3 into v_3 breaks (i) at (2, 3) and nothing else
    alg = realize_split_nilradical("A", 5)
    l2, l3 = alg.layers[1], alg.layers[2]
    assert failing_rows(alg) == []
    bad = with_entry(alg, (l2.members[0], l3.beta), {l3.members[0]: Q(1)})
    assert failing_rows(bad) == [("commute_with_later_centers", 2, 3)]


def test_bracket_into_later_symplectic_part_negative_control():
    # beta_1 bracketing a member of v_3 into z_3 breaks (ii) at (1, 3) only
    alg = realize_split_nilradical("A", 5)
    l1, l3 = alg.layers[0], alg.layers[2]
    bad = with_entry(alg, (l1.beta, l3.members[0]), {l3.beta: Q(1)})
    assert failing_rows(bad) == [("bracket_into_later_symplectic_part", 1, 3)]


def test_tail_is_ideal_negative_control():
    # a bracket inside l_3 with a coefficient in l_1 leaves the tails
    # l_2 + l_3 and l_3, and breaks no axiom between two layers
    alg = realize_split_nilradical("A", 5)
    l1, l3 = alg.layers[0], alg.layers[2]
    bad = with_entry(alg, (l3.members[0], l3.members[1]), {l1.beta: Q(1)})
    assert failing_rows(bad) == [("tail_is_ideal", 2, 3), ("tail_is_ideal", 3, 3)]


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


def test_basis_entries_other_than_plus_or_minus_one_rejected():
    alg = realize_split_nilradical("A", 2)
    a = max(alg.basis)
    for val in (2, Q(1, 2), 0):
        basis = {**alg.basis, a: {pos: val for pos in alg.basis[a]}}
        with pytest.raises(AssertionError, match="is not \\+1 or -1"):
            NilpotentAlgebra(alg.series, alg.rank, alg.system, basis, alg.size,
                             alg.layers)


def per_pair_layer_check(alg):
    """The message of a lookup of every ordered pair of members of each
    layer, or None: the oracle of check_layers' one walk over the table."""
    table = alg.brackets
    for layer in alg.layers:
        r, beta, members = layer.r, layer.beta, layer.members
        if len(members) % 2:
            return f"v_{r} has odd dimension"
        for a in members:
            for b in members:
                if not table.get((a, b), {}).keys() <= {beta}:
                    return f"[v_{r}, v_{r}] escapes z_{r} at ({a},{b})"
            if (beta, a) in table:
                return f"z_{r} must be central in l_{r}"
    return None


def layer_check_message(alg):
    try:
        check_layers(alg)
    except AssertionError as exc:
        return str(exc)
    return None


def _a5_injections():
    """One A5 copy per message: l_3 loses a member, two members of v_3
    bracket outside z_3, beta_3 brackets a member of v_3."""
    alg = realize_split_nilradical("A", 5)
    l1, l3 = alg.layers[0], alg.layers[2]
    odd = Layer(3, l3.beta, l3.members[:-1])
    yield NilpotentAlgebra(alg.series, alg.rank, alg.system, alg.basis,
                           alg.size, (*alg.layers[:2], odd))
    yield with_entry(alg, (l3.members[0], l3.members[1]), {l1.beta: 1})
    yield with_entry(alg, (l3.beta, l3.members[0]), {l3.beta: 1})


def test_layer_check_matches_per_pair_oracle():
    models = ([("A", r) for r in range(1, 14)]
              + [(s, r) for s in "BCD" for r in range(2, 13)])
    for model in models:
        alg = realize_split_nilradical(*model)
        assert per_pair_layer_check(alg) is None, model
        assert layer_check_message(alg) is None, model
    bad = [corrupted_fixture(), *_a5_injections()]
    messages = [per_pair_layer_check(alg) for alg in bad]
    assert [layer_check_message(alg) for alg in bad] == messages
    assert messages == [
        "[v_2, v_2] escapes z_2 at ((1, 0, -1, 0),(1, -1, 0, 0))",
        "v_3 has odd dimension",
        "[v_3, v_3] escapes z_3 at ((1, 0, 0, 0, -1, 0),(1, 0, 0, -1, 0, 0))",
        "z_3 must be central in l_3"]


def test_shape_errors():
    with pytest.raises(ValueError):
        realize_split_nilradical("E", 6)


# case -> (the message the case must raise, the code that raises it)
OPTIMIZED_CHECKS = {
    "grading fails at": ("grading fails at", (
        "from stepsq.nilalg import NilpotentAlgebra, _validate_algebra, "
        "realize_split_nilradical\n"
        "alg = realize_split_nilradical('A', 3)\n"
        "basis = {**alg.basis, (1, -1, 0, 0): {(1, 0): 1}}\n"
        "_validate_algebra(NilpotentAlgebra('A', 3, alg.system, basis, "
        "alg.size, alg.layers))")),
    # in B2, flipping a sign of x_{e1+e2} makes [x_{e1+e2}, x_{e1-e2}] a
    # nonzero multiple of E_{1,5}, of weight 2e_1, which is not a root: the
    # bracket should vanish, and the build finds it outside the span
    "should vanish": ("bracket [(1, 1),(1, -1)] leaves the span", (
        "from stepsq.nilalg import NilpotentAlgebra, _validate_algebra, "
        "realize_split_nilradical\n"
        "alg = realize_split_nilradical('B', 2)\n"
        "basis = {**alg.basis, (1, 1): {(0, 3): 1, (1, 4): 1}}\n"
        "_validate_algebra(NilpotentAlgebra('B', 2, alg.system, basis, "
        "alg.size, alg.layers))")),
    # in C2, flipping a sign of x_{e1-e2} takes [x_{e1-e2}, x_{2e2}] out of
    # the span although e1 + e2 is a root
    "escapes": ("bracket [(1, -1),(0, 2)] leaves the span", (
        "from stepsq.nilalg import NilpotentAlgebra, _validate_algebra, "
        "realize_split_nilradical\n"
        "alg = realize_split_nilradical('C', 2)\n"
        "basis = {**alg.basis, (1, -1): {(0, 1): 1, (3, 2): 1}}\n"
        "_validate_algebra(NilpotentAlgebra('C', 2, alg.system, basis, "
        "alg.size, alg.layers))")),
    "escapes z_2": ("escapes z_2", (
        "from stepsq.nilalg import check_layers, corrupted_fixture\n"
        "check_layers(corrupted_fixture())")),
    "layer characterization failed at r=1": (
        "layer characterization failed at r=1", (
            "from stepsq.cascade import kostant_cascade, layer_partition\n"
            "from stepsq.rootsys import build_root_system\n"
            "system = build_root_system('A', 3)\n"
            "layer_partition(system, kostant_cascade(system))")),
    "Pfaffian must square to the determinant": (
        "Pfaffian must square to the determinant", (
            "import stepsq.plancherel as p\n"
            "real = p._pf_eliminate\n"
            "p._pf_eliminate = lambda m: real(m) + 1\n"
            "p.pfaffian([[0, 1], [-1, 0]])")),
}


@pytest.mark.parametrize("case", sorted(OPTIMIZED_CHECKS))
def test_invariants_raise_under_python_O(case):
    # the invariant checks are raised errors, so -O must not strip them
    message, code = OPTIMIZED_CHECKS[case]
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepsq.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "AssertionError: " in proc.stderr and message in proc.stderr
