"""The inline loops of ``rootsys`` and ``cascade`` against the per-vector
forms they replaced, kept here as oracles: the same positives in the same
order, the same checks raising the same messages, the same cascade and the
same layers with their members in the same order."""

import pytest

from stepsq.cascade import kostant_cascade, layer_partition
from stepsq.rootsys import (RootSystem, _check_invariants, _e,
                            _positive_roots, build_root_system, inner,
                            strongly_orthogonal, vadd, vscale, vsub)

SYSTEMS = ([("A", r) for r in range(1, 17)]
           + [(s, r) for s in "BCD" for r in range(2, 17)])


def vneg(a):
    return tuple(-x for x in a)


def oracle_positive_roots(series, rank):
    if series == "A":
        dim = rank + 1
        return [vsub(_e(i, dim), _e(j, dim)) for i in range(1, dim + 1)
                for j in range(i + 1, dim + 1)]
    dim = rank
    pos = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            pos.append(vsub(_e(i, dim), _e(j, dim)))
            pos.append(vadd(_e(i, dim), _e(j, dim)))
    if series == "B":
        pos.extend(_e(i, dim) for i in range(1, rank + 1))
    elif series == "C":
        pos.extend(vscale(2, _e(i, dim)) for i in range(1, rank + 1))
    return pos


def oracle_check_invariants(system):
    pos = set(system.positives)
    neg = {vneg(a) for a in pos}
    if not (pos.isdisjoint(neg) and pos | neg == set(system.roots)):
        raise AssertionError("positives do not split the roots")
    simples = list(system.simple_enumeration.values())
    zero = (0,) * system.dim
    for s in simples:
        if not (s > zero and s in pos):
            raise AssertionError(f"simple root {s} is not a lexicographically "
                                 "positive positive root")
    for i, a in enumerate(simples):
        for b in simples[i + 1:]:
            if inner(a, b) > 0:
                raise AssertionError(f"simple roots {a}, {b} form an acute angle")
    for a in system.positives:
        if a not in simples and not any(vsub(a, s) in pos for s in simples):
            raise AssertionError(f"positive root {a} is not integral: no "
                                 "simple root leads down from it")


def oracle_kostant_cascade(system):
    chosen = []
    candidates = list(system.positives)
    while candidates:
        pick = max(candidates)
        chosen.append(pick)
        candidates = [a for a in candidates
                      if strongly_orthogonal(system, a, pick)]
    for i, a in enumerate(chosen):
        for b in chosen[i + 1:]:
            if not strongly_orthogonal(system, a, b):
                raise AssertionError(f"cascade roots {a} and {b} are not "
                                     "strongly orthogonal")
    return tuple(chosen)


def oracle_layer_partition(system, beta):
    """(r, beta_r, members) per layer, as ``Layer`` holds them."""
    beta = tuple(beta)
    m = len(beta)
    cascade = set(beta)
    remaining = [a for a in system.positives if a not in cascade]
    positives = set(system.positives)
    layers = {}
    for r in range(m, 0, -1):
        members = tuple(a for a in remaining
                        if vsub(beta[r - 1], a) in positives)
        layers[r] = tuple(sorted(members, reverse=True))
        taken = set(members)
        remaining = [a for a in remaining if a not in taken]
    if remaining:
        raise AssertionError(f"fill-out partition failed; unassigned {remaining}")
    support = {a: [(i, x) for i, x in enumerate(a) if x]
               for a in system.positives}
    pairings = {a: tuple(sum(x * b[i] for i, x in nz) for b in beta)
                for a, nz in support.items()}
    for r in range(1, m + 1):
        expected = set(layers[r]) | {beta[r - 1]}
        characterized = {a for a, ip in pairings.items()
                         if not any(ip[r:]) and ip[r - 1] > 0}
        if expected != characterized:
            raise AssertionError(f"layer characterization failed at r={r}")
    return tuple((r, b, layers[r]) for r, b in enumerate(beta, start=1))


def raised(fn, *args):
    """The message of the AssertionError that fn(*args) raises, or None."""
    try:
        fn(*args)
    except AssertionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_roots_cascade_and_layers_match_the_oracles(series, rank):
    positives = _positive_roots(series, rank)
    assert positives == oracle_positive_roots(series, rank)
    system = build_root_system(series, rank)
    assert system.positives == tuple(sorted(positives, reverse=True))
    assert system.roots == frozenset(positives) | {vneg(a) for a in positives}
    assert raised(oracle_check_invariants, system) is None
    beta = kostant_cascade(system)
    assert beta == oracle_kostant_cascade(system)
    layers = layer_partition(system, beta[::-1])
    assert ([(layer.r, layer.beta, layer.members) for layer in layers]
            == list(oracle_layer_partition(system, beta[::-1])))
    assert layers == system.cascade


@pytest.mark.parametrize("series,rank", [("A", 3), ("A", 6), ("B", 4),
                                         ("C", 5), ("D", 4), ("D", 7)])
def test_broken_systems_raise_what_the_oracles_raise(series, rank):
    system = build_root_system(series, rank)
    pos, roots = system.positives, system.roots
    simple = dict(system.simple_enumeration)
    first, second = sorted(simple)[:2]
    top = pos[0]

    def variant(positives=pos, enumeration=simple):
        return RootSystem(series, rank, roots, positives, enumeration)

    broken = [
        variant(positives=pos[1:]),  # the split
        variant(positives=tuple(vneg(a) if a == top else a for a in pos)),
        variant(enumeration={**simple, first: vneg(simple[first])}),
        variant(enumeration={**simple, first: vadd(simple[first],
                                                    simple[second])}),
        variant(enumeration={i: a for i, a in simple.items() if i != first}),
    ]
    for bad in broken:
        message = raised(oracle_check_invariants, bad)
        assert message is not None
        assert raised(_check_invariants, bad) == message
    beta = kostant_cascade(system)[::-1]
    for cut in (beta[:1], beta[1:], beta[::-1]):
        message = raised(oracle_layer_partition, system, cut)
        assert message is not None
        assert raised(layer_partition, system, cut) == message


def test_a_strongly_orthogonal_pair_that_is_not_orthogonal_raises():
    # (1, 0) is strongly orthogonal to the pick (1, 1): neither (2, 1) nor
    # (0, -1) is a root, yet the two are not orthogonal
    positives = ((1, 1), (1, 0))
    system = RootSystem("A", 1, frozenset(positives + tuple(map(vneg, positives))),
                        positives, {})
    message = "strong orthogonality must imply orthogonality"
    assert raised(oracle_kostant_cascade, system) == message
    assert raised(kostant_cascade, system) == message
