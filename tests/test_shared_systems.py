"""One root system per (series, rank) per process, and one cascade per system.

``build_root_system`` shares one immutable system per (series, rank), each
system keeps the layers of its cascade (``RootSystem.cascade``, read by
``cascade_decomposition``), and the split model of a (series, rank) carries
those same layers.  These tests check that the sharing saves the work,
that nothing shared can be changed in place, and that reports do not depend
on whether the caches are empty or warm.
"""

import dataclasses
import types

import pytest

from stepsq import cascade, rootsys
from stepsq.cascade import cascade_decomposition
from stepsq.cli import run
from stepsq.nilalg import realize_split_nilradical
from stepsq.rootsys import RootSystem, build_root_system

EXACT_SYSTEMS = ([("A", r) for r in range(1, 9)]
                 + [(s, r) for s in "BCD" for r in range(2, 9)])


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty system memo for the test; the process memo is restored."""
    memo = {}
    monkeypatch.setattr(rootsys, "_SYSTEMS", memo)
    return memo


def test_one_immutable_system_per_series_and_rank(empty_memo):
    s = build_root_system("C", 5)
    assert build_root_system("C", 5) is s
    assert build_root_system("B", 5) is not s
    assert isinstance(s.simple_enumeration, types.MappingProxyType)
    with pytest.raises(TypeError):
        s.simple_enumeration[1] = (0, 0, 0, 0, 1)
    layers = cascade_decomposition(s)
    assert cascade_decomposition(build_root_system("C", 5)) is layers
    with pytest.raises(TypeError):
        layers[0] = layers[1]
    assert list(empty_memo) == [("C", 5), ("B", 5)]


def test_the_split_model_carries_the_system_layers():
    systems = ([("A", r) for r in range(1, 14)]
               + [(s, r) for s in "BCD" for r in range(2, 13)])
    for series, rank in systems:
        layers = build_root_system(series, rank).cascade
        assert realize_split_nilradical(series, rank).layers is layers
    # the shared layers cannot be changed in place
    layer = layers[-1]
    with pytest.raises(TypeError):
        layers[0] = layer
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.members = ()
    with pytest.raises(TypeError):
        layer.members[0] = layer.beta


def test_a_failed_build_is_not_kept(empty_memo):
    with pytest.raises(ValueError):
        build_root_system("C", 1)
    with pytest.raises(ValueError):
        build_root_system("E", 6)
    assert empty_memo == {}


def test_exact_commands_share_one_cascade(empty_memo, monkeypatch, tmp_path):
    calls = []

    def counted(system):
        calls.append((system.series, system.rank))
        return original(system)

    original = cascade.kostant_cascade
    monkeypatch.setattr(cascade, "kostant_cascade", counted)
    for cmd in ("roots", "cascade", "layers", "axioms"):
        out = str(tmp_path / f"{cmd}.json")
        assert run([cmd, "--series", "B", "--n", "4", "--out", out]) == 0
    assert calls == [("B", 4)]


def test_a_hand_built_system_gets_its_own_decomposition():
    shared = build_root_system("A", 3)
    hand = RootSystem(shared.series, shared.rank, shared.roots,
                      shared.positives, shared.simple_enumeration)
    mine, theirs = cascade_decomposition(hand), cascade_decomposition(shared)
    assert mine is not theirs
    assert mine == theirs
    assert cascade_decomposition(hand) is mine


def test_shared_systems_survive_a_full_run(empty_memo, tmp_path):
    # a caller that changed a shared system or its cascade in place would
    # leave it unequal to a fresh build
    assert run(["all", "--quick", "--out", str(tmp_path / "all.json")]) == 0
    assert empty_memo
    for (series, rank), system in empty_memo.items():
        fresh = rootsys._build(series, rank)
        assert system == fresh
        if "cascade" in vars(system):
            assert system.cascade == cascade_decomposition(fresh)


def test_reports_do_not_depend_on_the_caches(monkeypatch, tmp_path):
    def reports(cold):
        out = {}
        for series, rank in EXACT_SYSTEMS:
            for cmd in ("roots", "cascade", "layers"):
                if cold:
                    monkeypatch.setattr(rootsys, "_SYSTEMS", {})
                path = tmp_path / f"{cmd}-{series}{rank}.json"
                assert run([cmd, "--series", series, "--n", str(rank),
                            "--seed", "7", "--out", str(path)]) == 0
                out[path.name] = path.read_bytes()
        return out

    cold = reports(cold=True)
    reports(cold=False)  # warm the caches
    assert reports(cold=False) == cold
