"""Tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import stepsq.cascade as cascade  # noqa: E402
import stepsq.cli as cli  # noqa: E402
from run import BenchError, check_passes, end_to_end, per_layer  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from worker import Speedometer, run_pass  # noqa: E402

SMALL = [["cascade", "--series", "B", "--n", "4"],
         ["axioms", "--series", "C", "--n", "2"],
         ["pfaffian", "--count", "20", "--max-size", "6"]]


def _mkdir(path):
    os.mkdir(path)
    return path


def traced_pass(invocations, tmp):
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        record = run_pass(cli, invocations, 5, str(tmp), tracer)
    finally:
        uninstall()
    return record, tracer


def digests(record):
    return [inv["digest"] for inv in record["invocations"]]


def test_wrapping_keeps_values_and_report_digests(tmp_path):
    plain = run_pass(cli, SMALL, 5, str(_mkdir(tmp_path / "plain")))
    traced, tracer = traced_pass(SMALL, _mkdir(tmp_path / "traced"))
    assert all(inv["ok"] for inv in plain["invocations"])
    assert digests(plain) == digests(traced)
    assert None not in digests(plain)

    original = cascade.closed_form_beta
    uninstall = Tracer().install()
    try:
        assert cascade.closed_form_beta is not original
        assert cascade.closed_form_beta("D", 6) == original("D", 6)
    finally:
        uninstall()
    assert cascade.closed_form_beta is original
    assert tracer.spans and all(s[2] >= s[1] for s in tracer.spans)


def test_counts_repeat_exactly(tmp_path):
    first, t1 = traced_pass(SMALL[:2], _mkdir(tmp_path / "a"))
    second, t2 = traced_pass(SMALL[:2], _mkdir(tmp_path / "b"))
    c1 = summarize(t1.names, t1.spans)["calls"]
    c2 = summarize(t2.names, t2.spans)["calls"]
    assert c1 == c2
    assert c1["cli.run"] == 2
    # imported by name into cli and called there: the copy is wrapped too
    assert c1["rootsys.build_root_system"] >= 1
    assert c1["cascade.cascade_decomposition"] >= 2


def test_self_time_subtracts_children():
    names = ["a.f", "b.g"]
    spans = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 0],
             [1, 5.0, 6.0, 0, 0], [0, 7.0, 8.0, 2, 0]]
    summary = summarize(names, spans)
    assert summary["calls"] == {"a.f": 2, "b.g": 2}
    assert summary["self_s"]["a.f"] == pytest.approx(6.0 + 1.0)
    assert summary["self_s"]["b.g"] == pytest.approx(3.0 + 0.0)
    assert summary["self_s"]["a"] == pytest.approx(7.0)
    assert summary["total_s"]["a.f"] == pytest.approx(11.0)


def test_failures_are_counted(tmp_path, monkeypatch):
    def boom(series, rank):
        raise AssertionError("invariant broke")

    monkeypatch.setattr(cli, "pipeline_roots", boom)
    invocations = [["roots", "--series", "A", "--n", "2"],
                   ["cascade", "--series", "A", "--n", "0"],
                   ["layers", "--series", "A", "--n", "2"]]
    record = run_pass(cli, invocations, 5, str(tmp_path))
    raised, config, fine = record["invocations"]
    assert raised["status"] == "AssertionError" and not raised["ok"]
    assert config["status"] == 2 and not config["ok"]
    assert raised["digest"] is None and config["digest"] is None
    assert not raised["defect"] and not config["defect"]
    assert fine["ok"]
    assert check_passes([record]) == (True, 3, 2)


def test_report_change_between_passes_is_incorrect(tmp_path):
    first = run_pass(cli, SMALL[:1], 5, str(_mkdir(tmp_path / "a")))
    second = run_pass(cli, SMALL[:1], 6, str(_mkdir(tmp_path / "b")))
    assert check_passes([first, first]) == (True, 2, 0)
    assert check_passes([first, second])[0] is False


def test_untraced_function_is_an_error(tmp_path):
    tracer = Tracer()
    tracer.wrap("a.f", len)("xy")
    tracer.wrap("a.idle", len)
    path = tmp_path / "trace.json"
    tracer.dump(str(path))
    plain = {"cpu_s": 1.0, "wall_s": 2.0, "ref_s": 0.003}
    values = per_layer(plain, plain, str(path),
                       ["a.f.calls", "a.idle.calls", "a.idle.self_s",
                        "a.self_s"])
    assert values["a.f.calls"] == 1
    assert values["a.idle.calls"] == 0 and values["a.idle.self_s"] == 0
    for name in ("a.gone.calls", "a.gone.self_s", "b.self_s"):
        with pytest.raises(BenchError, match="not traced"):
            per_layer(plain, plain, str(path), [name])


def test_speedometer_keeps_digests_and_times_every_invocation(tmp_path):
    plain = run_pass(cli, SMALL, 5, str(_mkdir(tmp_path / "plain")))
    meter = Speedometer()
    timed = run_pass(cli, SMALL, 5, str(_mkdir(tmp_path / "timed")),
                     speedometer=meter)
    assert digests(plain) == digests(timed)
    assert timed["ref_samples"] == len(meter.samples) >= 2
    assert all(inv["ok"] and inv["ref_s"] > 0
               for inv in timed["invocations"])
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class BusyCli:
    """Stands in for ``stepsq.cli``: each call keeps the CPU busy."""

    def __init__(self, seconds):
        self.seconds = seconds

    def run(self, argv):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < self.seconds:
            pass
        return 2


def test_latency_excludes_speed_samples(tmp_path):
    meter = Speedometer()
    record = run_pass(BusyCli(0.5), [["roots"]], 5, str(tmp_path),
                      speedometer=meter)
    inside = meter.samples[1:-1]  # one sample before, one after the call
    assert len(inside) >= 3
    latency = record["invocations"][0]["latency_s"]
    assert latency + sum(inside) == pytest.approx(0.5, abs=0.01)
    assert record["invocations"][0]["ref_s"] == pytest.approx(
        sum(meter.samples) / len(meter.samples))


def test_end_to_end_divides_by_the_reference_loop():
    def one_pass(latencies, ref_s, peak):
        return {"peak_rss_mb": peak,
                "invocations": [{"latency_s": lat, "ref_s": ref_s, "ok": ok}
                                for lat, ok in latencies]}

    slow = one_pass([(2.0, True), (0.02, False)], 0.004, 80.0)
    fast = one_pass([(1.0, True), (0.01, False)], 0.002, 81.0)
    odd = one_pass([(3.0, True), (0.01, False)], 0.002, 82.0)
    metrics = end_to_end([slow, fast, odd], [0.5, 0.7, 0.6])
    # per invocation: medians of 500, 500, 1500 and of 5, 5, 5
    assert metrics["pass_ref"] == pytest.approx(505.0)
    assert metrics["report_gmean_ref"] == pytest.approx(50.0)
    assert metrics["report_max_ref"] == pytest.approx(500.0)
    assert metrics["setup_s"] == 0.6
    assert metrics["peak_rss_mb"] == 81.0
    assert metrics["ok_frac"] == 0.5
