"""One benchmark pass in a fresh interpreter.

Imports ``stepsq.cli`` from the checkout's ``src`` directory and calls
``stepsq.cli.run`` once per invocation of the workload, one after another,
writing each report into a temporary directory.  The pass record (setup
time, per-invocation latency, exit status, report digest and verdict,
host speed, process resources) is written as JSON to ``--record``.

An untraced pass also samples the host's speed: every ``PERIOD_S`` seconds
of wall time ``SIGALRM`` interrupts the pass, wherever it is, and times one
run of a fixed reference loop.  The pass's mean sample, ``ref_s``, is the
time the reference loop took on the host as fast as the host ran during the
pass; latencies and the pass's wall time exclude the time the samples took.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload NAME --seed N --tmp DIR \
        --record FILE --spawned T [--trace FILE] [--setup-only]

``--spawned`` is the ``time.perf_counter()`` reading taken by the parent just
before it started this interpreter; ``perf_counter`` is the system-wide
monotonic clock, so the difference is the time from interpreter start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

REPORT_FIELDS = ("command", "inputs", "rows", "passed", "timing_s")
ROW_FIELDS = ("name", "predicted", "measured", "abs_err", "rel_err", "pass",
              "provenance")

PERIOD_S = 0.1
REF_LOOPS = 900


def reference_loop() -> tuple:
    """Fixed interpreter work like the exact layers' own: Fraction arithmetic
    and small dicts, a few milliseconds long.  The host's slow spells slow
    it about as much as they slow ``stepsq``; a plain integer loop slows
    only about half as much."""
    counts = {}
    product = Fraction(1)
    for i in range(1, REF_LOOPS):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
        product *= Fraction(i + 1, i + 2)
    return product, sorted(counts.values())


class Speedometer:
    """Times ``reference_loop`` every ``PERIOD_S`` seconds of wall time."""

    def __init__(self) -> None:
        self.samples = []
        self.spent = 0.0

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def around(self, begin: int, end: int) -> float:
        """Mean of samples ``begin:end`` and of the one on either side."""
        return statistics.fmean(self.samples[max(begin - 1, 0):end + 1])

    def start(self) -> None:
        self.sample()  # the last sample before the first invocation
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def check_report(payload: bytes, argv, seed: int) -> str:
    """Return '' for a well-formed, self-consistent report, else the defect."""
    try:
        doc = json.loads(payload)
    except ValueError:
        return "report is not JSON"
    if not isinstance(doc, dict) or any(k not in doc for k in REPORT_FIELDS):
        return "report misses a required field"
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        return "report has no rows"
    if any(not isinstance(r, dict) or any(k not in r for k in ROW_FIELDS)
           or not isinstance(r["pass"], bool) for r in rows):
        return "report row malformed"
    if doc["passed"] is not all(r["pass"] for r in rows):
        return "report verdict disagrees with its rows"
    if doc["command"] != argv[0]:
        return "report names another command"
    if (not isinstance(doc["inputs"], dict)
            or doc["inputs"].get("seed") != seed
            or doc["timing_s"] is not None):
        return "report echo does not match the invocation"
    return ""


def run_pass(cli, invocations, seed: int, tmp: str, tracer=None,
             speedometer=None) -> dict:
    """Run every invocation once; time each; then read back the reports."""
    latencies, statuses, windows = [], [], []
    clock = time.perf_counter
    meter = speedometer or Speedometer()
    if speedometer is not None:
        speedometer.start()
    try:
        first, first_spent = clock(), meter.spent
        for i, argv in enumerate(invocations):
            out = os.path.join(tmp, f"report-{i:03d}.json")
            if tracer is not None:
                tracer.invocation = i
            t0, spent0, sample0 = clock(), meter.spent, len(meter.samples)
            try:
                status = cli.run(list(argv)
                                 + ["--seed", str(seed), "--out", out])
            except Exception as exc:  # the failure is recorded and counted
                status = type(exc).__name__
            latencies.append(clock() - t0 - (meter.spent - spent0))
            statuses.append(status)
            windows.append((sample0, len(meter.samples)))
        wall = clock() - first - (meter.spent - first_spent)
    finally:
        if speedometer is not None:
            speedometer.stop()
    if speedometer is not None:
        speedometer.sample()  # the first sample after the last invocation

    results = []
    for i, (argv, status, latency) in enumerate(
            zip(invocations, statuses, latencies)):
        out = os.path.join(tmp, f"report-{i:03d}.json")
        digest, defect, rows_pass = None, "", False
        if os.path.exists(out):
            with open(out, "rb") as fh:
                payload = fh.read()
            digest = hashlib.sha256(payload).hexdigest()
            defect = check_report(payload, argv, seed)
            rows_pass = not defect and json.loads(payload)["passed"]
            if not defect and isinstance(status, int) and (
                    (status == 0) != rows_pass):
                defect = f"exit code {status} disagrees with the report"
        elif status in (0, 1):
            defect = f"exit code {status} but no report"
        results.append({"argv": list(argv), "status": status,
                        "latency_s": latency, "digest": digest,
                        "defect": defect,
                        "ok": status == 0 and rows_pass and not defect})
        if speedometer is not None:
            results[-1]["ref_s"] = speedometer.around(*windows[i])
    record = {"wall_s": wall, "invocations": results}
    if speedometer is not None:
        record["ref_s"] = statistics.fmean(speedometer.samples)
        record["ref_samples"] = len(speedometer.samples)
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import stepsq.cli as cli
    setup_s = time.perf_counter() - args.spawned
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"worker: stepsq imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy
    record = {"setup_s": setup_s, "numpy": numpy.__version__,
              "scipy": scipy.__version__}
    if not args.setup_only:
        sys.path.insert(0, HERE)
        from workloads import WORKLOADS
        tracer = speedometer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        else:
            speedometer = Speedometer()
        record.update(run_pass(cli, WORKLOADS[args.workload], args.seed,
                               args.tmp, tracer, speedometer))
        if tracer is not None:
            tracer.dump(args.trace)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record["cpu_s"] = usage.ru_utime + usage.ru_stime
        record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
