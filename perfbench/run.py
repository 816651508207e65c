"""stepsq verification benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of a workload is one fresh interpreter (``worker.py``) that imports
``stepsq.cli`` from ``src/`` and calls ``stepsq.cli.run`` once per invocation
of the workload with ``--seed N`` and an ``--out`` path in a temporary
directory under ``.perfbench_runs/``.  With ``--trace 0``, passes repeat while
the next one is expected to end within ``S`` seconds of the first one's start
(at least one pass), and the end-to-end metrics of ``BENCHMARK.json`` are
reported as medians over passes, timings in units of a reference loop timed
all through each pass (see ``end_to_end``).  With ``--trace 1``, one untraced and one traced pass run,
the spans are written to ``.perfbench_runs/trace-<workload>-<seed>.json`` and
the per-layer metrics are reported.

Set-up time is the time from interpreter start until ``stepsq.cli`` is
imported: the median over every pass and over ``SETUP_SAMPLES`` interpreters
that only import ``stepsq.cli``.  The median also absorbs the first import in
a fresh checkout, which writes the bytecode cache.

The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts invocations over all passes and ``failed`` those that
raised, exited non-zero or wrote a report with a failing row.  ``correct`` is
false when a report is malformed or inconsistent with its exit code, or when
one invocation's report differs between passes (reports are deterministic for
a fixed seed).  Every pass gets its own string-hash seed, so that check also
catches a report that depends on set or dict order.  The line before it,
``env {...}``, records the machine and the Python, numpy and scipy versions.  Any error of the benchmark itself
exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.pop("PYTHONHASHSEED", None)
    env.update({k: "1" for k in THREAD_VARS})
    return env


class Runner:
    """Starts worker interpreters one at a time under a global deadline."""

    def __init__(self, workload: str, seed: int, tmp: str) -> None:
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = worker_env()
        self.count = 0

    def spawn(self, setup_only: bool = False, trace: str = "") -> dict:
        self.count += 1
        reports = os.path.join(self.tmp, f"pass-{self.count}")
        os.mkdir(reports)
        record = os.path.join(self.tmp, f"record-{self.count}.json")
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--tmp", reports, "--record", record]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", trace]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the pass started")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)],
                                  cwd=reports, env=self.env, timeout=timeout,
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        with open(record, encoding="utf-8") as fh:
            return json.load(fh)


def environment(record: dict) -> dict:
    """Machine and toolchain facts recorded with each result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": record["numpy"],
            "scipy": record["scipy"]}


def check_passes(passes) -> tuple:
    """Count attempts and failures; check reports across passes."""
    attempted = failed = 0
    correct = True
    digests = {}
    for p in passes:
        for i, inv in enumerate(p["invocations"]):
            attempted += 1
            failed += not inv["ok"]
            if inv["defect"]:
                correct = False
                print(f"defect: {' '.join(inv['argv'])}: {inv['defect']}",
                      file=sys.stderr)
            if digests.setdefault(i, inv["digest"]) != inv["digest"]:
                correct = False
                print(f"defect: {' '.join(inv['argv'])}: report differs "
                      "between passes", file=sys.stderr)
    return correct, attempted, failed


def end_to_end(passes, setups) -> dict:
    """End-to-end figures in reference-loop units.

    The host runs the benchmark at a speed that changes by up to half in
    spells of seconds to minutes, longer than a run, so no figure in
    seconds repeats from run to run.  Each latency is therefore divided by
    its pass's ``ref_s``, the time of a fixed reference loop sampled all
    through the pass (see ``worker.py``): a figure of 1000 means the
    invocation took as long as 1000 reference loops on the same host at the
    same moment.  Every invocation runs once per pass, in the same
    interpreter state; its figure is the median over the run's passes.
    ``pass_ref`` is the sum of these figures, ``report_gmean_ref`` their
    geometric mean (every report weighs the same whatever its size) and
    ``report_max_ref`` the largest of them.
    """
    per_inv = [statistics.median(lat) for lat in zip(*(
        [inv["latency_s"] / inv["ref_s"] for inv in p["invocations"]]
        for p in passes))]
    invs = [inv for p in passes for inv in p["invocations"]]
    return {
        "setup_s": statistics.median(setups),
        "pass_ref": sum(per_inv),
        "report_gmean_ref": statistics.geometric_mean(per_inv),
        "report_max_ref": max(per_inv),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": sum(inv["ok"] for inv in invs) / len(invs),
    }


def per_layer(plain: dict, traced: dict, trace_path: str, names) -> dict:
    """Per-layer metrics from the trace of ``traced``.

    A function that was wrapped but never called reads 0; a function or
    layer the tracer did not wrap (renamed, removed, or no longer a plain
    function) is an error rather than a silent 0.
    """
    with open(trace_path, encoding="utf-8") as fh:
        table = json.load(fh)
    wrapped = set(table["names"])
    wrapped |= {name.split(".", 1)[0] for name in wrapped}
    summary = summarize(table["names"], table["spans"])
    values = {
        "proc.cpu_s": plain["cpu_s"],
        "proc.wall_s": plain["wall_s"],
        "proc.ref_s": plain["ref_s"],
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
        "trace.coverage_frac": (summary["total_s"].get("cli.run", 0.0)
                                / traced["wall_s"]),
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(".calls"):
            fn, table_name = name[:-len(".calls")], "calls"
        elif name.endswith(".self_s"):
            fn, table_name = name[:-len(".self_s")], "self_s"
        else:
            raise BenchError(f"no rule for per-layer metric {name!r}")
        if fn not in wrapped:
            raise BenchError(f"per-layer metric {name!r}: {fn!r} was not "
                             "traced")
        values[name] = summary[table_name].get(fn, 0)
    return values


def measure(workload: str, seed: int, seconds: int, trace: bool,
            spec: dict, tmp: str) -> dict:
    runner = Runner(workload, seed, tmp)
    if trace:
        trace_path = os.path.join(RUNS_DIR, f"trace-{workload}-{seed}.json")
        plain = runner.spawn()
        traced = runner.spawn(trace=trace_path)
        passes = [plain, traced]
        metrics = per_layer(plain, traced, trace_path,
                            [m["name"] for m in spec["per_layer"]])
        wanted = spec["per_layer"]
    else:
        setups = [runner.spawn(setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        start = time.monotonic()
        passes = [runner.spawn()]
        # another pass only while it is expected to end within the budget
        while ((time.monotonic() - start) * (len(passes) + 1) / len(passes)
               <= seconds):
            passes.append(runner.spawn())
        setups += [p["setup_s"] for p in passes]
        metrics = end_to_end(passes, setups)
        wanted = spec["end_to_end"]
    correct, attempted, failed = check_passes(passes)
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    refs = ", ".join(f"{p['ref_s'] * 1e3:.3f}" for p in passes if "ref_s" in p)
    print(f"{workload}: {len(passes)} pass(es) of {walls} s (reference loop "
          f"{refs} ms), {attempted} invocations, {failed} failed")
    print("env " + json.dumps(environment(passes[0]), sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def main() -> int:
    ap = argparse.ArgumentParser(description="stepsq verification benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "stepsq", "cli.py")):
        print(f"no stepsq sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(RUNS_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), spec, tmp)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
