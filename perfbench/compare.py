"""Collect result sets of the benchmark and compare them.

Usage, from the root of a checkout::

    python3 perfbench/compare.py collect --out SET.jsonl [--first-seed 1]
    python3 perfbench/compare.py report SET.jsonl [OTHER.jsonl]

``collect`` runs ``run.py`` ten times per workload, each with another seed
from ``--first-seed`` on, and twice more with ``--trace 1`` on the first
seed.  It appends one JSON line per run: workload, seed, trace flag, machine
facts and the result.

``report`` prints every metric of every workload by name and unit with the
median and quartiles of its values (``statistics.quantiles(n=4)``) and the
quartile spread as a share of the median, plus the failure counts.  It flags
an end-to-end metric whose spread exceeds its bound and call counts that
differ between traced runs of one seed.  Given a second set, it also flags
every end-to-end metric whose median in that set is worse than in the first
by more than the metric's bound.  The exit code is 1 when anything is
flagged.

``baseline.jsonl`` beside this file is the result set of the version that
introduced the benchmark (two collects of ten seeds each, two traced runs per
workload each); compare a new set against it with
``python3 perfbench/compare.py report perfbench/baseline.jsonl NEW.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

RUNS = 10
TRACED_RUNS = 2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def collect(args, spec: dict) -> int:
    workloads = [w["name"] for w in spec["workloads"]]
    # workloads take turns, so that a slow spell of the machine is shared
    plan = [(w, args.first_seed + k, 0) for k in range(RUNS)
            for w in workloads]
    plan += [(w, args.first_seed, 1) for w in workloads
             for _ in range(TRACED_RUNS)]
    status = 0
    for workload, seed, trace in plan:
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        record = {"workload": workload, "seed": seed, "trace": trace}
        if proc.returncode != 0 or not lines:
            record["error"] = proc.stderr.strip()[-2000:]
            status = 1
        else:
            env = [ln[4:] for ln in lines if ln.startswith("env ")]
            record["env"] = json.loads(env[-1]) if env else None
            record["result"] = json.loads(lines[-1])
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"{workload} seed {seed} trace {trace}: "
              f"{'error' if 'error' in record else 'ok'}", flush=True)
    return status


def load_set(path: str):
    """Group results by (workload, trace); return groups and errors."""
    groups = defaultdict(list)
    errors = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if "error" in rec:
                errors.append(rec)
            else:
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups, errors


def stats(values):
    """Median, first and third quartile, and quartile spread over median."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, ((q3 - q1) / med if med else 0.0)


def worse_share(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if other == base else float("inf")
    delta = other - base if better == "lower" else base - other
    return delta / abs(base)


def metric_values(recs, name):
    return [r["result"]["metrics"][name]["value"] for r in recs]


def report_end_to_end(wl, recs, orecs, spec, flags) -> None:
    attempted = sum(r["result"]["attempted"] for r in recs)
    failed = sum(r["result"]["failed"] for r in recs)
    correct = all(r["result"]["correct"] for r in recs)
    print(f"\n== {wl}: {len(recs)} runs, {attempted} invocations, {failed} "
          f"failed (failed_frac {failed / attempted:.6f}), correct {correct}")
    if not correct:
        flags.append(f"{wl}: an output was incorrect")
    print(f"{'metric':<18}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}"
          + (f"{'other':>12}{'worse':>9}" if orecs else ""))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, q1, q3, spread = stats(metric_values(recs, name))
        line = (f"{name:<18}{m['unit']:<7}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                f"{spread:>9.4f}{bound:>7.3f}")
        if spread > bound:
            flags.append(f"{wl} {name}: spread {spread:.4f} > {bound}")
        if orecs:
            omed, _, _, ospread = stats(metric_values(orecs, name))
            worse = worse_share(med, omed, m["better"])
            line += f"{omed:>12.6g}{worse:>9.4f}"
            if worse > bound:
                flags.append(f"{wl} {name}: other set worse by {worse:.4f} "
                             f"> {bound}")
            if ospread > bound:
                flags.append(f"{wl} {name}: other set spread {ospread:.4f} "
                             f"> {bound}")
        print(line)


def report_per_layer(wl, traced, spec, flags) -> None:
    print(f"-- {wl} traced: {len(traced)} runs (median, min, max)")
    for m in spec["per_layer"]:
        values = metric_values(traced, m["name"])
        print(f"{m['name']:<40}{m['unit']:<7}{statistics.median(values):>12.6g}"
              f"{min(values):>12.6g}{max(values):>12.6g}")
    counts_by_seed = defaultdict(set)
    for r in traced:
        counts_by_seed[r["seed"]].add(tuple(
            r["result"]["metrics"][m["name"]]["value"]
            for m in spec["per_layer"] if m["unit"] == "count"))
    if any(len(c) > 1 for c in counts_by_seed.values()):
        flags.append(f"{wl}: call counts differ between traced runs")
    if not all(r["result"]["correct"] for r in traced):
        flags.append(f"{wl}: traced and untraced reports differ")


def report(args, spec: dict) -> int:
    base, base_errors = load_set(args.set)
    other, other_errors = load_set(args.other) if args.other else ({}, [])
    flags = [f"{r['workload']} seed {r['seed']}: run failed"
             for r in base_errors + other_errors]
    for wl in [w["name"] for w in spec["workloads"]]:
        if base.get((wl, 0)):
            report_end_to_end(wl, base[(wl, 0)], other.get((wl, 0), []),
                              spec, flags)
        if base.get((wl, 1)):
            report_per_layer(wl, base[(wl, 1)], spec, flags)
    envs = {json.dumps(r.get("env"), sort_keys=True)
            for recs in base.values() for r in recs}
    for env in sorted(envs):
        print(f"\nenv {env}")
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="collect and compare result "
                                             "sets of the stepsq benchmark")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--first-seed", type=int, default=1)
    r = sub.add_parser("report")
    r.add_argument("set")
    r.add_argument("other", nargs="?")
    args = ap.parse_args()
    spec = load_spec()
    return collect(args, spec) if args.cmd == "collect" else report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
