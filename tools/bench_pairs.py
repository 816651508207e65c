"""Alternating benchmark pairs of two trees, appended as ``BENCH_*.json`` lines.

Runs ``perfbench/run.py`` of a parent tree and of a change tree, one after
the other, for ``--pairs`` pairs with seeds ``--first-seed``,
``--first-seed + 1``, ...; the tree that goes first alternates from pair to
pair, so a drift of the host's speed is shared between the two.  Both runs
of a pair get this interpreter and this environment::

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload numeric --pairs 10 --first-seed 40 --out BENCH_x.json

Each run appends one line to ``--out``: ``pair``, ``tree`` ("parent" or
"change"), ``seed``, ``workload``, ``trace``, ``env`` (the line that
``run.py`` prints before its result) and ``result`` (its last line).  Pairs
are numbered on from the pairs of the workload already in the file.  Then,
over every pair of the workload and trace in the file, it prints per
metric of the change tree's ``BENCHMARK.json`` (the end-to-end metrics, or
the per-layer ones with ``--trace 1``) the median and the quartiles of each
tree, the change of the median, and the number of pairs in which the change
tree is better.  Nothing under ``perfbench/`` is written; each run keeps
its own output under its tree's ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree: str, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    """(env, result) of one ``run.py`` invocation in tree."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env "):
        sys.exit(f"run.py failed in {tree} (exit {proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    return {"env": json.loads(lines[-2][len("env "):]),
            "result": json.loads(lines[-1])}


def records(path: str, workload: str, trace: int) -> list:
    """The lines of path for workload and trace, in file order."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    # other lines (fresh-CLI timings, summaries) have no workload
    return [r for r in lines
            if r.get("workload") == workload and r.get("trace") == trace]


def summarize(recs: list, metrics: list) -> None:
    """Print medians, quartiles and wins per metric over complete pairs."""
    pairs: dict = {}
    for r in recs:
        pairs.setdefault(r["pair"], {})[r["tree"]] = r["result"]["metrics"]
    pairs = {p: t for p, t in pairs.items() if len(t) == 2}
    print(f"{len(pairs)} pairs")
    for metric in metrics:
        name = metric["name"]
        values = {tree: [t[tree][name]["value"] for t in pairs.values()]
                  for tree in ("parent", "change")}
        if len(pairs) < 2:
            print(f"{name}: {values}")
            continue
        quart = {tree: statistics.quantiles(v, n=4) for tree, v in values.items()}
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        p_med, c_med = quart["parent"][1], quart["change"][1]
        delta = (c_med - p_med) / p_med if p_med else float("nan")
        print(f"{name} ({metric['better']} is better): "
              f"parent {p_med:.4g} [{quart['parent'][0]:.4g}, "
              f"{quart['parent'][2]:.4g}]  change {c_med:.4g} "
              f"[{quart['change'][0]:.4g}, {quart['change'][2]:.4g}]  "
              f"median {delta:+.1%}  change better in {wins}/{len(pairs)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        metrics = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    first = 1 + max((r["pair"] for r in records(args.out, args.workload,
                                                 args.trace)), default=-1)
    for k in range(args.pairs):
        pair, seed = first + k, args.first_seed + k
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for tree in order:
            line = {"pair": pair, "tree": tree, "seed": seed,
                    "workload": args.workload, "trace": args.trace,
                    **run_once(trees[tree], args.workload, seed,
                               args.seconds, args.trace)}
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
            print(f"pair {pair} seed {seed} {tree}: "
                  + json.dumps({m["name"]: line["result"]["metrics"]
                                [m["name"]]["value"] for m in metrics}),
                  flush=True)
    summarize(records(args.out, args.workload, args.trace), metrics)


if __name__ == "__main__":
    main()
