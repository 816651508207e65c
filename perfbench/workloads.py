"""Invocation lists of the benchmark workloads.

Each workload is the list of ``stepsq`` command lines one pass runs, in
order, inside one fresh interpreter.  ``--seed`` and ``--out`` are appended
by the worker.  Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, List

# the exact-table oracle range (A1-A13, B/C/D 2-12) cut at rank 8: the full
# range takes 40-50 s a pass, too long to repeat passes within one run
MAX_RANK = 8
ORACLE_SYSTEMS = ([("A", r) for r in range(1, MAX_RANK + 1)]
                  + [(s, r) for s in "BCD" for r in range(2, MAX_RANK + 1)])


def _exact_tables() -> List[List[str]]:
    return [[cmd, "--series", series, "--n", str(rank)]
            for series, rank in ORACLE_SYSTEMS
            for cmd in ("roots", "cascade", "layers")]


def _exact_algebra() -> List[List[str]]:
    cases = [("A", 3), ("C", 2), ("B", 3), ("D", 4),
             ("A", 7), ("B", 8), ("C", 8), ("D", 8)]
    return ([["axioms", "--series", s, "--n", str(r)] for s, r in cases]
            + [["axioms", "--series", "A", "--n", "3", "--corrupted"],
               ["pfaffian", "--count", "500", "--max-size", "10"]])


def _orthogonality(harness: str, lambdas: List[str],
                   backend: str) -> List[str]:
    argv = ["orthogonality", "--harness", harness]
    for lam in lambdas:
        argv += ["--lambda", lam]
    return argv + ["--backend", backend]


def _numeric() -> List[List[str]]:
    return [
        ["inversion", "--points", "10"],
        ["limit-check"],
        ["restriction"],
        _orthogonality("HEIS1", ["2"], "closed"),
        _orthogonality("A3", ["1", "3/2"], "closed"),
        _orthogonality("C2", ["1/2", "1"], "closed"),
        _orthogonality("B2", ["2", "1/2"], "closed"),
        _orthogonality("HEIS1", ["1"], "grid"),
        _orthogonality("HEIS2", ["1/2"], "grid"),
        _orthogonality("HEIS3", ["1"], "grid"),
        # fails the homomorphism check in stepwise_rep at the seed version;
        # kept so that the failure is counted, not hidden
        _orthogonality("HEIS3", ["3"], "grid"),
    ]


WORKLOADS: Dict[str, List[List[str]]] = {
    "exact-tables": _exact_tables(),
    "exact-algebra": _exact_algebra(),
    "numeric": _numeric(),
}
