"""Byte-identical reports: every benchmark invocation, plus ``all`` and
``all --quick``, at ``--seed 7`` against the digests checked in under
``tests/data``, which ``tools/report_digests.py --seed 7`` wrote."""

import hashlib
import json
import pathlib

import numpy as np

from stepsq.cli import run

DIGESTS = (pathlib.Path(__file__).resolve().parent / "data"
           / "report_digests_seed7.json")


def test_reports_match_the_checked_in_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = []
    for i, (command, want) in enumerate(expected.items()):
        out = tmp_path / f"report-{i:03d}.json"
        try:
            status = run(command.split() + ["--seed", "7", "--out", str(out)])
        except Exception as exc:  # recorded by name, as the tool does
            status = type(exc).__name__
        digest = (hashlib.sha256(out.read_bytes()).hexdigest()
                  if out.exists() else None)
        if [status, digest] != want:
            changed.append(f"  {command}: exit {want[0]} -> {status}, "
                           f"digest {want[1]} -> {digest}")
    assert not changed, (
        f"{len(changed)} of {len(expected)} reports differ from "
        f"{DIGESTS.name}:\n" + "\n".join(changed) + "\n"
        "A change that alters reports on purpose regenerates the file with "
        "`python tools/report_digests.py --seed 7` and lists the changed "
        "rows, old and new, in CHANGES.md.  Numeric reports print floats "
        "from numpy and BLAS: if only numeric invocations differ, compare "
        f"the numpy version (this run: {np.__version__}; the file was "
        "written with 2.4.6) before suspecting the code.")
