"""Exit code and report digest of every benchmark invocation, for a byte-identity diff.

Runs each command line of ``perfbench/workloads.py``, then ``all`` and
``all --quick``, through ``stepsq.cli.run`` in this one interpreter with the
benchmark's own ``run_pass`` (``perfbench/worker.py``), ``stepsq`` imported
from the checkout's ``src`` directory, and prints one JSON object that maps
each command line to ``[exit status, sha256 of the report]``.  The status
is the exception's name when an invocation raises, and the digest is null
when no report was written.  Two trees give the same reports when the two
outputs are the same::

    python tools/report_digests.py --seed 7 > new.json
    (cd ../other && python tools/report_digests.py --seed 7) > old.json
    diff old.json new.json

The progress lines that ``run`` prints are discarded, and its diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import stepsq.cli as cli
    from worker import run_pass
    from workloads import WORKLOADS

    invocations = [argv for argvs in WORKLOADS.values() for argv in argvs]
    invocations += [["all"], ["all", "--quick"]]
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        record = run_pass(cli, invocations, seed, tmp)
    print(json.dumps({" ".join(i["argv"]): [i["status"], i["digest"]]
                      for i in record["invocations"]}, indent=1))


if __name__ == "__main__":
    main()
