"""The exit-code contract of the CLI as a property of drawn inputs.

For every drawn ``orthogonality`` or ``restriction`` argv, ``cli.run``
returns 0, 1 or 2 and no exception escapes it; exit 2 leaves no report, and
exits 0 and 1 write one that matches the published schema, with ``passed``
true exactly when the exit is 0.  The functional values are drawn from valid,
boundary, junk and extreme sets; the extreme ones reach |Pf| beyond float
range, which must be exit 2 with a message, not a traceback.
"""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepsq import cli


def tenpow(k):
    """10^k as the integer 1 followed by k zeros."""
    return "1" + "0" * k


VALID = ["1", "2", "1/2", "-3/2", "3"]
BOUNDARY = ["0", "-0", "1/-2"]
JUNK = ["", "abc", "1e5", "1/0"]
EXTREME = [v for k in (50, 100, 103, 150, 200, 308, 400)
           for v in (tenpow(k), f"1/{tenpow(k)}")]
LAMBDAS = st.one_of(*map(st.sampled_from, (VALID, BOUNDARY, JUNK, EXTREME)))


def choices(command, dest):
    """The choices of a subcommand's flag, read from the parser itself."""
    parser = cli._build_parser()[1][command]
    return next(a.choices for a in parser._actions if a.dest == dest)


ORTHOGONALITY = st.builds(
    lambda harness, lambdas, backend: [
        "orthogonality", "--harness", harness,
        *(f"--lambda={v}" for v in lambdas), "--backend", backend],
    st.sampled_from(choices("orthogonality", "harness")),
    st.lists(LAMBDAS, max_size=3),
    st.sampled_from(choices("orthogonality", "backend")))
RESTRICTION = st.builds(
    lambda lam1, lam2: ["restriction", f"--lambda1={lam1}",
                        f"--lambda2={lam2}"],
    LAMBDAS, LAMBDAS)


def orthogonality(harness, lam, backend="closed"):
    return ["orthogonality", "--harness", harness, f"--lambda={lam}",
            "--backend", backend]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(argv=st.one_of(ORTHOGONALITY, RESTRICTION))
@example(argv=orthogonality("HEIS3", tenpow(308)))
@example(argv=orthogonality("HEIS3", tenpow(308), "grid"))
@example(argv=orthogonality("HEIS3", f"1/{tenpow(150)}", "grid"))
@example(argv=orthogonality("HEIS2", f"1/{tenpow(200)}", "grid"))
@example(argv=orthogonality("HEIS3", f"1/{tenpow(103)}", "grid"))
def test_every_input_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.json")
        status = cli.run([*argv, "--out", out])
        assert status in (0, 1, 2)
        assert os.path.exists(out) is (status != 2)
        if status != 2:
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            cli._validate_report(doc)
            assert doc["passed"] is (status == 0)
