"""The exit-code contract of the CLI as a property of drawn inputs.

For every drawn ``orthogonality``, ``restriction`` or ``pfaffian`` argv,
``cli.run`` returns 0, 1 or 2 and no exception escapes it; exit 2 leaves no
report, and exits 0 and 1 write one that matches the published schema, with
``passed`` true exactly when the exit is 0.  The functional values are
drawn from valid, boundary, junk and extreme sets; the extreme ones reach
|Pf| beyond float range, or a phase 2 pi lambda zeta with no correct digit,
which must be exit 2 with a message, not a traceback.  ``orthogonality``
mostly takes one value per layer of its harness, so most draws reach the
pipeline rather than the count check.  ``pfaffian`` draws ``--max-size``
around [1, 20] and ``--count`` either small or just past the cap that falls
with the size (``cli.max_pfaffian_count``), which must exit 2.  Some draws
carry a ``--seed``, and a negative one exits 2.
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
SEEDS = st.integers(min_value=-3, max_value=2 ** 70)


def choices(command, dest):
    """The choices of a subcommand's flag, read from the parser itself."""
    parser = cli._build_parser()[1][command]
    return next(a.choices for a in parser._actions if a.dest == dest)


def lambda_lists(harness):
    """Lists of --lambda values: one per layer of harness 7 times in 11,
    otherwise 0 to 3; each value is valid about half the time."""
    m = cli.build_harness(harness).m
    return st.sampled_from([m] * 7 + [0, 1, 2, 3]).flatmap(
        lambda k: st.lists(st.one_of(st.sampled_from(VALID), LAMBDAS),
                           min_size=k, max_size=k))


ORTHOGONALITY = st.sampled_from(choices("orthogonality", "harness")).flatmap(
    lambda harness: st.builds(
        lambda lambdas, backend: [
            "orthogonality", "--harness", harness,
            *(f"--lambda={v}" for v in lambdas), "--backend", backend],
        lambda_lists(harness),
        st.sampled_from(choices("orthogonality", "backend"))))
RESTRICTION = st.builds(
    lambda lam1, lam2: ["restriction", f"--lambda1={lam1}",
                        f"--lambda2={lam2}"],
    LAMBDAS, LAMBDAS)
PFAFFIAN = st.integers(min_value=-1, max_value=22).flatmap(
    lambda size: st.builds(
        lambda count: ["pfaffian", f"--count={count}", f"--max-size={size}"],
        st.one_of(st.integers(min_value=-2, max_value=8),
                  st.sampled_from([cli.max_pfaffian_count(size) + 1,
                                   cli.MAX_COUNT + 1, 10 ** 8]))))
ARGV = st.builds(lambda argv, seeds: argv + [f"--seed={v}" for v in seeds],
                 st.one_of(ORTHOGONALITY, RESTRICTION, PFAFFIAN),
                 st.lists(SEEDS, max_size=1))


def orthogonality(harness, lam, backend="closed"):
    return ["orthogonality", "--harness", harness, f"--lambda={lam}",
            "--backend", backend]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(argv=ARGV)
@example(argv=orthogonality("HEIS3", tenpow(308)))
@example(argv=orthogonality("HEIS3", tenpow(308), "grid"))
@example(argv=orthogonality("HEIS3", f"1/{tenpow(150)}", "grid"))
@example(argv=orthogonality("HEIS2", f"1/{tenpow(200)}", "grid"))
@example(argv=orthogonality("HEIS3", f"1/{tenpow(103)}", "grid"))
@example(argv=["restriction", f"--lambda1={tenpow(100)}", "--lambda2=-3/2"])
def test_every_input_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.json")
        status = cli.run([*argv, "--out", out])
        assert status in (0, 1, 2)
        if any(a.startswith("--seed=-") for a in argv):
            assert status == 2
        if argv[0] == "pfaffian":
            count, size = (int(a.split("=")[1]) for a in argv[1:3])
            if not (1 <= size <= 20
                    and 0 <= count <= cli.max_pfaffian_count(size)):
                assert status == 2
        assert os.path.exists(out) is (status != 2)
        if status != 2:
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            cli._validate_report(doc)
            assert doc["passed"] is (status == 0)
