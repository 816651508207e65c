"""The exit-code contract of the CLI as a property of drawn inputs.

For every drawn argv of every subcommand, and for drawn ``--config`` files,
``cli.run`` returns 0, 1 or 2, no exception escapes it and stderr holds no
traceback; exit 2 leaves no report, and exits 0 and 1 write one that matches
the published schema, with ``passed`` true exactly when the exit is 0.

The functional values are drawn from valid, boundary, junk and extreme sets;
the extreme ones reach |Pf| beyond float range, or a phase 2 pi lambda zeta
with no correct digit, which must be exit 2 with a message, not a traceback.
``orthogonality`` mostly takes one value per layer of its harness, so most
draws reach the pipeline rather than the count check.  ``pfaffian`` draws
``--max-size`` around [1, 20] and ``--count`` either small or just past the
cap that falls with the size (``cli.max_pfaffian_count``), which must exit
2.  ``roots``, ``cascade``, ``layers`` and ``axioms`` draw ``--series`` with
junk values, ``--n`` in [-2, 40] (above ``cli.MAX_RANK`` exit 2) and
``--corrupted``; ``inversion`` draws ``--points`` around 0 and just past
``cli.MAX_POINTS``, and it and ``limit-check`` draw ``--tolerance`` and
``--zeta`` among zero, NaN, infinities and extremes.  Some draws carry a
``--seed``, and a negative one exits 2.  Some draws write each negative
value as its own token (``--zeta -0.5`` for ``--zeta=-0.5``), which the
parser takes as a value when it starts with "-" and a digit or "." and
rejects otherwise (``--zeta -inf``, exit 2).  Config files draw keys among the
command's flags and values of every JSON type; the top-level paths (no
command, an unknown one, ``--help``) exit 0 or 2 with no report.
"""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
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
    parser = cli._command_parser(command)
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
SERIES = st.sampled_from(list(choices("roots", "series")) * 3
                         + ["", "E", "a", "AB", "ABCD", "1"])
RANKED = st.builds(
    lambda command, series, n, corrupted: [
        command, f"--series={series}", f"--n={n}"] + ["--corrupted"] * corrupted,
    st.sampled_from(cli.COMMANDS[:4]), SERIES,
    st.integers(min_value=-2, max_value=40), st.sampled_from([0, 0, 0, 1]))
FLOATS = ["0", "-0.0", "nan", "inf", "-inf", "-1", "1e-300", "1e-17", "1e-6",
          "1e-3", "1", "1e308", "-1e308", "abc", ""]
TOLERANCES = st.sampled_from(FLOATS + ["1e-6", "1e-3"] * 4)
INVERSION = st.builds(
    lambda points, tolerance: ["inversion", f"--points={points}",
                               f"--tolerance={tolerance}"],
    st.sampled_from([-2, -1, 0, 1, 2, 3] * 2
                    + [cli.MAX_POINTS + 1, cli.MAX_POINTS + 2, 10 ** 8]),
    TOLERANCES)
LIMIT_CHECK = st.builds(
    lambda zeta, tolerance: ["limit-check", f"--zeta={zeta}",
                             f"--tolerance={tolerance}"],
    st.one_of(st.sampled_from(FLOATS + ["0.6", "-3"]),
              st.floats(min_value=-10, max_value=10).map(repr)),
    TOLERANCES)


def two_tokens(argv):
    """argv with each ``--flag=value`` whose value starts with "-" written as
    the two tokens ``--flag value``."""
    return [token for arg in argv
            for token in (arg.split("=", 1) if "=-" in arg else [arg])]


def flag_values(argv):
    """flag -> value of argv's ``--flag=value`` and ``--flag value`` tokens."""
    values = {}
    for arg, after in zip(argv[1:], [*argv[2:], "--"]):
        if "=" in arg:
            flag, value = arg.split("=", 1)
            values[flag[2:]] = value
        elif not after.startswith("--"):
            values[arg[2:]] = after
    return values


ARGV = st.builds(lambda argv, seeds, split: (two_tokens if split else list)(
                     argv + [f"--seed={v}" for v in seeds]),
                 st.one_of(ORTHOGONALITY, RESTRICTION, PFAFFIAN, RANKED,
                           INVERSION, LIMIT_CHECK),
                 st.lists(SEEDS, max_size=1), st.booleans())


def orthogonality(harness, lam, backend="closed"):
    return ["orthogonality", "--harness", harness, f"--lambda={lam}",
            "--backend", backend]


def check_contract(argv, out, status, capsys):
    """The contract of one run that was told to write its report to out."""
    assert status in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    assert os.path.exists(out) is (status != 2)
    if status != 2:
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        cli._validate_report(doc)
        assert doc["passed"] is (status == 0)
        assert doc["command"] == argv[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGV)
@example(argv=orthogonality("HEIS3", tenpow(308)))
@example(argv=orthogonality("HEIS3", tenpow(308), "grid"))
@example(argv=orthogonality("HEIS3", f"1/{tenpow(150)}", "grid"))
@example(argv=orthogonality("HEIS2", f"1/{tenpow(200)}", "grid"))
@example(argv=orthogonality("HEIS3", f"1/{tenpow(103)}", "grid"))
@example(argv=["restriction", f"--lambda1={tenpow(100)}", "--lambda2=-3/2"])
@example(argv=["restriction", "--lambda1", "-1/2", "--lambda2", "-3/2"])
@example(argv=["all", "--quick"])
def test_every_input_keeps_the_exit_code_contract(argv, capsys):
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.json")
        status = cli.run([*argv, "--out", out])
        check_contract(argv, out, status, capsys)
    flags = flag_values(argv)
    if flags.get("seed", "").startswith("-"):
        assert status == 2
    if argv[0] == "pfaffian":
        count, size = int(flags["count"]), int(flags["max-size"])
        if not (1 <= size <= 20
                and 0 <= count <= cli.max_pfaffian_count(size)):
            assert status == 2
    if argv[0] in cli.COMMANDS[:4] and not (
            flags["series"] in ("A", "B", "C", "D")
            and int(flags["n"]) <= cli.MAX_RANK
            and (argv[0] == "axioms" or "--corrupted" not in argv)):
        assert status == 2
    if argv[0] == "inversion" and int(flags["points"]) > cli.MAX_POINTS:
        assert status == 2


# config values of every JSON type, valid ones among them
CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2, max_value=40),
    st.sampled_from([0.5, 1e-300, 1e308, float("nan"), float("inf")]),
    st.sampled_from(["A", "E", "", "1/2", "-3", "1e5", "HEIS1", "x"]),
    st.lists(st.sampled_from(["1", "1/2", "0", "x", 3]), max_size=3),
    st.dictionaries(st.sampled_from(["n", "a"]), st.integers(), max_size=1))
# the cheap commands; --out stays the test's own report path
CONFIG_COMMANDS = {"roots": ["--series", "A", "--n", "2"],
                   "layers": ["--series", "C", "--n", "3"],
                   "restriction": [], "inversion": ["--points", "1"],
                   "limit-check": []}


def configs(command):
    """Config texts for command: objects over its flags and a junk key,
    other JSON values, and text that is not JSON."""
    keys = [a.dest for a in cli._command_parser(command)._actions
            if a.dest not in ("help", "out")] + ["nope"]
    return st.one_of(
        st.dictionaries(st.sampled_from(keys), CONFIG_VALUES,
                        max_size=3).map(json.dumps),
        CONFIG_VALUES.map(json.dumps),
        st.sampled_from(["{nope", "", "[" * 5000, "\ufeff{}"]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_config=st.sampled_from(sorted(CONFIG_COMMANDS)).flatmap(
    lambda command: st.tuples(st.just(command), configs(command))))
def test_every_config_keeps_the_exit_code_contract(command_config, capsys):
    command, text = command_config
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        out, config = os.path.join(tmp, "r.json"), os.path.join(tmp, "c.json")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, *CONFIG_COMMANDS[command], "--config", config]
        check_contract(argv, out, cli.run([*argv, "--out", out]), capsys)


@pytest.mark.parametrize("argv,status", [
    ([], 2), (["bogus"], 2), (["--seed", "1", "roots"], 2), (["--help"], 0),
    *(([command, "--help"], 0) for command in cli.COMMANDS)])
def test_top_level_paths_keep_the_exit_code_contract(argv, status, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.setenv("STEPSQ_REPORT_DIR", str(tmp_path))
    assert cli.run(argv) == status
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert (captured.out.startswith("usage: stepsq") if status == 0
            else captured.err.startswith("usage: stepsq"))
    assert not os.listdir(tmp_path)
