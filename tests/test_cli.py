"""Command-line driver: reports, exit codes, determinism."""

import filecmp
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepsq
import stepsq.cascade as cascade
import stepsq.cli as cli
import stepsq.harness as harness
import stepsq.nilalg as nilalg
import stepsq.rootsys as rootsys
from stepsq.cli import ReportDocument, make_row, run


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_unknown_subcommand_exits_2(tmp_path):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_malformed_rational_exits_2(tmp_path):
    out = str(tmp_path / "o.json")
    assert run(["orthogonality", "--harness", "HEIS1", "--lambda", "two",
                "--out", out]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["restriction", "--lambda1", "-1."], "--lambda1"),
    (["restriction", "--lambda1=-5e-1"], "--lambda1"),
    (["restriction", "--lambda2", "1/0"], "--lambda2"),
    (["orthogonality", "--harness", "HEIS1", "--lambda", "1.5"], "--lambda"),
], ids=["trailing-dot", "exponent", "zero-denominator", "decimal"])
def test_a_bad_rational_names_its_flag(tmp_path, capsys, argv, flag):
    # the rational flags parse through parse_rat as their type, so argparse
    # names the flag, as it does for the float flags
    out = str(tmp_path / "o.json")
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_wrong_lambda_count_exits_2(tmp_path):
    out = str(tmp_path / "o.json")
    assert run(["orthogonality", "--harness", "A3", "--lambda", "1/1",
                "--out", out]) == 2


def test_unsupported_harness_shape_exits_2(tmp_path, capsys):
    # C3 carries symplectic parts below its top layer, which the layered
    # representations do not model, so orthogonality does not offer it
    out = str(tmp_path / "o.json")
    assert run(["orthogonality", "--harness", "C3", "--lambda", "1",
                "--lambda", "1", "--lambda", "1", "--out", out]) == 2
    assert "argument --harness: invalid choice: 'C3'" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, message", [
    (["orthogonality", "--harness", "A3", "--lambda", "1", "--lambda", "1"],
     "configuration error"),
    (["orthogonality", "--harness", "A1", "--lambda", "1"],
     "argument --harness: invalid choice: 'A1'"),
], ids=["A3-two-layers", "A1-no-symplectic-part"])
def test_grid_path_needs_one_symplectic_layer(tmp_path, capsys, argv, message):
    # A3 has two layers, so grid states do not serve it; A1 has D = 0, so
    # orthogonality does not offer it on either backend
    out = str(tmp_path / "o.json")
    assert run(argv + ["--backend", "grid", "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


# the CLI with the validation grid pinned to 64 points on [-5, 5)^D, which
# aliases the packets that HEIS3 modulates at lambda = 3
COARSE_GRID_CLI = """
import sys
from stepsq import cli
from stepsq.states import Grid
cli.validation_grid = lambda rep: Grid(rep.D, 64, 5.0)
cli.main()
"""


def test_broken_invariant_exits_1_with_a_report(tmp_path):
    # on a grid too coarse for the state, the grid homomorphism check fails;
    # the run must exit 1 with a report naming it, also under python -O
    out = tmp_path / "o.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepsq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", COARSE_GRID_CLI, "orthogonality",
         "--harness", "HEIS3", "--lambda", "3", "--backend", "grid",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 1, proc.stderr
    doc = read(out)
    assert doc["passed"] is False and doc["inputs"] == {"seed": cli.DEFAULT_SEED}
    [row] = doc["rows"]
    assert row["name"] == "invariant" and row["pass"] is False
    assert row["provenance"].startswith("schrodinger.validate_rep: ")
    assert "grid homomorphism deviation" in row["provenance"]
    assert "invariant failed: schrodinger.validate_rep: " in proc.stderr


def test_invariant_row_names_the_stage(tmp_path, monkeypatch, capsys):
    # a broken commutator puts every bracket outside the span, so building
    # the bracket table raises inside the axioms pipeline; the row and
    # stderr name nilalg.brackets, not cli
    monkeypatch.setattr(nilalg, "sparse_commutator", lambda a, b: {(0, 0): 1})
    out = tmp_path / "a.json"
    assert run(["axioms", "--series", "A", "--n", "3", "--out", str(out)]) == 1
    [row] = read(out)["rows"]
    assert row["name"] == "invariant"
    assert row["provenance"] == ("nilalg.brackets: bracket [(1, 0, -1, 0),"
                                 "(0, 0, 1, -1)] leaves the span")
    assert "invariant failed: nilalg.brackets: " in capsys.readouterr().err
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_grid_orthogonality_at_lambda_3_passes(tmp_path):
    # the validation grid is sized from lambda, so HEIS3 passes here too
    out = str(tmp_path / "o.json")
    assert run(["orthogonality", "--harness", "HEIS3", "--lambda", "3",
                "--backend", "grid", "--out", out]) == 0
    assert read(out)["passed"] is True


def test_grid_lambda_beyond_the_grid_cap_exits_2(tmp_path, capsys):
    out = str(tmp_path / "o.json")
    assert run(["orthogonality", "--harness", "HEIS1", "--lambda", "100000",
                "--backend", "grid", "--out", out]) == 2
    assert "too large for the grid path" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["inversion", "--points", "-1"],
    ["inversion", "--points", str(cli.MAX_POINTS + 1)],
    ["inversion", "--points", "100000000"],
    ["inversion", "--tolerance", "0"],
    ["inversion", "--tolerance", "-1"],
    ["inversion", "--tolerance", "nan"],
    ["limit-check", "--tolerance", "inf"],
    ["limit-check", "--zeta", "nan"],
    ["pfaffian", "--count", "-1"],
    ["pfaffian", "--count", str(cli.MAX_COUNT + 1)],
    ["pfaffian", "--count", "100000000"],
    ["pfaffian", "--max-size", "0"],
    ["pfaffian", "--max-size", "21"],
    ["pfaffian", "--count", str(cli.MAX_COUNT), "--max-size", "20"],
    ["pfaffian", "--count", str(cli.max_pfaffian_count(16) + 1),
     "--max-size", "16"],
])
def test_bad_numeric_inputs_exit_2(tmp_path, capsys, argv):
    out = str(tmp_path / "r.json")
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert argv[1] in err  # the message names the flag
    assert not os.path.exists(out)


def test_the_largest_pfaffian_count_at_size_20_stays_cheap(tmp_path):
    # the expansion oracle is exponential in the size (10,000 matrices at
    # size 20 took 40 s); the cap falls with the size, so its largest
    # accepted count there runs in well under 5 s, and the default count
    # 500 holds at the default --max-size 10
    assert cli.max_pfaffian_count(10) == cli.MAX_COUNT
    out = str(tmp_path / "p.json")
    start = time.perf_counter()
    assert run(["pfaffian", "--count", str(cli.max_pfaffian_count(20)),
                "--max-size", "20", "--out", out]) == 0
    assert time.perf_counter() - start < 5.0


def test_limit_check_far_from_the_identity_keeps_every_row(tmp_path):
    # f(x) = exp(-100 pi) at zeta = 10, which the closed form still resolves
    out = str(tmp_path / "l.json")
    assert run(["limit-check", "--zeta", "10", "--out", out]) == 0
    assert len(read(out)["rows"]) == 12


def test_limit_check_where_f_underflows_exits_2(tmp_path, capsys):
    # f(x) = exp(-2500 pi) is 0 in double precision, so no residual relative
    # to it is defined
    out = str(tmp_path / "l.json")
    assert run(["limit-check", "--zeta", "50", "--out", out]) == 2
    assert "|f(x)| = 0 underflows at log x = [50.]" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_inversion_enforces_requested_tolerance(tmp_path):
    # the residuals are far below 1e-4, so a tolerance finer than them fails
    # the rows only if the requested tolerance is the enforced one
    out = str(tmp_path / "i.json")
    assert run(["inversion", "--points", "1", "--tolerance", "1e-20",
                "--out", out]) == 1
    assert read(out)["passed"] is False


@pytest.mark.parametrize("argv,rows,residuals", [
    (["inversion", "--points", "2", "--tolerance", "1e-300"], 4,
     ["identity_rel_error", "point_0_rel_error", "point_1_rel_error"]),
    (["limit-check", "--tolerance", "1e-17"], 12,
     ["stage_small_rel_error", "stage_big_rel_error"]),
])
def test_a_budget_over_the_tolerance_fails_its_rows(tmp_path, argv, rows,
                                                    residuals):
    # every row stays in the report: the residual rows fail and name the
    # budget, and so does the two-stage agreement; the exact rows pass
    out = str(tmp_path / "r.json")
    assert run(argv + ["--out", out]) == 1
    doc = read(out)
    assert len(doc["rows"]) == rows
    failed = {r["name"]: r for r in doc["rows"] if not r["pass"]}
    if argv[0] == "limit-check":
        assert failed.pop("two_stage_agreement")
    assert sorted(failed) == sorted(residuals)
    for row in failed.values():
        assert re.fullmatch(r"reconstruction residual; error budget \S+ "
                            rf"exceeds the tolerance {argv[-1]}",
                            row["provenance"])


def test_cascade_report(tmp_path):
    out = str(tmp_path / "c.json")
    assert run(["cascade", "--series", "C", "--n", "3", "--out", out]) == 0
    doc = read(out)
    assert doc["passed"] is True
    names = [r["name"] for r in doc["rows"]]
    assert names == ["cascade_length", "beta_1", "beta_2", "beta_3"]
    beta2 = next(r for r in doc["rows"] if r["name"] == "beta_2")
    assert beta2["predicted"] == beta2["measured"]


def test_orthogonality_report_heis1(tmp_path):
    out = str(tmp_path / "o.json")
    assert run(["orthogonality", "--harness", "HEIS1", "--lambda", "2/1",
                "--out", out]) == 0
    doc = read(out)
    row = next(r for r in doc["rows"] if r["name"] == "coefficient_norm")
    assert row["predicted"] == 0.5
    assert abs(row["measured"] - 0.5) < 1e-6


def test_corrupted_axioms_detected(tmp_path):
    out = str(tmp_path / "a.json")
    assert run(["axioms", "--series", "A", "--n", "3", "--corrupted",
                "--out", out]) == 0
    doc = read(out)
    assert doc["rows"][0]["name"] == "corrupted_control_detected"
    assert doc["rows"][0]["pass"] is True


@pytest.mark.parametrize("series,n", [("C", "5"), ("D", "1"), ("A", "4")])
def test_corrupted_control_is_only_the_a3_fixture(tmp_path, capsys, series, n):
    out = tmp_path / "a.json"
    assert run(["axioms", "--series", series, "--n", n, "--corrupted",
                "--out", str(out)]) == 2
    assert "A3 fixture" in capsys.readouterr().err
    assert not out.exists()


def test_restriction_report(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["restriction", "--lambda2", "2", "--out", out]) == 0
    doc = read(out)
    row = next(r for r in doc["rows"] if r["name"] == "renormalization_factor")
    assert abs(row["measured"] - 0.5) < 1e-12


def test_limit_check_report(tmp_path):
    out = str(tmp_path / "l.json")
    assert run(["limit-check", "--out", out]) == 0
    doc = read(out)
    names = {r["name"] for r in doc["rows"]}
    assert "incoherent_family_detected" in names
    assert "C_cascade_stable" in names and "A_odd_cascade_stable" in names
    assert not any(name.endswith("_aligned") for name in names)


def test_quick_all_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["all", "--quick", "--out", a]) == 0
    assert run(["all", "--quick", "--out", b]) == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_report_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("STEPSQ_REPORT_DIR", str(tmp_path))
    assert run(["roots", "--series", "A", "--n", "2"]) == 0
    assert (tmp_path / "roots.json").exists()


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4}))
    out = str(tmp_path / "r.json")
    assert run(["roots", "--series", "A", "--n", "2", "--config", str(cfg),
                "--out", out]) == 0
    assert read(out)["inputs"]["rank"] == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["roots", "--series", "A", "--n", "2", "--config", str(bad),
                "--out", out]) == 2


def test_parser_cache_keeps_runs_independent(tmp_path):
    # a command's parser is built once per process; a config override of
    # one run must not leak into the defaults of the next
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 0}))
    out = str(tmp_path / "r.json")
    assert run(["inversion", "--config", str(cfg), "--out", out]) == 0
    assert read(out)["inputs"]["points"] == 0
    assert run(["inversion", "--out", out]) == 0
    assert read(out)["inputs"]["points"] == 10
    assert run(["inversion", "--points", "ten", "--out", out]) == 2
    assert cli._command_parser("inversion") is cli._command_parser("inversion")


# every parser that the code builds, by its prog, before and after one run
COUNT_PARSERS = """
import argparse, json, sys
progs = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    init(self, *args, **kwargs)
    progs.append(self.prog)
argparse.ArgumentParser.__init__ = counted
from stepsq import cli
at_import = list(progs)
code = cli.run(sys.argv[1:])
print(json.dumps([at_import, progs, code]))
"""


def test_a_run_builds_only_its_command_parser(tmp_path):
    at_import, progs, code = fresh_interpreter(
        COUNT_PARSERS, "roots", "--series", "A", "--n", "2", "--out",
        str(tmp_path / "r.json"))
    assert (at_import, progs, code) == ([], ["stepsq roots"], 0)


def test_help_lists_every_subcommand(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: stepsq ")
    for command in ("roots", "cascade", "layers", "axioms", "pfaffian",
                    "orthogonality", "restriction", "inversion",
                    "limit-check", "all"):
        assert f"{command}," in out or f",{command}}}" in out


def test_a_bad_flag_names_its_command(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert run(["roots", "--series", "A", "--n", "two", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: stepsq roots ")
    assert "stepsq roots: error: argument --n: invalid int value" in err
    assert run(["roots", "--series", "A", "--n", "2", "--bogus"]) == 2
    assert "stepsq: error: unrecognized arguments: --bogus" in (
        capsys.readouterr().err)
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,status,unbuffered", [
    (["roots", "--series", "A", "--n", "2"], 0, False),
    (["roots", "--series", "A", "--n", "2"], 0, True),
    (["inversion", "--points", "0", "--tolerance", "1e-300"], 1, False),
    (["--help"], 0, False), (["layers", "--help"], 0, False)])
def test_a_closed_stdout_keeps_the_exit_code(tmp_path, argv, status,
                                             unbuffered):
    # the reader of stdout is gone before the run writes to it: the status
    # line and the help text are best effort, the exit code the checks' own
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepsq.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": "1"} if unbuffered
                                  else {}))
    out = tmp_path / "r.json"
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stepsq", *argv]
            + ([] if "--help" in argv else ["--out", str(out)]),
            stdout=writer, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(writer)
    assert proc.returncode == status, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert out.exists() is ("--help" not in argv)
    if out.exists():
        assert read(out)["passed"] is (status == 0)


# JSON values of every kind, surrogate text and non-finite floats among them
JSON_TEXT = st.text(st.one_of(st.characters(),
                              st.characters(categories=["Cs"])), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(min_value=-2 ** 200, max_value=2 ** 200),
              st.floats(), st.sampled_from([-0.0, math.nan, math.inf,
                                            -math.inf, 5e-324, 1e308]),
              JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=16)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(value=JSON_VALUES)
def test_emit_writes_what_json_dumps_writes(value):
    assert cli._emit(value) == json.dumps(value, indent=2, sort_keys=True)


def test_emit_raises_type_error_on_a_non_str_key_or_an_unknown_type():
    for value in ({1: "a"}, {None: 1}, {"a": [{2.5: 1}]}, object(), {1, 2}):
        with pytest.raises(TypeError):
            cli._emit(value)


@pytest.mark.parametrize("argv", [
    ["inversion", "--points", "2", "--tolerance", "1e-300"],
    ["limit-check", "--tolerance", "1e-17"]])
def test_failing_reports_are_written_as_json_dumps(tmp_path, argv):
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == 1
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("cmd", ["roots", "cascade", "layers"])
def test_one_root_system_per_exact_invocation(tmp_path, monkeypatch, cmd):
    calls = []
    build = rootsys.build_root_system

    def counted(*args):
        calls.append(args)
        return build(*args)

    def no_solve(*args):
        raise AssertionError("Fraction elimination on the exact-table path")

    for module in (rootsys, cascade, cli):
        monkeypatch.setattr(module, "build_root_system", counted,
                            raising=False)
        monkeypatch.setattr(module, "simple_coordinates_all", no_solve,
                            raising=False)
    out = str(tmp_path / "r.json")
    assert run([cmd, "--series", "C", "--n", "5", "--out", out]) == 0
    assert calls == [("C", 5)]


@pytest.mark.parametrize("argv,config", [
    (["inversion"], {"points": "ten"}),
    (["orthogonality", "--harness", "HEIS1", "--lambda", "1"],
     {"backend": "fft"}),
    (["roots", "--series", "A", "--n", "2"], {"points": 3}),
], ids=["type", "choices", "unknown-key"])
def test_bad_config_values_exit_2(tmp_path, capsys, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = str(tmp_path / "r.json")
    assert run(argv + ["--config", str(cfg), "--out", out]) == 2
    assert "bad config file" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_module_entry_point(tmp_path):
    out = tmp_path / "r.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepsq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "stepsq.cli", "roots", "--series", "A",
         "--n", "2", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = read(out)
    assert doc["command"] == "roots" and doc["passed"] is True


def test_package_entry_point(tmp_path):
    out = tmp_path / "r.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepsq.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "stepsq", "roots", "--series", "A", "--n", "3",
         "--out", str(out)], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = read(out)
    assert doc["command"] == "roots" and doc["inputs"]["rank"] == 3
    proc = subprocess.run([sys.executable, "-m", "stepsq"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepsq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import stepsq.cli, sys; sys.exit('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr


def fresh_interpreter(code, *args):
    """Run code in a new interpreter that imports stepsq from this checkout;
    return what it prints, as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stepsq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


RUN_AND_LIST_NUMPY = """
import json, sys
from stepsq.cli import run
out, commands = sys.argv[1], sys.argv[2:]
codes = [run(cmd.split() + ["--out", f"{out}/{i}.json"])
         for i, cmd in enumerate(commands)]
print(json.dumps([codes, "numpy._core" in sys.modules,
                  "numpy.random" in sys.modules]))
"""


def test_exact_commands_do_not_load_numpy(tmp_path):
    codes, loaded, _ = fresh_interpreter(
        RUN_AND_LIST_NUMPY, str(tmp_path), "roots --series B --n 4",
        "cascade --series C --n 5", "layers --series D --n 4",
        "axioms --series A --n 5", "axioms --series A --n 3 --corrupted",
        "pfaffian --count 5")
    assert codes == [0, 0, 0, 0, 0, 0]
    assert not loaded


def test_numeric_commands_load_numpy_on_use(tmp_path):
    codes, loaded, _ = fresh_interpreter(
        RUN_AND_LIST_NUMPY, str(tmp_path), "inversion --points 1")
    assert codes == [0]
    assert loaded


def test_numeric_commands_never_load_numpy_random(tmp_path):
    # every draw is a random.Random one; numpy.random and the modules it
    # pulls in (hashlib, hmac, secrets) are 17 modules and about 2.5 MB
    codes, loaded, random_loaded = fresh_interpreter(
        RUN_AND_LIST_NUMPY, str(tmp_path), "inversion --points 1",
        "restriction", "limit-check",
        "orthogonality --harness A3 --lambda 1 --lambda 3/2",
        "orthogonality --harness HEIS1 --lambda 1 --backend grid")
    assert codes == [0, 0, 0, 0, 0]
    assert loaded and not random_loaded


def test_numpy_imported_first_is_used_as_is():
    assert fresh_interpreter(
        "import json, numpy, stepsq.harness, stepsq.schrodinger\n"
        "print(json.dumps([stepsq.harness.np is numpy,"
        " stepsq.schrodinger.np is numpy, type(numpy) is type(json)]))"
    ) == [True, True, True]


def test_make_row_exact_and_tolerant():
    row = make_row("x", 1.0, 1.0 + 5e-7, 1e-6, "p")
    assert row["pass"] and row["abs_err"] < 1e-6
    row = make_row("x", 1.0, 1.1, 1e-6, "p")
    assert not row["pass"]
    row = make_row("x", ["1/1"], ["1/1"], 0, "p")
    assert row["pass"] and row["abs_err"] is None
    row = make_row("x", 0.0, 3e-16, 1e-6, "p")
    assert row["pass"] and row["abs_err"] == 3e-16 and row["rel_err"] is None


def test_all_report_has_no_huge_numbers(tmp_path):
    # a relative error against a zero prediction used to divide by 1e-300
    out = str(tmp_path / "all.json")
    assert run(["all", "--seed", "7", "--out", out]) == 0

    def numbers(x):
        if isinstance(x, dict):
            x = list(x.values())
        if isinstance(x, list):
            return [y for v in x for y in numbers(v)]
        return [x] if isinstance(x, (int, float)) and not isinstance(x, bool) else []

    found = numbers(read(out))
    assert found and max(abs(x) for x in found) <= 1e30


def test_failing_row_exits_1(tmp_path, monkeypatch):
    def broken(series, rank):
        return {"series": series, "rank": rank}, [
            make_row("always_fails", 1.0, 2.0, 1e-9, "synthetic")]
    monkeypatch.setattr(cli, "pipeline_roots", broken)
    out = str(tmp_path / "r.json")
    assert run(["roots", "--series", "A", "--n", "2", "--out", out]) == 1
    assert read(out)["passed"] is False


def test_report_schema_validated():
    doc = ReportDocument("x", {}, (make_row("r", 1, 1, 0, "p"),)).to_json()
    for key in ("command", "inputs", "rows", "passed", "timing_s"):
        assert key in doc
    assert doc["timing_s"] is None
    with pytest.raises(AssertionError):
        cli._validate_report({"command": "x"})


def test_timing_flag_populates_field(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["roots", "--series", "A", "--n", "2", "--timing",
                "--out", out]) == 0
    assert isinstance(read(out)["timing_s"], float)


@pytest.mark.parametrize("argv", [
    ["--harness", "HEIS1", "--lambda", "2"],
    ["--harness", "A3", "--lambda", "1", "--lambda", "3/2"],
    ["--harness", "HEIS3", "--lambda=-323/10"],
    ["--harness", "HEIS2", "--lambda", "1/10000"],
], ids=["HEIS1", "A3", "HEIS3-large", "HEIS2-small"])
def test_density_abs_comes_from_the_exact_layer(tmp_path, monkeypatch, argv):
    # the float |Pf| of the harness pairings is doubled; the density row,
    # whose tolerance is relative to |Pf|, must notice at large and small
    # |Pf| alike, while the coefficient norm reads neither it nor the pairing
    real = harness.OrbitDescriptor.pf_abs
    monkeypatch.setattr(harness.OrbitDescriptor, "pf_abs",
                        property(lambda self: 2 * real.fget(self)))
    out = str(tmp_path / "o.json")
    assert run(["orthogonality", *argv, "--out", out]) == 1
    rows = {row["name"]: row for row in read(out)["rows"]}
    assert rows["density_abs"]["pass"] is False
    assert rows["coefficient_norm"]["pass"] is True


def test_the_renormalization_factor_reads_the_big_density(tmp_path,
                                                          monkeypatch):
    # |Pf| of the big stage alone is doubled, so the factor sqrt of the
    # density ratio is off by sqrt 2; both factor rows, whose tolerances are
    # relative to the factor, must notice at a factor near 1/|lambda2| = 10^7
    real = harness.OrbitDescriptor.pf_abs
    monkeypatch.setattr(harness.OrbitDescriptor, "pf_abs", property(
        lambda self: real.fget(self) * (2 if self.harness.top.d_r else 1)))
    out = str(tmp_path / "o.json")
    assert run(["restriction", "--lambda2", "1/10000000", "--out", out]) == 1
    rows = {row["name"]: row for row in read(out)["rows"]}
    assert rows["renormalization_factor"]["pass"] is False
    assert rows["factor_square_root_consistent"]["pass"] is False
    assert rows["squared_factor_exact"]["pass"] is True


def test_missing_report_directory_exits_2_before_computing(tmp_path, capsys,
                                                           monkeypatch):
    def never(*args):
        raise RuntimeError("the pipeline ran")
    monkeypatch.setattr(cli, "pipeline_roots", never)
    out = tmp_path / "missing" / "r.json"
    assert run(["roots", "--series", "A", "--n", "2", "--out", str(out)]) == 2
    assert "no directory" in capsys.readouterr().err
    assert not out.parent.exists()


def test_report_is_replaced_atomically(tmp_path, capsys):
    out = tmp_path / "r.json"
    out.write_text("stale")
    argv = ["roots", "--series", "A", "--n", "2", "--out"]
    assert run(argv + [str(out)]) == 0
    assert read(out)["passed"] is True
    assert os.listdir(tmp_path) == ["r.json"]  # no temporary file is left
    # a path that a file cannot replace exits 2, without a traceback
    (tmp_path / "d").mkdir()
    assert run(argv + [str(tmp_path / "d")]) == 2
    assert "cannot write the report" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["d", "r.json"]


def test_pfaffian_row_catches_a_sign_error(tmp_path, monkeypatch):
    # Pf^2 = det cannot see a wrong sign; the first-row expansion can
    real = cli.pfaffian
    monkeypatch.setattr(cli, "pfaffian", lambda m: -real(m))
    out = str(tmp_path / "p.json")
    assert run(["pfaffian", "--count", "20", "--out", out]) == 1
    row = read(out)["rows"][0]
    assert row["name"] == "pf_matches_expansion" and row["pass"] is False
    assert 0 < row["measured"] < row["predicted"] == 20


PQ_PAIRS = [(p, q) for p in range(-9, 10) for q in range(1, 10)]


def _scalar_skew(rng, n):
    """The per-entry builder: a scalar draw of one of the 19 * 9 (p, q)
    pairs per upper entry, in row order."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(*rng.choices(PQ_PAIRS)[0])
            m[i][j], m[j][i] = v, -v
    return m


def _drawn_skews(monkeypatch, count, max_size, seed):
    """The matrices that pipeline_pfaffian checks, in draw order, and the
    table of (p/q, -p/q) pairs that it draws their entries from."""
    drawn, tables, real = [], [], cli._random_skew

    def record(rng, n, table):
        drawn.append(real(rng, n, table))
        tables.append(table)
        return drawn[-1]

    monkeypatch.setattr(cli, "_random_skew", record)
    cli.pipeline_pfaffian(count, max_size, seed)
    assert len(drawn) == count
    return drawn, tables[0]


@pytest.mark.parametrize("max_size", [1, 2, 10, 20])
@pytest.mark.parametrize("seed", [1, 7, 20240801])
def test_pfaffian_inputs_keep_the_scalar_draw_order(monkeypatch, seed,
                                                    max_size):
    # the report only counts matches, so compare the matrices themselves
    rng = random.Random(seed)
    for m in _drawn_skews(monkeypatch, 40, max_size, seed)[0]:
        assert m == _scalar_skew(rng, rng.randint(1, max_size))


def test_pfaffian_inputs_cover_every_pair_and_size(monkeypatch):
    drawn, table = _drawn_skews(monkeypatch, 200, 10, 7)
    assert {len(m) for m in drawn} == set(range(1, 11))
    # equal values such as 1/2 and 2/4 are distinct table objects, so the
    # objects drawn tell which of the 19 * 9 (p, q) pairs each entry took
    assert table == [(Fraction(p, q), -Fraction(p, q)) for p, q in PQ_PAIRS]
    pair = {id(v): k for k, (v, _) in enumerate(table)}
    entries = [pair[id(m[i][j])] for m in drawn for i in range(len(m))
               for j in range(i + 1, len(m))]
    assert len(entries) > 3000
    assert sorted(set(entries)) == list(range(19 * 9))


def test_pfaffian_at_the_largest_size(tmp_path):
    out = str(tmp_path / "p.json")
    assert run(["pfaffian", "--max-size", "20", "--count", "50",
                "--out", out]) == 0
    assert read(out)["rows"][0]["measured"] == 50


HUGE = "1" + "0" * 400  # an integer no float holds


@pytest.mark.parametrize("argv", [
    ["orthogonality", "--harness", "HEIS1", "--lambda", HUGE],
    ["restriction", "--lambda1", HUGE],
    ["restriction", "--lambda2", f"{HUGE}/3"],
], ids=["lambda", "lambda1", "lambda2"])
def test_rationals_too_large_for_a_float_exit_2(tmp_path, capsys, argv):
    out = str(tmp_path / "r.json")
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: " in err and "Traceback" not in err
    assert argv[-1] in err  # the message names the flag and the value
    assert not os.path.exists(out)


def tenpow(k):
    """10^k as the integer 1 followed by k zeros."""
    return "1" + "0" * k


@pytest.mark.parametrize("argv", [
    ["orthogonality", "--harness", "HEIS3", "--lambda", tenpow(308)],
    ["orthogonality", "--harness", "HEIS3", "--lambda", tenpow(308),
     "--backend", "grid"],
    ["orthogonality", "--harness", "HEIS3", "--lambda", f"1/{tenpow(150)}",
     "--backend", "grid"],
    ["orthogonality", "--harness", "HEIS2", "--lambda", f"1/{tenpow(200)}",
     "--backend", "grid"],
    ["orthogonality", "--harness", "HEIS3", "--lambda", f"1/{tenpow(103)}",
     "--backend", "grid"],
    ["orthogonality", "--harness", "HEIS2", "--lambda", tenpow(200)],
    ["restriction", "--lambda2", tenpow(200)],
], ids=["HEIS3-1e308", "HEIS3-1e308-grid", "HEIS3-1e-150-grid",
        "HEIS2-1e-200-grid", "HEIS3-1e-103-grid", "HEIS2-1e200",
        "restriction-1e200"])
def test_a_density_beyond_float_range_exits_2(tmp_path, capsys, argv):
    # |Pf| overflows to inf, underflows to 0 or is subnormal (1e-309 at
    # HEIS3, lambda = 1e-103): no regular functional, so no report
    out = str(tmp_path / "r.json")
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert "the functional lambda = [" in err and "is not regular" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["restriction", "--lambda1", tenpow(100), "--lambda2=-3/2"],
    ["restriction", "--lambda1", "1200000"],
    ["orthogonality", "--harness", "C2", "--lambda", "2000000", "--lambda", "1"],
], ids=["restriction-1e100", "restriction-1.2e6", "C2-2e6"])
def test_a_line_layer_phase_without_digits_exits_2(tmp_path, capsys, argv):
    # a line layer acts by the phase 2 pi lambda_1 zeta alone; once the
    # bound on its rounding reaches the 1e-8 of the representation check,
    # the check may fail on float noise (restriction at 10^100 exited 1)
    out = str(tmp_path / "r.json")
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert "on line layer 1 is too large for a float phase" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["orthogonality", "--harness", "HEIS1", "--lambda", f"1/{tenpow(8)}"],
    ["orthogonality", "--harness", "HEIS3", "--lambda", f"1/{tenpow(100)}"],
    ["restriction", "--lambda2", f"1/{tenpow(50)}"],
    ["restriction", "--lambda2", f"1/{tenpow(100)}"],
], ids=["HEIS1-1e-8", "HEIS3-1e-100", "restriction-1e-50",
        "restriction-1e-100"])
def test_a_small_symplectic_lambda_keeps_its_norm(tmp_path, argv):
    # the closed norm is of order 1/|lambda|^D there; it exited 1 (a norm
    # 2.9 % off at 1e-8, a form not positive definite below) while the
    # quadratic form was read from exponent values
    out = str(tmp_path / "r.json")
    assert run(argv + ["--out", out]) == 0
    assert all(row["pass"] for row in read(out)["rows"])


def test_a_line_layer_phase_below_the_bound_is_checked(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["restriction", "--lambda1", "1100000", "--out", out]) == 0


@pytest.mark.parametrize("command", [
    "pfaffian", "inversion", "restriction", "roots --series A --n 2"])
def test_a_negative_seed_exits_2(tmp_path, capsys, command):
    out = str(tmp_path / "r.json")
    assert run(command.split() + ["--seed", "-1", "--out", out]) == 2
    assert "--seed" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": -1}))
    assert run(command.split() + ["--config", str(cfg), "--out", out]) == 2
    assert "is negative" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("harness,lam", [
    ("HEIS1", tenpow(308)), ("HEIS1", tenpow(7)), ("HEIS3", "2000000"),
    ("HEIS2", tenpow(8)),
], ids=["HEIS1-1e308", "HEIS1-1e7", "HEIS3-2e6", "HEIS2-1e8"])
def test_a_top_layer_phase_without_digits_exits_2(tmp_path, capsys, harness,
                                                  lam):
    # the top layer's phase and modulation are as large as a line layer's
    # phase, so the same bound applies: HEIS1 at 10^308 overflowed to NaN
    # states and exited 1 through the invariant row, and at 10^7 the check
    # failed on float noise
    out = str(tmp_path / "r.json")
    assert run(["orthogonality", "--harness", harness, "--lambda", lam,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert "on symplectic layer 1 is too large for a float phase" in err
    assert not os.path.exists(out)


def test_a_top_layer_phase_below_the_bound_is_checked(tmp_path):
    out = str(tmp_path / "r.json")
    assert run(["orthogonality", "--harness", "C2", "--lambda", "1",
                "--lambda", "1100000", "--out", out]) == 0


def test_homogeneity_rows_read_the_closed_form_degree(tmp_path, monkeypatch):
    # one closed-form layer dimension off by one must fail its row
    real = cli.closed_form_layer_dims

    def off_by_one(series, rank):
        dims = real(series, rank)
        return dims[:-1] + (dims[-1] + 1,) if series == "C" else dims

    monkeypatch.setattr(cli, "closed_form_layer_dims", off_by_one)
    out = str(tmp_path / "p.json")
    assert run(["pfaffian", "--count", "0", "--out", out]) == 1
    rows = {row["name"]: row["pass"] for row in read(out)["rows"]}
    assert rows == {"pf_matches_expansion": True, "homogeneity_A3": True,
                    "homogeneity_C2": False, "homogeneity_B2": True}


def test_config_nested_too_deep_exits_2(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000)
    out = str(tmp_path / "r.json")
    assert run(["roots", "--series", "A", "--n", "2", "--config", str(cfg),
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert "bad config file" in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("cmd", ["roots", "cascade", "layers", "axioms"])
def test_rank_above_32_exits_2_before_building(tmp_path, capsys, monkeypatch,
                                               cmd):
    def refuse(*args):
        raise AssertionError("built a root system for a rank above the cap")

    for module in (cli, nilalg):
        monkeypatch.setattr(module, "build_root_system", refuse)
    out = str(tmp_path / "r.json")
    assert run([cmd, "--series", "D", "--n", "33", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--n" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("cmd,series", [("roots", "D"), ("cascade", "B"),
                                        ("cascade", "C"), ("cascade", "D"),
                                        ("layers", "B"), ("layers", "C"),
                                        ("layers", "D"), ("axioms", "C"),
                                        ("axioms", "D")])
def test_rank_32_runs(tmp_path, cmd, series):
    out = str(tmp_path / "r.json")
    assert run([cmd, "--series", series, "--n", "32", "--out", out]) == 0
    assert read(out)["inputs"]["rank"] == 32


@pytest.mark.parametrize("argv", [
    ["orthogonality", "--harness", "HEIS1", "--lambda", "-1/2"],
    ["restriction", "--lambda2", "-1/2"],
    ["limit-check", "--zeta", "-5e-1"],
    ["limit-check", "--zeta", "-1."],
    ["limit-check", "--zeta", "-.5", "--tolerance", "1e-3"],
])
def test_a_negative_value_may_be_its_own_token(tmp_path, argv):
    two, one = str(tmp_path / "two.json"), str(tmp_path / "one.json")
    assert run(argv + ["--out", two]) == 0
    joined = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    assert run([argv[0], *joined, "--out", one]) == 0
    assert filecmp.cmp(two, one, shallow=False)


def test_a_token_of_a_minus_and_a_letter_is_read_as_a_flag(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert run(["limit-check", "--zeta", "-inf", "--out", out]) == 2
    assert "--zeta: expected one argument" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("series", ["AB", "", "ABCD"])
def test_series_is_one_letter(tmp_path, capsys, monkeypatch, series):
    def refuse(*args):
        raise AssertionError("built a root system for a bad series")

    for module in (cli, nilalg):
        monkeypatch.setattr(module, "build_root_system", refuse)
    out = str(tmp_path / "r.json")
    assert run(["roots", f"--series={series}", "--n", "2", "--out", out]) == 2
    assert "invalid choice" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"series": series}))
    assert run(["roots", "--series", "A", "--n", "2", "--config", str(cfg),
                "--out", out]) == 2
    assert "is not one of" in capsys.readouterr().err
    assert not os.path.exists(out)
