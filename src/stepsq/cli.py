"""Command-line driver exposing every verification pipeline as JSON reports.

Each subcommand runs one pipeline and writes a report document whose rows
compare an exact-arithmetic prediction with the measured value.  Reports are
deterministic for a fixed seed: timing is only written when requested, and
all randomness flows through one generator, ``random.Random(seed)``, in
every command; ``numpy.random`` is never loaded.

The exact commands (``roots``, ``cascade``, ``layers``, ``axioms``,
``pfaffian``) never load numpy: the numeric modules bind it lazily
(``_numpy``), so it loads at the first ``np.*`` of a numeric command.

A run parses its argv with the named command's parser alone, built on first
use (``_command_parser``), and ``_emit`` writes the report as
``json.dumps(doc, indent=2, sort_keys=True)`` would, byte for byte, without
json's pure-Python encoder (pinned by the digest and property tests).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import random
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Dict, List, Optional, Sequence, Tuple

from .cascade import (cascade_decomposition, closed_form_beta,
                      closed_form_layer_dims)
from .harness import (Harness, build_harness, element, exact_density,
                      identity, leading_subgroup, random_element)
from .inversion import (InversionResult, TestFunction, fourier_inversion,
                        limit_inversion_check, restrict_test_function)
from .limits import (cascade_stability, exact_sqrt, propagate,
                     restriction_projection_factor)
from .nilalg import (corrupted_fixture, realize_split_nilradical,
                     verify_setup_axioms)
from .plancherel import (determinant, pfaffian, pfaffian_expansion,
                         plancherel_density)
from .rootsys import build_root_system, cartan_matrix
from .schrodinger import (coefficient_norm_sq, stepwise_rep, validate_rep,
                          validation_grid)
from .states import GaussianState, GridState

DEFAULT_SEED = 20240801
# largest --n of roots, cascade, layers and axioms: each run takes under 1 s
# on a 2-core Xeon (axioms B32, C32, D32 the longest, at 0.8-0.9 s)
MAX_RANK = 32
# largest --points of inversion: a point takes about 0.5 ms on a 2-core Xeon,
# so 10,000 points run in about 5 s and write a 2 MB report
MAX_POINTS = 10_000
# largest --count of pfaffian, and the largest --max-size at which it holds:
# 10,000 matrices take 1.5 s on a 2-core Xeon at --max-size 10 and 2-3 s at
# 13.  The first-row expansion oracle is exponential in the size (10,000 at
# 20 took 40 s), so above FULL_COUNT_SIZE the cap halves per unit of size
# (``max_pfaffian_count``); every accepted input ran within 3.2 s.
MAX_COUNT = 10_000
FULL_COUNT_SIZE = 13

#: Published shape of every emitted report; validated on emit.
REPORT_SCHEMA = {
    "required": ["command", "inputs", "rows", "passed", "timing_s"],
    "row_required": ["name", "predicted", "measured", "abs_err", "rel_err",
                     "pass", "provenance"],
}


# ---------------------------------------------------------------------------
# report plumbing


def rat_str(x: Q) -> str:
    """Render an exact rational (or an int) as the canonical "p/q" string."""
    if type(x) is int:
        return f"{x}/1"
    x = Q(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Q:
    """Parse a "p/q" (or plain integer) string into an exact rational;
    ValueError for a zero denominator or a float conversion that overflows
    (the flags' ``type``, so argparse names the flag)."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"{s!r} has a zero denominator")
        x = Q(int(num), int(den))
    else:
        x = Q(int(s))
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"{s!r} is too large for a float") from None
    return x


def nonnegative_int(s: str) -> int:
    """Parse an integer flag value that must be at least 0 (``--seed``);
    ValueError otherwise."""
    value = int(s)
    if value < 0:
        raise ValueError(f"{s!r} is negative; expected an integer >= 0")
    return value


def _render(x):
    """A row value as the report writes it: exact rationals as "p/q"."""
    if isinstance(x, Q):
        return rat_str(x)
    return list(x) if isinstance(x, (list, tuple)) else x


def _numeric(x) -> Optional[float]:
    """x as a float when it is a number (not a bool), else None."""
    if isinstance(x, (Q, int, float)) and not isinstance(x, bool):
        return float(x)
    return None


def make_row(name: str, predicted, measured, tolerance: float,
             provenance: str) -> dict:
    """One report row comparing a prediction against a measurement.

    Exact rationals are rendered as "p/q" strings; tolerance 0 requires
    exact equality of the rendered values.  ``rel_err`` is None when the
    prediction is 0, where no relative error is defined.
    """
    pn, mn = _numeric(predicted), _numeric(measured)
    if pn is not None and mn is not None:
        abs_err = abs(pn - mn)
        rel_err = abs_err / abs(pn) if pn else None
        ok = (predicted == measured) if tolerance == 0 else (abs_err <= tolerance)
    else:
        abs_err = rel_err = None
        ok = _render(predicted) == _render(measured)
    return {"name": name, "predicted": _render(predicted),
            "measured": _render(measured), "abs_err": abs_err,
            "rel_err": rel_err, "pass": bool(ok), "provenance": provenance}


@dataclass(frozen=True)
class ReportDocument:
    """Command echo, per-check rows, and the aggregate verdict."""

    command: str
    inputs: dict
    rows: Tuple[dict, ...]
    timing_s: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(row["pass"] for row in self.rows)

    def to_json(self) -> dict:
        doc = {"command": self.command, "inputs": self.inputs,
               "rows": [dict(r) for r in self.rows], "passed": self.passed,
               "timing_s": self.timing_s}
        _validate_report(doc)
        return doc


def _validate_report(doc: dict) -> None:
    """Structural validation against the published schema."""
    rows = doc.get("rows")
    if not (all(key in doc for key in REPORT_SCHEMA["required"])
            and isinstance(rows, list) and isinstance(doc["passed"], bool)
            and all(key in row for row in rows
                    for key in REPORT_SCHEMA["row_required"])
            and all(isinstance(row["pass"], bool) for row in rows)):
        raise AssertionError("report does not match REPORT_SCHEMA")


_ascii = json.encoder.encode_basestring_ascii


def _emit(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte: leaves
    as json's pure-Python encoder writes them (``encode_basestring_ascii``,
    ``int.__repr__``, ``float.__repr__``, NaN, Infinity); a key that is not
    a ``str`` raises TypeError, where json would convert it."""
    if isinstance(value, str):
        return _ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        parts, ends = [_emit(v, inner) for v in value], "[]"
    elif isinstance(value, dict):
        parts = [f"{_ascii(k)}: {_emit(value[k], inner)}" for k in sorted(value)]
        ends = "{}"
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    body = ("," + inner).join(parts)
    return f"{ends[0]}{inner}{body}{indent}{ends[1]}" if parts else ends


# ---------------------------------------------------------------------------
# pipelines; each returns (inputs echo, rows)


def pipeline_roots(series: str, rank: int) -> Tuple[dict, List[dict]]:
    system = build_root_system(series, rank)
    count = {"A": rank * (rank + 1) // 2, "B": rank * rank, "C": rank * rank,
             "D": rank * (rank - 1)}[series]
    rows = [make_row("positive_root_count", count, len(system.positives), 0,
                     "closed-form count per series"),
            make_row("simple_root_count", rank,
                     len(system.simple_enumeration), 0, "rank definition"),
            make_row("cartan_matrix_integral", True,
                     all(x.denominator == 1 for row in cartan_matrix(system)
                         for x in row), 0, "exact Cartan matrix")]
    return {"series": series, "rank": rank}, rows


def pipeline_cascade(series: str, rank: int) -> Tuple[dict, List[dict]]:
    layers = cascade_decomposition(build_root_system(series, rank))
    table = closed_form_beta(series, rank)
    rows = [make_row("cascade_length", len(table), len(layers), 0,
                     "closed-form table length")]
    for want, layer in zip(table, layers):
        rows.append(make_row(f"beta_{layer.r}", list(map(rat_str, want)),
                             list(map(rat_str, layer.beta)), 0,
                             "closed-form cascade table"))
    return {"series": series, "rank": rank}, rows


def pipeline_layers(series: str, rank: int) -> Tuple[dict, List[dict]]:
    layers = cascade_decomposition(build_root_system(series, rank))
    rows = []
    for layer, d_r in zip(layers, closed_form_layer_dims(series, rank)):
        rows += [make_row(f"layer_{layer.r}_even_dimension", True,
                          len(layer.members) % 2 == 0, 0, "symplectic pairing"),
                 make_row(f"layer_{layer.r}_dimension", d_r, layer.d_r, 0,
                          "closed-form layer dimension")]
    return {"series": series, "rank": rank}, rows


def pipeline_axioms(series: str, rank: int,
                    corrupted: bool = False) -> Tuple[dict, List[dict]]:
    if corrupted and (series, rank) != ("A", 3):
        raise ValueError("the corrupted control is the A3 fixture; run it "
                         "with --series A --n 3")
    alg = (corrupted_fixture() if corrupted
           else realize_split_nilradical(series, rank))
    report = verify_setup_axioms(alg)
    by_axiom: Dict[str, bool] = {}
    for row in report.rows:
        by_axiom[row["axiom"]] = by_axiom.get(row["axiom"], True) and row["ok"]
    rows = ([make_row("corrupted_control_detected", True, not report.passed,
                      0, "negative-control fixture")] if corrupted else
            [make_row(axiom, True, ok, 0, "exact bracket support")
             for axiom, ok in sorted(by_axiom.items())])
    return {"series": series, "rank": rank, "corrupted": corrupted}, rows


def _random_skew(rng: random.Random, n: int,
                 table: List[Tuple[Q, Q]]) -> List[List[Q]]:
    """Skew matrix of size n whose (i, j) entry, i < j, is p/q with p
    uniform in [-9, 9] and q in [1, 9]: one ``rng.choices`` over table, the
    171 pairs (p/q, -p/q), draws the upper-triangle entries in row order."""
    pairs = iter(rng.choices(table, k=n * (n - 1) // 2))
    zero = Q(0)
    m = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j], m[j][i] = next(pairs)
    return m


def max_pfaffian_count(max_size: int) -> int:
    """Largest --count of pfaffian at max_size: MAX_COUNT up to
    FULL_COUNT_SIZE, halved per unit of size above it."""
    return MAX_COUNT >> max(0, max_size - FULL_COUNT_SIZE)


def pipeline_pfaffian(count: int, max_size: int,
                      seed: int) -> Tuple[dict, List[dict]]:
    rng = random.Random(seed)
    table = [(v, -v) for p in range(-9, 10) for q in range(1, 10)
             for v in (Q(p, q),)]
    ok = 0
    for _ in range(count):
        n = rng.randint(1, max_size)
        m = _random_skew(rng, n, table)
        pf = pfaffian(m)  # raises unless Pf^2 = det for even n
        if n % 2 == 0:
            ok += pf == pfaffian_expansion(m)
        else:
            ok += pf == 0 == determinant(m)
    rows = [make_row("pf_matches_expansion", count, ok, 0,
                     "first-row expansion (even n), det = 0 (odd n)")]
    # degree-of-homogeneity per layer on the algebra realizations
    t = Q(3, 2)
    for series, rank in (("A", 3), ("C", 2), ("B", 2)):
        alg = realize_split_nilradical(series, rank)
        base = {r: Q(r + 1) for r in range(1, len(alg.layers) + 1)}
        scaled = {r: t * v for r, v in base.items()}
        dims = closed_form_layer_dims(series, rank)
        d0 = plancherel_density(alg, alg.layers, base)
        d1 = plancherel_density(alg, alg.layers, scaled)
        homogeneous = all(d1.pf[r] == t ** dims[r - 1] * d0.pf[r]
                          for r in d0.pf)
        rows.append(make_row(f"homogeneity_{series}{rank}", True, homogeneous,
                             0, "closed-form layer dimension"))
    return {"count": count, "max_size": max_size, "seed": seed}, rows


def pipeline_orthogonality(h: Harness, gamma: Dict[int, Q],
                           backend: str, seed: int) -> Tuple[dict, List[dict]]:
    """The density of h's split model against the harness's own pairing,
    and the coefficient norm against the square-integrability constant."""
    rep = stepwise_rep(h, {r: float(v) for r, v in gamma.items()})
    u = GaussianState.ground(rep.D)
    tol = 1e-6
    if backend == "grid":
        grid = validation_grid(rep)
        validate_rep(rep, 1e-4, grid)
        u = GridState.from_gaussian(u, grid)
        tol = 1e-3
    pf = exact_density(h, gamma)
    report = coefficient_norm_sq(rep, u, u)
    rows = [make_row("density_abs", pf, rep.pf_abs, 1e-12 * float(pf),
                     "exact rational pairing determinant"),
            make_row("coefficient_norm", float(1 / pf), report.value,
                     float(tol / pf), "square-integrability constant"),
            make_row("normalized_ratio", 1.0, report.value / report.predicted,
                     tol, "square-integrability constant")]
    return {"harness": h.name,
            "gamma": {str(r): rat_str(v) for r, v in sorted(gamma.items())},
            "backend": backend, "seed": seed}, rows


def pipeline_restriction(lam1: Q, lam2: Q, seed: int) -> Tuple[dict, List[dict]]:
    big = build_harness("A3")
    rep_big = stepwise_rep(big, {1: float(lam1), 2: float(lam2)})
    rep_small = stepwise_rep(leading_subgroup(big, 1), {1: float(lam1)})
    rng = random.Random(seed)
    x = GaussianState.packet(2, [rng.gauss(0.0, 0.3) for _ in range(2)],
                             [rng.gauss(0.0, 0.3) for _ in range(2)])
    # the small stage acts on a line (D = 0): with unit states there, the
    # restricted coefficient's norm ratio is the big coefficient norm of x
    measured = coefficient_norm_sq(rep_big, x, x).value
    predicted = x.norm_sq() * x.norm_sq() * rep_small.pf_abs / rep_big.pf_abs
    factor = math.sqrt(rep_small.pf_abs / rep_big.pf_abs)
    rows = [make_row("norm_ratio", predicted, measured, 1e-3 * abs(predicted),
                     "exact density ratio between stages"),
            make_row("renormalization_factor", float(1 / abs(lam2)), factor,
                     1e-12 * float(1 / abs(lam2)),
                     "square root of the exact density ratio")]
    # the same squared factor from the exact chain bookkeeping
    chain = propagate(build_root_system("A", 1), 1)
    fac = restriction_projection_factor(chain, {1: lam1}, {1: lam1, 2: lam2})
    rows.append(make_row("squared_factor_exact", fac,
                         Q(1) / lam2 ** 2, 0,
                         "exact density ratio between stages"))
    root = float(exact_sqrt(fac))
    rows.append(make_row("factor_square_root_consistent", root, factor,
                         1e-12 * root, "exact density ratio between stages"))
    return {"lambda1": rat_str(lam1), "lambda2": rat_str(lam2),
            "seed": seed}, rows


def _residual_row(name: str, res: InversionResult, tolerance: float) -> dict:
    """The reconstruction residual of ``res`` against tolerance; the row also
    fails when the residual's error budget exceeds the tolerance, where the
    residual cannot show it."""
    row = make_row(name, 0.0, res.rel_error, tolerance, "reconstruction residual")
    if not res.budget <= tolerance:
        row["pass"] = False
        row["provenance"] += (f"; error budget {res.budget:.2g} exceeds the "
                              f"tolerance {tolerance:g}")
    return row


def pipeline_inversion(points: int, tolerance: float,
                       seed: int) -> Tuple[dict, List[dict]]:
    h = build_harness("HEIS1")
    f = TestFunction.standard(h)
    rng = random.Random(seed)
    res = fourier_inversion(f, identity(h))
    rows = [make_row("identity_value", 1.0, res.value.real, tolerance,
                     "test function value at the identity"),
            _residual_row("identity_rel_error", res, tolerance)]
    for k in range(points):
        x = random_element(h, rng, 1.0)
        rows.append(_residual_row(f"point_{k}_rel_error",
                                  fourier_inversion(f, x), tolerance))
    return {"harness": "HEIS1", "points": points, "tolerance": tolerance,
            "seed": seed}, rows


def pipeline_limit_check(zeta: float, tolerance: float) -> Tuple[dict, List[dict]]:
    rows: List[dict] = []
    starts = {"A_odd": ("A", 1), "A_even": ("A", 2), "B_odd": ("B", 3),
              "B_even": ("B", 2), "C": ("C", 2), "D_odd": ("D", 3),
              "D_even": ("D", 2)}
    for fam, (series, rank) in sorted(starts.items()):
        chain = propagate(build_root_system(series, rank), 3)
        rows.append(make_row(f"{fam}_cascade_stable", True,
                             cascade_stability(chain).stable, 0,
                             "stage-independent cascade table"))
    big = build_harness("A3")
    small = leading_subgroup(big, 1)
    f_big = TestFunction.standard(big)
    f_small = restrict_test_function(f_big, small)
    x = element(small, [(zeta, [], [])])
    rep = limit_inversion_check(f_big, f_small, x, tolerance=tolerance)
    rows += [make_row("two_stage_coherent", True, rep.coherent, 0,
                      "restriction comparison on a probe grid"),
             _residual_row("stage_small_rel_error", rep.stage_small, tolerance),
             _residual_row("stage_big_rel_error", rep.stage_big, tolerance),
             make_row("two_stage_agreement", True, rep.agree, 0,
                      "stage values within tolerance")]
    bad = TestFunction.gaussian(small, [0.1], [0.0], 1.1)
    rep_bad = limit_inversion_check(f_big, bad, x)
    rows.append(make_row("incoherent_family_detected", True,
                         not rep_bad.coherent, 0,
                         "restriction comparison on a probe grid"))
    return {"zeta": zeta, "tolerance": tolerance}, rows


def pipeline_all(seed: int, quick: bool) -> Tuple[dict, List[dict]]:
    """Aggregate run: every pipeline with its default configuration."""
    count, points = (50, 3) if quick else (500, 10)
    cascade_cases = [("A", 3), ("A", 4), ("B", 4), ("B", 5), ("C", 4),
                     ("D", 4), ("D", 5)]
    if not quick:
        cascade_cases += [("A", 7), ("B", 8), ("C", 8), ("D", 8)]
    sections = [(f"{name} {series}{rank}", *pipeline(series, rank))
                for series, rank in cascade_cases
                for name, pipeline in (("roots", pipeline_roots),
                                       ("cascade", pipeline_cascade),
                                       ("layers", pipeline_layers))]
    sections += [(f"axioms {series}{rank}", *pipeline_axioms(series, rank))
                 for series, rank in (("A", 3), ("C", 2), ("B", 3), ("D", 4))]
    sections += [("axioms corrupted", *pipeline_axioms("A", 3, True)),
                 ("pfaffian", *pipeline_pfaffian(count, 10, seed))]
    orth_cases = [("HEIS1", {1: Q(2)}, "closed"),
                  ("A3", {1: Q(1), 2: Q(3, 2)}, "closed"),
                  ("C2", {1: Q(1, 2), 2: Q(1)}, "closed"),
                  ("B2", {1: Q(2), 2: Q(1, 2)}, "closed"),
                  ("HEIS1", {1: Q(1)}, "grid")]
    if not quick:
        orth_cases += [("HEIS2", {1: Q(1, 2)}, "closed"),
                       ("HEIS3", {1: Q(3)}, "closed")]
    sections += [(f"orthogonality {name} {backend}", *pipeline_orthogonality(
        build_harness(name), gamma, backend, seed))
        for name, gamma, backend in orth_cases]
    sections += [("restriction", *pipeline_restriction(Q(1), Q(2), seed)),
                 ("inversion", *pipeline_inversion(points, 1e-6, seed)),
                 ("limit-check", *pipeline_limit_check(0.6, 1e-3))]
    inputs = {"seed": seed, "quick": quick, "sections": [
        {"title": title, "inputs": section} for title, section, _ in sections]}
    return inputs, [{**row, "name": f"{title}: {row['name']}"}
                    for title, _, rows in sections for row in rows]


# ---------------------------------------------------------------------------
# argument parsing and dispatch


#: The subcommands in ``stepsq --help`` order; the first four take --n.
COMMANDS = ("roots", "cascade", "layers", "axioms", "pfaffian",
            "orthogonality", "restriction", "inversion", "limit-check", "all")


def _add_flags(p: argparse.ArgumentParser,
               name: str) -> argparse.ArgumentParser:
    """Add subcommand name's flags and the common ones to p (both parsers)."""
    # no flag starts with "-" and a digit or ".", so a token that does is a
    # value ("--lambda -1/2"); argparse alone reads only "-2" and "-2.5" so
    p._negative_number_matcher = re.compile(r"^-[\d.]")
    add = p.add_argument
    if name in COMMANDS[:4]:
        add("--series", required=True, choices=tuple("ABCD"))
        add("--n", type=int, required=True)
        if name == "axioms":
            add("--corrupted", action="store_true")
    elif name == "pfaffian":
        add("--count", type=int, default=500)
        add("--max-size", type=int, default=10)
    elif name == "orthogonality":
        # A1 acts on a line (D = 0) and C3 has symplectic parts below its
        # top layer: neither has a coefficient norm to check
        add("--harness", required=True,
            choices=("HEIS1", "HEIS2", "HEIS3", "A3", "C2", "B2"))
        add("--lambda", dest="lambdas", action="append", required=True,
            type=parse_rat, metavar="P/Q",
            help="layer parameter, repeatable in layer order")
        add("--backend", choices=("closed", "grid"), default="closed",
            help="state space: closed-form Gaussian states, or grid samples "
                 "(single-layer harnesses HEIS1-3 only)")
    elif name == "restriction":
        add("--lambda1", type=parse_rat, default="1")
        add("--lambda2", type=parse_rat, default="2")
    elif name == "inversion":
        add("--points", type=int, default=10)
        add("--tolerance", type=float, default=1e-6)
    elif name == "limit-check":
        add("--zeta", type=float, default=0.6)
        add("--tolerance", type=float, default=1e-3)
    elif name == "all":
        add("--quick", action="store_true")
    add("--seed", type=nonnegative_int, default=DEFAULT_SEED)
    add("--out", help="report path (default: <command>.json in the report "
        "directory)")
    add("--config", help="JSON file whose options override the flags")
    add("--timing", action="store_true", help="include wall-clock timing in "
        "the report (breaks byte-identical determinism)")
    return p


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand name's parser, built on first use; runs only read it."""
    return _add_flags(argparse.ArgumentParser(prog=f"stepsq {name}"), name)


@functools.cache
def _top_parser() -> argparse.ArgumentParser:
    """The ``stepsq`` parser of every subcommand: usage, help, errors."""
    parser = argparse.ArgumentParser(
        prog="stepsq", description="verification pipelines with JSON reports")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        _add_flags(sub.add_parser(name), name)
    return parser


def _config_value(action: argparse.Action, key: str, raw):
    """One config value through its flag's type converter and choices."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise ValueError(f"config key {key!r}: {raw!r} is not a flag value")
    value = action.type(str(raw)) if action.type else str(raw)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: {value!r} is not one of "
                         f"{list(action.choices)}")
    return value


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  overrides) -> None:
    """Set config overrides as the subcommand's flags would set them;
    ValueError for a key that names no flag or a value its flag rejects."""
    if not isinstance(overrides, dict):
        raise ValueError("the config must be a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest != "help"}
    for key, value in overrides.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.nargs == 0:  # a switch such as --quick
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} takes true or false")
        elif isinstance(action, argparse._AppendAction):
            if not isinstance(value, list):
                raise ValueError(f"config key {key!r} takes a list")
            value = [_config_value(action, key, v) for v in value]
        else:
            value = _config_value(action, key, value)
        setattr(args, key, value)


def _dispatch(args: argparse.Namespace) -> Tuple[dict, List[dict]]:
    cmd = args.command
    if cmd in COMMANDS[:4] and args.n > MAX_RANK:
        raise ValueError(f"--n must be at most {MAX_RANK}, got {args.n}")
    if cmd in COMMANDS[:3]:
        return {"roots": pipeline_roots, "cascade": pipeline_cascade,
                "layers": pipeline_layers}[cmd](args.series, args.n)
    if cmd == "axioms":
        return pipeline_axioms(args.series, args.n, args.corrupted)
    if cmd == "pfaffian":
        # the first-row expansion oracle is exponential in the size
        if not 1 <= args.max_size <= 20:
            raise ValueError(f"--max-size must be in [1, 20], "
                             f"got {args.max_size}")
        cap = max_pfaffian_count(args.max_size)
        if not 0 <= args.count <= cap:
            raise ValueError(f"--count must be in [0, {cap}] at --max-size "
                             f"{args.max_size}, got {args.count}")
        return pipeline_pfaffian(args.count, args.max_size, args.seed)
    if cmd == "orthogonality":
        gamma = dict(enumerate(args.lambdas, start=1))
        return pipeline_orthogonality(build_harness(args.harness), gamma,
                                      args.backend, args.seed)
    if cmd == "restriction":
        return pipeline_restriction(args.lambda1, args.lambda2, args.seed)
    if cmd in ("inversion", "limit-check") and not (
            math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError(f"--tolerance must be finite and positive, "
                         f"got {args.tolerance}")
    if cmd == "inversion":
        if not 0 <= args.points <= MAX_POINTS:
            raise ValueError(f"--points must be in [0, {MAX_POINTS}], "
                             f"got {args.points}")
        return pipeline_inversion(args.points, args.tolerance, args.seed)
    if cmd == "limit-check":
        if not math.isfinite(args.zeta):
            raise ValueError(f"--zeta must be finite, got {args.zeta}")
        return pipeline_limit_check(args.zeta, args.tolerance)
    return pipeline_all(args.seed, args.quick)


def _stage(exc: BaseException) -> str:
    """The innermost ``<module>.<function>`` of the package in exc's traceback."""
    import traceback  # only a broken invariant pays for the import
    here = os.path.dirname(os.path.abspath(__file__))
    code = [frame.f_code for frame, _ in traceback.walk_tb(exc.__traceback__)
            if os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == here][-1]
    return f"{os.path.basename(code.co_filename)[:-3]}.{code.co_name}"


def run(argv: Sequence[str]) -> int:
    """Execute one subcommand; returns the process exit code.

    0: all checks passed; 1: a check failed, an invariant broke (a failing
    "invariant" row names it and its stage) or a tolerance was unreachable;
    2: configuration error (unknown subcommand, malformed flags, rationals
    or config values, a report directory that does not exist (checked
    before computing) or a report that cannot be written).
    """
    argv = list(argv)
    try:  # the stepsq parser only when argv names no command
        if argv and argv[0] in COMMANDS:
            args, extras = _command_parser(argv[0]).parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0]))
            if extras:
                _top_parser().error("unrecognized arguments: " + " ".join(extras))
        else:
            args = _top_parser().parse_args(argv)
    except SystemExit as exc:
        _to_stdout("")  # flush the help text, if any
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        _top_parser().print_usage(sys.stderr)
        return 2
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
            _apply_config(_command_parser(args.command), args, overrides)
        except (OSError, ValueError, RecursionError) as exc:
            # json.load raises RecursionError on a file nested too deep
            print(f"stepsq: bad config file: {exc}", file=sys.stderr)
            return 2
    path = args.out or os.path.join(os.environ.get("STEPSQ_REPORT_DIR", "."),
                                    f"{args.command}.json")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        print(f"stepsq: configuration error: no directory {directory!r} for "
              "the report", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        inputs, rows = _dispatch(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"stepsq: configuration error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a broken invariant is a failed check: a row names it and its stage
        message = f"{_stage(exc)}: {exc}"
        print(f"stepsq: invariant failed: {message}", file=sys.stderr)
        inputs, rows = {}, [make_row("invariant", True, False, 0, message)]
    timing = round(time.perf_counter() - start, 3) if args.timing else None
    doc = ReportDocument(args.command, {**inputs, "seed": args.seed},
                         tuple(rows), timing)
    payload = _emit(doc.to_json()) + "\n"
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so the rename is atomic
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        print(f"stepsq: cannot write the report: {exc}", file=sys.stderr)
        return 2
    status = "pass" if doc.passed else "FAIL"
    _to_stdout(f"stepsq {args.command}: {status} "
               f"({sum(r['pass'] for r in rows)}/{len(rows)} rows) -> {path}\n")
    return 0 if doc.passed else 1


def _to_stdout(text: str) -> None:
    """Write and flush text to stdout; on a closed pipe, point stdout at
    os.devnull (Python's ``signal`` docs) and keep the checks' exit code."""
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main() -> None:
    """Console entry point."""
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
