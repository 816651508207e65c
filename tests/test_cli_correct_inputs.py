"""Correct inputs pass: a drawn valid computation exits 0.

The exit-code contract (``tests/test_cli_contract.py``) allows exit 1 for a
failed check; here every drawn input is one the program accepts and
computes correctly, so every row must pass.  ``orthogonality --backend
closed`` draws one value per layer on every harness it offers (HEIS1-3,
A3, C2 and B2), each with |lambda_r| from 1e-12 up to the phase bound of
``OrbitDescriptor.check_regular`` (about 1.1e6).  ``restriction`` draws
lambda1 and lambda2 with magnitudes from 1e-8 up to the same bound.  Each
value is a signed rational m / 1000 * 10^e with four significant digits.
``limit-check`` draws |zeta| <= 15 (near 15.5 the test function f(x)
underflows, which is a configuration error), and ``inversion`` draws
``--points`` from 0 to 50, ``--tolerance`` from 1e-13 to 1 (above the
rows' error budgets, which stay below 1e-14) and any seed.
"""

import io
import os
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepsq import cli


def values(smallest):
    """Signed rationals with magnitudes from 10^smallest to about 1.1e6."""
    magnitudes = st.one_of(
        st.builds(lambda m, e: Fraction(m, 1000) * Fraction(10) ** e,
                  st.integers(min_value=1000, max_value=9999),
                  st.integers(min_value=smallest, max_value=5)),
        st.sampled_from([Fraction(10) ** smallest, Fraction(1100000)]))
    return st.builds(lambda x, sign: f"{sign * x.numerator}/{x.denominator}",
                     magnitudes, st.sampled_from([1, -1]))


ORTHOGONALITY = st.sampled_from(
    ["HEIS1", "HEIS2", "HEIS3", "A3", "C2", "B2"]).flatmap(
    lambda harness: st.lists(values(-12), min_size=cli.build_harness(harness).m,
                             max_size=cli.build_harness(harness).m).map(
        lambda lambdas: ["orthogonality", "--harness", harness,
                         *(f"--lambda={v}" for v in lambdas),
                         "--backend", "closed"]))
RESTRICTION = st.builds(
    lambda lam1, lam2: ["restriction", f"--lambda1={lam1}",
                        f"--lambda2={lam2}"],
    values(-8), values(-8))
LIMIT_CHECK = st.builds(
    lambda zeta: ["limit-check", f"--zeta={zeta!r}"],
    st.floats(min_value=-15.0, max_value=15.0))
INVERSION = st.builds(
    lambda points, exponent, seed: [
        "inversion", f"--points={points}", f"--tolerance={10.0 ** exponent!r}",
        f"--seed={seed}"],
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=-13.0, max_value=0.0),
    st.integers(min_value=0, max_value=2 ** 64))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(argv=st.one_of(ORTHOGONALITY, RESTRICTION, LIMIT_CHECK, INVERSION))
@example(argv=["orthogonality", "--harness", "HEIS3", "--lambda=-323/10",
               "--backend", "closed"])
@example(argv=["restriction", "--lambda1=-19/306", "--lambda2=867/10000000"])
@example(argv=["limit-check", "--zeta=-15.0"])
@example(argv=["inversion", "--points=50", "--tolerance=1e-13", "--seed=99"])
def test_a_correct_input_exits_0(argv):
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        status = cli.run([*argv, "--out", os.path.join(tmp, "r.json")])
    assert status == 0, argv
