"""Chains of root systems and two-stage inversion agreement.

Grows each stable family by four stages (``propagate`` validates every
consecutive embedding, so each chain is well aligned), checks cascade
stability, and runs the same inversion problem at two stages of the smallest
chain on a coherent pair of test functions.
"""

from stepsq.harness import build_harness, element, leading_subgroup
from stepsq.inversion import (TestFunction, limit_inversion_check,
                              restrict_test_function)
from stepsq.limits import cascade_stability, propagate
from stepsq.rootsys import build_root_system

for series, rank in (("A", 1), ("A", 2), ("B", 2), ("B", 3), ("C", 2),
                     ("D", 2), ("D", 3)):
    chain = propagate(build_root_system(series, rank), 3)
    ranks = [s.rank for s in chain.stages]
    stable = cascade_stability(chain).stable
    print(f"{series}{rank} chain ranks {ranks}: cascade stable={stable}")

big = build_harness("A3")
small = leading_subgroup(big, 1)
f_big = TestFunction.standard(big)
f_small = restrict_test_function(f_big, small)
x = element(small, [(0.6, [], [])])
rep = limit_inversion_check(f_big, f_small, x, tolerance=1e-3)
print(f"\ntwo-stage inversion at the same point: coherent={rep.coherent}, "
      f"small stage rel err {rep.stage_small.rel_error:.1e}, "
      f"big stage rel err {rep.stage_big.rel_error:.1e}, agree={rep.agree}")

bad = TestFunction.gaussian(small, [0.1], [0.0], 1.1)
rep_bad = limit_inversion_check(f_big, bad, x)
print(f"perturbed family: coherent={rep_bad.coherent} "
      f"(gap {rep_bad.coherence_gap:.3f}) -- detected")
