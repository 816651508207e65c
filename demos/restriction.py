"""Restriction of coefficients to a leading subgroup and renormalization.

The small group sits inside the big one as the first cascade layer.  On the
subgroup slice the big coefficient restricts exactly; the squared norm ratio
equals the exact ratio of layer densities, and its square root is the
renormalization factor.
"""

from fractions import Fraction as Q

import numpy as np

from stepsq.harness import build_harness, leading_subgroup
from stepsq.limits import (exact_sqrt, propagate, restriction_projection_factor)
from stepsq.rootsys import build_root_system
from stepsq.schrodinger import restrict_and_renormalize, stepwise_rep
from stepsq.states import GaussianState

lam1, lam2 = 1.0, 2.0
big = build_harness("A3")
rep_big = stepwise_rep(big, {1: lam1, 2: lam2})
rep_small = stepwise_rep(leading_subgroup(big, 1), {1: lam1})
scalar = GaussianState(np.zeros((0, 0)), np.zeros(0), 0.0)
x = GaussianState.packet(2, [0.3, 0.1], [0.2, -0.4])
report, factor = restrict_and_renormalize(rep_big, rep_small, scalar, scalar, x)

print(f"pointwise identity on the subgroup slice: |err| = "
      f"{report.pointwise_abs_err:.2e}")
print(f"norm ratio measured {report.norm_ratio_measured:.10f} vs predicted "
      f"{report.norm_ratio_predicted:.10f} "
      f"(rel err {report.norm_ratio_rel_err:.2e})")
print(f"renormalization factor = {factor} = 1/|lambda_2| = {1 / abs(lam2)}")
print(f"central-direction deviation off the slice (reported, not hidden): "
      f"{report.central_deviation:.4f}")

chain = propagate(build_root_system("A", 1), 2)
g1, g3 = {1: Q(1)}, {1: Q(1), 2: Q(2)}
g5 = {1: Q(1), 2: Q(2), 3: Q(3)}
f01 = restriction_projection_factor(chain, g1, g3, stages=(0, 1))
f12 = restriction_projection_factor(chain, g3, g5, stages=(1, 2))
f02 = restriction_projection_factor(chain, g1, g5, stages=(0, 2))
print(f"\nexact squared factors along the 3-stage chain: "
      f"{f01} * {f12} = {f01 * f12} = {f02} (transitive)")
print(f"square roots (exact on rational squares): {exact_sqrt(f01)}, "
      f"{exact_sqrt(f12)}, {exact_sqrt(f02)}")
