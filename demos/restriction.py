"""Restriction of coefficients to a leading subgroup and renormalization.

The small group sits inside the big one as the first cascade layer and acts
on a line, so with unit states there the restricted coefficient's squared
norm ratio is the big coefficient norm of x.  It equals the exact ratio of
layer densities times ||x||^4, and the square root of that density ratio is
the renormalization factor.
"""

import math
from fractions import Fraction as Q

from stepsq.harness import build_harness, leading_subgroup
from stepsq.limits import (exact_sqrt, propagate, restriction_projection_factor)
from stepsq.rootsys import build_root_system
from stepsq.schrodinger import coefficient_norm_sq, stepwise_rep
from stepsq.states import GaussianState

lam1, lam2 = 1.0, 2.0
big = build_harness("A3")
rep_big = stepwise_rep(big, {1: lam1, 2: lam2})
rep_small = stepwise_rep(leading_subgroup(big, 1), {1: lam1})
x = GaussianState.packet(2, [0.3, 0.1], [0.2, -0.4])
measured = coefficient_norm_sq(rep_big, x, x).value
predicted = x.norm_sq() ** 2 * rep_small.pf_abs / rep_big.pf_abs
factor = math.sqrt(rep_small.pf_abs / rep_big.pf_abs)

print(f"norm ratio measured {measured:.10f} vs predicted {predicted:.10f} "
      f"(rel err {abs(measured - predicted) / predicted:.2e})")
print(f"renormalization factor = {factor} = 1/|lambda_2| = {1 / abs(lam2)}")

chain = propagate(build_root_system("A", 1), 2)
g1, g3 = {1: Q(1)}, {1: Q(1), 2: Q(2)}
g5 = {1: Q(1), 2: Q(2), 3: Q(3)}
f01 = restriction_projection_factor(propagate(chain.stages[0], 1), g1, g3)
f12 = restriction_projection_factor(propagate(chain.stages[1], 1), g3, g5)
f02 = restriction_projection_factor(chain, g1, g5)
print(f"\nexact squared factors along the 3-stage chain: "
      f"{f01} * {f12} = {f01 * f12} = {f02} (transitive)")
print(f"square roots (exact on rational squares): {exact_sqrt(f01)}, "
      f"{exact_sqrt(f12)}, {exact_sqrt(f02)}")
