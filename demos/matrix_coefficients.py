"""Unitary representations and square-integrable matrix coefficients.

Builds the layered representation on each harness group, checks the group
law numerically, and verifies the coefficient-norm identity
integral |f_{u,v}|^2 * |density| = ||u||^2 ||v||^2 on closed-form and grid
paths.
"""

import random

from stepsq.harness import random_element
from stepsq.schrodinger import (check_invariants, coefficient,
                                coefficient_norm_sq, stepwise_rep,
                                validation_grid)
from stepsq.states import GaussianState, Grid, GridState

rng = random.Random(1)

for name, gamma in (("HEIS1", {1: 2.0}), ("HEIS2", {1: 0.7}),
                    ("A3", {1: 1.0, 2: 1.5}), ("C2", {1: 0.5, 2: 1.0}),
                    ("B2", {1: 1.0, 2: -0.8})):
    rep = stepwise_rep(name, gamma)
    checks = check_invariants(rep, rng, trials=3)
    u = GaussianState.packet(rep.D,
                             [rng.gauss(0.0, 0.4) for _ in range(rep.D)],
                             [rng.gauss(0.0, 0.4) for _ in range(rep.D)])
    v = GaussianState.ground(rep.D)
    g = random_element(rep.harness, rng)
    report = coefficient_norm_sq(rep, u, v)
    ratio = report.value * rep.pf_abs / (u.norm_sq() * v.norm_sq())
    print(f"{name}: unitarity {checks['unitarity']:.1e}, "
          f"homomorphism {checks['homomorphism']:.1e}; "
          f"|<u, pi(g) v>| = {abs(coefficient(rep, u, v, g)):.4f}; "
          f"norm identity ratio = {ratio:.12f}")

grid = Grid(1, 256, 3.3)
# the same representation acts on grid samples; the state picks the path
rep = stepwise_rep("HEIS1", {1: 1.0})
checks = check_invariants(rep, rng, trials=3, grid=validation_grid(rep))
gu = GridState.from_gaussian(GaussianState.ground(1), grid)
report = coefficient_norm_sq(rep, gu, gu)
print(f"grid states (HEIS1): unitarity {checks['unitarity']:.1e}, "
      f"homomorphism {checks['homomorphism']:.1e}")
print(f"grid path (HEIS1, 256 points): measured {report.value:.6f}, "
      f"predicted {report.predicted:.6f}, rel err {report.rel_error:.2e}")
