"""Orbit integrals, characters, and the Fourier inversion formula.

Computes the character functional of a Gaussian test function, compares it
with the independent closed form on the smallest group, and reconstructs the
function from its characters at random group points.
"""

import numpy as np

from stepsq.harness import build_harness, identity, orbit, random_element
from stepsq.inversion import TestFunction, fourier_inversion, orbit_integral

h = build_harness("HEIS1")
f = TestFunction.standard(h)
for t in (0.5, 1.0, 2.0):
    theta = orbit_integral(f, orbit(h, {1: t}))
    oracle = np.exp(-np.pi * t * t) / (2 * abs(t))
    print(f"character at lambda={t}: {theta.real:.10f} "
          f"(closed form {oracle:.10f})")

res = fourier_inversion(f, identity(h))
print(f"\nreconstruction at the identity: {res.value.real:.8f} (expect 1), "
      f"error budget {res.budget:.1e}")
rng = np.random.default_rng(2)
for k in range(3):
    x = random_element(h, rng, 1.0)
    res = fourier_inversion(f, x)
    print(f"random point {k}: value {res.value.real:.8f}, "
          f"reference {res.reference.real:.8f}, rel err {res.rel_error:.1e}")

for name in ("A3", "C2", "C3", "C4", "C5"):
    g = build_harness(name)
    fg = TestFunction.standard(g)
    x = random_element(g, np.random.default_rng(3), 0.8)
    res = fourier_inversion(fg, x)
    print(f"{name} ({g.m} layers): rel err {res.rel_error:.1e}, "
          f"error budget {res.budget:.1e}")
