"""Exact Pfaffians, per-layer densities, and homogeneity.

Shows Pf^2 = det on random skew rational matrices and the per-layer density
Pf_r(t*lambda) = t^{d_r} Pf_r(lambda) on a split nilradical.
"""

from fractions import Fraction as Q

import numpy as np

from stepsq.nilalg import realize_split_nilradical
from stepsq.plancherel import (determinant, pfaffian, plancherel_constant,
                               plancherel_density)

rng = np.random.default_rng(0)
for trial in range(3):
    n = int(rng.integers(2, 9))
    m = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Q(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            m[i][j], m[j][i] = v, -v
    pf, det = pfaffian(m), determinant(m)
    print(f"random skew {n}x{n}: Pf = {pf},  Pf^2 = {pf * pf} = det = {det}")

for series, rank in (("A", 3), ("C", 2), ("B", 2)):
    alg = realize_split_nilradical(series, rank)
    layers = alg.layers
    gamma = {r: Q(r) for r in range(1, len(layers) + 1)}
    data = plancherel_density(alg, layers, gamma)
    t = Q(3, 2)
    scaled = plancherel_density(alg, layers, {r: t * v for r, v in gamma.items()})
    print(f"\n{series}{rank}: d_list = {data.d_list}, "
          f"c = {plancherel_constant(data.d_list)}")
    for r in sorted(data.pf):
        d = data.d_list[r - 1]
        print(f"  Pf_{r}({gamma[r]}) = {data.pf[r]};  "
              f"Pf_{r}({t}*{gamma[r]}) = {scaled.pf[r]} "
              f"= ({t})^{d} * {data.pf[r]}")
