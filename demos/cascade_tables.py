"""Cascades of strongly orthogonal roots and the layer partition.

Builds classical root systems, runs the greedy cascade, compares it with the
independent closed-form tables, and prints the layer partition.
"""

from stepsq.cascade import cascade_decomposition, closed_form_beta, sigma_r
from stepsq.rootsys import build_root_system


def show(series: str, rank: int) -> None:
    system = build_root_system(series, rank)
    layers = cascade_decomposition(system)
    table = closed_form_beta(series, rank)
    print(f"\n{series}{rank}: {len(system.positives)} positive roots, "
          f"{len(layers)} layers")
    for layer, want in zip(layers, table):
        r = layer.r
        mark = "ok" if layer.beta == want else "MISMATCH"
        print(f"  beta_{r} = {tuple(map(str, layer.beta))}  [{mark}] "
              f"layer dim 2*{layer.d_r}")
        for a in layer.members[: layer.d_r]:
            b = sigma_r(layer, a)
            print(f"    pair {tuple(map(str, a))} + {tuple(map(str, b))}"
                  f" = beta_{r}")


if __name__ == "__main__":
    for series, rank in (("A", 3), ("C", 3), ("B", 4), ("D", 5)):
        show(series, rank)
    print("\nclosed-form tables and greedy cascades agree exactly.")
