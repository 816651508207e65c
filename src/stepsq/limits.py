"""Direct systems of root systems: propagation, stability, and factors.

A chain grows a root system inside its stable family by repeatedly adding
simple roots at the prescribed diagram end (symmetrically about the center
for type A).  ``propagate`` validates every consecutive embedding, so each
chain it returns is well aligned by construction.  The reversed cascade
enumeration is stable along such chains, which is what makes per-layer data
(densities, restriction factors) comparable across stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import isqrt
from typing import Dict, List, Tuple

from .cascade import cascade_decomposition
from .nilalg import realize_split_nilradical
from .plancherel import plancherel_density
from .rootsys import RootSystem, Vector, build_root_system


def family_of(system: RootSystem) -> str:
    """Stable-family label of a generated root system."""
    if system.series == "C":
        return "C"
    if system.series in ("A", "B", "D"):
        parity = "odd" if system.rank % 2 == 1 else "even"
        return f"{system.series}_{parity}"
    raise ValueError(f"no stable family for series {system.series!r}")


def _label(system: RootSystem) -> str:
    return f"{system.series}{system.rank}"


@dataclass(frozen=True)
class StageEmbedding:
    """Inner-product-preserving injection of one stage into the next.

    In the ambient coordinates the injection pads zeros around the small
    coordinates (left only for B/C/D, symmetrically for the centered type A
    scheme), which preserves inner products by construction; on simple
    roots it is the identity on shared indices, so the enumerated diagram
    of the small stage sits inside the big one.
    """

    left: int
    right: int

    def apply(self, v: Vector) -> Vector:
        return (0,) * self.left + tuple(v) + (0,) * self.right


def stage_embedding(small: RootSystem, big: RootSystem) -> StageEmbedding:
    """Validated embedding of ``small`` into ``big`` within one family.

    Raises ValueError when no index-preserving, positivity-preserving
    injection exists (e.g. across families or with misplaced new roots).
    """
    if family_of(small) != family_of(big):
        raise ValueError(f"{_label(small)} and {_label(big)} are in "
                         "different stable families")
    shift = big.dim - small.dim
    if shift < 0 or small.rank > big.rank:
        raise ValueError(f"{_label(big)} does not contain {_label(small)}")
    if small.series == "A":
        if shift % 2 != 0:
            raise ValueError("type A stages must grow by whole diagram pairs")
        left = right = shift // 2
    else:
        left, right = shift, 0
    small_idx = small.simple_indices()
    old = set(small_idx)
    new = set(big.simple_indices()) - old
    if not old <= set(big.simple_indices()):
        raise ValueError("simple-root indices of the small stage are "
                         "missing at the big stage")
    embedding = StageEmbedding(left, right)
    for i in small_idx:
        image = embedding.apply(small.simple_enumeration[i])
        if image != big.simple_enumeration[i]:
            raise ValueError(f"simple root {i} is not preserved")
    big_pos = set(big.positives)
    if not all(embedding.apply(a) in big_pos for a in small.positives):
        raise ValueError("a positive root maps outside the positives")
    if small.series == "A":
        # new simple roots appear symmetrically about the fixed center
        if new != {-i for i in new} or (new and min(abs(i) for i in new)
                                        <= max((abs(i) for i in old), default=0)):
            raise ValueError("type A must grow symmetrically from the center")
    else:
        # new simple roots attach beyond the old end of the diagram
        if new and min(new) <= max(old):
            raise ValueError("new simple roots must attach at the far end")
    return embedding


@dataclass(frozen=True)
class DirectChain:
    """Stages of one stable family with validated consecutive embeddings."""

    stages: Tuple[RootSystem, ...]
    embeddings: Tuple[StageEmbedding, ...]


def propagate(system: RootSystem, steps: int) -> DirectChain:
    """Chain of ``steps + 1`` stages grown from ``system`` in its family."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    fam = family_of(system)
    rank_step = 1 if fam == "C" else 2
    stages: List[RootSystem] = [system]
    for _ in range(steps):
        stages.append(build_root_system(system.series,
                                        stages[-1].rank + rank_step))
    embeddings = tuple(stage_embedding(a, b) for a, b in zip(stages, stages[1:]))
    return DirectChain(tuple(stages), embeddings)


@dataclass(frozen=True)
class StabilityReport:
    """Per-(pair, layer) stability rows and the overall verdict."""

    rows: Tuple[dict, ...]
    stable: bool


def cascade_stability(chain: DirectChain) -> StabilityReport:
    """Check that cascades and layers are stable along the chain.

    For each consecutive pair and each layer index r present at the small
    stage: the embedded r-th cascade root equals the big stage's, and the
    embedded r-th layer equals the big r-th layer intersected with the
    embedded small root system.
    """
    layers = [cascade_decomposition(s) for s in chain.stages]
    rows: List[dict] = []
    for k, e in enumerate(chain.embeddings):
        small, big = layers[k], layers[k + 1]
        embedded_pos = {e.apply(a) for a in chain.stages[k].positives}
        for layer in small:
            big_layer = big[layer.r - 1]
            beta_ok = e.apply(layer.beta) == big_layer.beta
            small_layer = {e.apply(a) for a in layer.members}
            layer_ok = small_layer == (set(big_layer.members) & embedded_pos)
            rows.append({"pair": f"{_label(chain.stages[k])}->"
                                 f"{_label(chain.stages[k + 1])}",
                         "r": layer.r, "beta_stable": beta_ok,
                         "layer_intersection": layer_ok})
    return StabilityReport(tuple(rows),
                           all(r["beta_stable"] and r["layer_intersection"]
                               for r in rows))


def _stage_density(system: RootSystem, gamma: Dict[int, Q]):
    alg = realize_split_nilradical(system.series, system.rank)
    if any(r < 1 or r > len(alg.layers) for r in gamma):
        raise ValueError("gamma indexes a layer that does not exist")
    return plancherel_density(alg, alg.layers, gamma), len(alg.layers)


def restriction_projection_factor(chain: DirectChain,
                                  gamma_small: Dict[int, Q],
                                  gamma_big: Dict[int, Q]) -> Q:
    """Exact |P_small(gamma) / P_big(gamma')| between a chain's first and
    last stages.

    The big parameter must restrict to the small one: both assign the same
    coefficient to every layer index present at the small stage (layer
    numbering is stable along the chain, so indices are comparable).
    The returned factor is the squared renormalization constant; its
    square root is left to the numeric consumer.
    """
    small, big = chain.stages[0], chain.stages[-1]
    gamma_small = {r: Q(v) for r, v in gamma_small.items()}
    gamma_big = {r: Q(v) for r, v in gamma_big.items()}
    dens_small, m_small = _stage_density(small, gamma_small)
    dens_big, _ = _stage_density(big, gamma_big)
    for r in range(1, m_small + 1):
        if gamma_big.get(r, Q(0)) != gamma_small.get(r, Q(0)):
            raise ValueError("gamma_big does not restrict to gamma_small")
    if not dens_small.in_t_star or not dens_big.in_t_star:
        raise ValueError("singular parameter: a layer density vanishes")
    return abs(dens_small.product) / abs(dens_big.product)


def exact_sqrt(q: Q) -> Q:
    """Exact square root of a rational perfect square."""
    q = Q(q)
    if q < 0:
        raise ValueError("negative rational has no real square root")
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        raise ValueError(f"{q} is not a rational perfect square")
    return Q(rn, rd)
