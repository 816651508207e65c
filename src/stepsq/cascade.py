"""Kostant cascade, its layers l_r = z_r + v_r, and the sigma involution.

``Layer`` is the one layer type of the package: ``RootSystem.cascade`` keeps
the checked layers of the reversed cascade, ``cascade_decomposition`` reads
them, the split model shares them, and the harness extends them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .rootsys import (
    RootSystem,
    Vector,
    _simple_enumeration,
    inner,
    strongly_orthogonal,
    vadd,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class Layer:
    """Layer r of the reversed cascade: the central root beta_r (spanning
    z_r) and the symplectic member roots (spanning v_r), greatest first."""

    r: int
    beta: Vector
    members: Tuple[Vector, ...]

    @property
    def d_r(self) -> int:
        """Half the symplectic dimension."""
        return len(self.members) // 2


def kostant_cascade(system: RootSystem) -> Tuple[Vector, ...]:
    """Greedy sequence beta'_1, beta'_2, ... of maximal, mutually strongly
    orthogonal positive roots, in construction order.

    Each step takes the lexicographically greatest candidate.  Every simple
    root is lexicographically positive (``rootsys._check_invariants``), so a
    root above another in the root order is lexicographically greater, and
    the greatest candidate is a maximal one.
    """
    chosen: List[Vector] = []
    candidates = list(system.positives)
    while candidates:
        pick = max(candidates)
        chosen.append(pick)
        candidates = [a for a in candidates if strongly_orthogonal(system, a, pick)]
    for i, a in enumerate(chosen):
        for b in chosen[i + 1:]:
            if not strongly_orthogonal(system, a, b):
                raise AssertionError(f"cascade roots {a} and {b} are not strongly orthogonal")
    return tuple(chosen)


def layer_partition(system: RootSystem,
                    beta: Sequence[Vector]) -> Tuple[Layer, ...]:
    """The layers of the reversed cascade beta = (beta_1, ..., beta_m), in
    order r = 1..m, cut by the descending recursion.

    Layer r collects the unassigned positives alpha with beta_r - alpha a
    positive root.  The fill-out partition property and the orthogonality
    characterization of each layer are checked before returning; a root's
    pairing with beta_r is read from its (at most two) nonzero coordinates.
    """
    beta = tuple(beta)
    m = len(beta)
    cascade = set(beta)
    remaining = [a for a in system.positives if a not in cascade]
    positives = set(system.positives)
    layers: Dict[int, Tuple[Vector, ...]] = {}
    for r in range(m, 0, -1):
        members = tuple(a for a in remaining if vsub(beta[r - 1], a) in positives)
        layers[r] = tuple(sorted(members, reverse=True))
        taken = set(members)
        remaining = [a for a in remaining if a not in taken]
    if remaining:
        raise AssertionError(f"fill-out partition failed; unassigned {remaining}")
    support = {a: [(i, x) for i, x in enumerate(a) if x] for a in system.positives}
    pairings = {a: tuple(sum(x * b[i] for i, x in nz) for b in beta)
                for a, nz in support.items()}
    for r in range(1, m + 1):
        expected = set(layers[r]) | {beta[r - 1]}
        characterized = {
            a for a, ip in pairings.items()
            if not any(ip[r:]) and ip[r - 1] > 0
        }
        if expected != characterized:
            raise AssertionError(f"layer characterization failed at r={r}")
    return tuple(Layer(r, b, layers[r]) for r, b in enumerate(beta, start=1))


def cascade_decomposition(system: RootSystem) -> Tuple[Layer, ...]:
    """The layers l_1..l_m of the system, cut once per system object: they
    are kept on the system (``RootSystem.cascade``), so a system shared by
    ``build_root_system`` is decomposed once per process, and a system built
    by hand gets its own."""
    return system.cascade


def sigma_r(layer: Layer, alpha: Vector) -> Vector:
    """Negated reflection -s_{beta_r}(alpha) pairing a member alpha of the
    layer with beta_r - alpha.

    The Cartan integer 2(alpha, beta_r)/(beta_r, beta_r) is computed by
    exact int division, so the image of an int root is an int root.
    """
    if alpha not in layer.members:
        raise ValueError(f"{alpha} is not in layer {layer.r}")
    b = layer.beta
    cartan, rest = divmod(2 * inner(alpha, b), inner(b, b))
    if rest:
        raise AssertionError(f"the Cartan integer of {alpha} at {b} is not integral")
    image = vsub(vscale(cartan, b), alpha)
    if image not in layer.members:
        raise AssertionError("sigma must preserve the layer")
    if vadd(alpha, image) != b:
        raise AssertionError("alpha + sigma(alpha) must equal beta_r")
    return image


def _psi_combo(simple: Dict[int, Vector], combo: Dict[int, int]) -> Vector:
    """Expand an integer combination of enumerated simple roots to coordinates."""
    out = (0,) * len(next(iter(simple.values())))
    for idx, coeff in combo.items():
        out = vadd(out, vscale(coeff, simple[idx]))
    return out


def closed_form_beta(series: str, rank: int) -> Tuple[Vector, ...]:
    """Reversed cascade by literal transcription of the per-family closed forms.

    Independent of kostant_cascade; serves as its oracle.  Only the simple
    enumeration is read, so no second root system is built.
    """
    simple = _simple_enumeration(series, rank)
    betas: List[Vector] = []
    if series == "A":
        if rank % 2 == 1:
            n = (rank - 1) // 2
            betas.append(_psi_combo(simple, {0: 1}))
            for r in range(2, n + 2):
                betas.append(vadd(vadd(_psi_combo(simple, {-(r - 1): 1}),
                                       betas[-1]),
                                  _psi_combo(simple, {r - 1: 1})))
        else:
            n = rank // 2
            if n >= 1:
                betas.append(_psi_combo(simple, {-1: 1, 1: 1}))
            for r in range(2, n + 1):
                betas.append(vadd(vadd(_psi_combo(simple, {-r: 1}),
                                       betas[-1]),
                                  _psi_combo(simple, {r: 1})))
    elif series == "B":
        if rank % 2 == 1:
            n = (rank - 1) // 2
            betas.append(_psi_combo(simple, {1: 1}))
            for r in range(1, n + 1):
                betas.append(_psi_combo(simple, {2 * r + 1: 1}))
                combo = {j: 2 for j in range(1, 2 * r + 1)}
                combo[2 * r + 1] = 1
                betas.append(_psi_combo(simple, combo))
        else:
            n = rank // 2
            for r in range(1, n + 1):
                betas.append(_psi_combo(simple, {2 * r: 1}))
                combo = {j: 2 for j in range(1, 2 * r)}
                combo[2 * r] = 1
                betas.append(_psi_combo(simple, combo))
    elif series == "C":
        for r in range(1, rank + 1):
            combo = {1: 1}
            combo.update({j: 2 for j in range(2, r + 1)})
            betas.append(_psi_combo(simple, combo))
    else:  # D; _simple_enumeration rejects any other series
        if rank % 2 == 0:
            n = rank // 2
            betas.append(_psi_combo(simple, {1: 1}))
            betas.append(_psi_combo(simple, {2: 1}))
            for r in range(2, n + 1):
                betas.append(_psi_combo(simple, {2 * r: 1}))
                combo = {1: 1, 2: 1, 2 * r: 1}
                combo.update({j: 2 for j in range(3, 2 * r)})
                betas.append(_psi_combo(simple, combo))
        else:
            n = (rank - 1) // 2
            betas.append(_psi_combo(simple, {3: 1}))
            betas.append(_psi_combo(simple, {1: 1, 2: 1, 3: 1}))
            for r in range(2, n + 1):
                betas.append(_psi_combo(simple, {2 * r + 1: 1}))
                combo = {1: 1, 2: 1, 2 * r + 1: 1}
                combo.update({j: 2 for j in range(3, 2 * r + 1)})
                betas.append(_psi_combo(simple, combo))
    return tuple(betas)
