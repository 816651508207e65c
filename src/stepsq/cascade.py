"""Kostant cascade, its layers l_r = z_r + v_r, and the sigma involution.

``Layer`` is the one layer type of the package: ``RootSystem.cascade`` keeps
the checked layers of the reversed cascade, ``cascade_decomposition`` reads
them, the split model shares them, and the harness extends them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub
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
    the greatest candidate is a maximal one.  The candidates strongly
    orthogonal to the pick stay (``strongly_orthogonal``, inline: the
    vectors of one system share a length), and each must be orthogonal to
    it.  For an orthogonal candidate a, a + pick and a - pick both have
    squared length |a|^2 + |pick|^2, so they are looked up only when some
    root has that squared length.  The chosen roots are checked pairwise at
    the end.
    """
    roots = system.roots
    lengths = {sum(map(mul, a, a)) for a in roots}
    norm = {a: sum(map(mul, a, a)) for a in system.positives}
    chosen: List[Vector] = []
    candidates = list(system.positives)
    while candidates:
        pick = max(candidates)
        chosen.append(pick)
        pick_norm = norm[pick]
        kept = []
        for a in candidates:
            if sum(map(mul, a, pick)):
                if not (a == pick or tuple(map(sub, a, pick)) in roots
                        or tuple(map(add, a, pick)) in roots):
                    raise AssertionError("strong orthogonality must imply "
                                         "orthogonality")
            elif (norm[a] + pick_norm not in lengths
                  or (tuple(map(add, a, pick)) not in roots
                      and tuple(map(sub, a, pick)) not in roots)):
                kept.append(a)
        candidates = kept
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
    characterization of each layer are checked before returning: a positive
    root is characterized into layer r when its last nonzero pairing with
    beta_1..beta_m is the one with beta_r and is positive.
    """
    beta = tuple(beta)
    m = len(beta)
    cascade = set(beta)
    remaining = [a for a in system.positives if a not in cascade]
    positives = set(system.positives)
    layers: Dict[int, Tuple[Vector, ...]] = {}
    for r in range(m, 0, -1):
        top = beta[r - 1]
        members: List[Vector] = []
        rest: List[Vector] = []
        for a in remaining:
            (members if tuple(map(sub, top, a)) in positives else rest).append(a)
        layers[r] = tuple(sorted(members, reverse=True))
        remaining = rest
    if remaining:
        raise AssertionError(f"fill-out partition failed; unassigned {remaining}")
    characterized: Dict[int, set] = {r: set() for r in range(1, m + 1)}
    for a in system.positives:
        for r in range(m, 0, -1):
            pairing = sum(map(mul, a, beta[r - 1]))
            if pairing:
                if pairing > 0:
                    characterized[r].add(a)
                break
    for r in range(1, m + 1):
        if set(layers[r]) | {beta[r - 1]} != characterized[r]:
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


def closed_form_layer_dims(series: str, rank: int) -> Tuple[int, ...]:
    """Half dimension d_r of each layer's symplectic part, r = 1..m, by the
    per-family closed forms.  Independent of layer_partition; its oracle."""
    _simple_enumeration(series, rank)  # ValueError for no such root system
    n = rank
    m = {"A": (n + 1) // 2, "B": n, "C": n, "D": n - n % 2}[series]
    d_r = {"A": lambda r: 2 * r - 2 + (n % 2 == 0),
           "B": lambda r: 2 * r - 3 if r >= 2 and (r - n) % 2 == 0 else 0,
           "C": lambda r: r - 1,
           "D": lambda r: 0 if r % 2 else 2 * r - 2 - 2 * (n % 2 == 0)}[series]
    return tuple(d_r(r) for r in range(1, m + 1))
