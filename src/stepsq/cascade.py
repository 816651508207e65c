"""Kostant cascade, reversed enumeration, layer partition, and sigma involution."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Dict, List, Sequence, Tuple

from .rootsys import (
    RootSystem,
    Vector,
    build_root_system,
    inner,
    simple_coordinates_all,
    strongly_orthogonal,
    vadd,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class CascadeChain:
    """Cascade in construction order, with tie metadata per greedy step."""

    beta_prime: Tuple[Vector, ...]
    ties: Tuple[Tuple[int, Tuple[Vector, ...]], ...]


@dataclass(frozen=True)
class CascadeDecomposition:
    """Reversed cascade beta_1..beta_m and the layer partition of positives."""

    system: RootSystem
    beta_prime: Tuple[Vector, ...]
    beta: Tuple[Vector, ...]
    layers: Dict[int, Tuple[Vector, ...]]
    ties: Tuple[Tuple[int, Tuple[Vector, ...]], ...] = ()

    @property
    def m(self) -> int:
        """Number of layers."""
        return len(self.beta)

    def d_r(self, r: int) -> int:
        """Half the dimension of the r-th symplectic part."""
        n = len(self.layers[r])
        if n % 2:
            raise AssertionError("split layers have even symplectic dimension")
        return n // 2


def _dominates(ca: Tuple[int, ...], cb: Tuple[int, ...]) -> bool:
    """Partial order on integer simple coordinates: every coefficient gap >= 0."""
    return all(x >= y for x, y in zip(ca, cb))


def kostant_cascade(system: RootSystem) -> CascadeChain:
    """Greedy sequence of maximal, mutually strongly orthogonal positive roots.

    Among the strongly-orthogonal candidates the maximal elements of the
    simple-coordinate partial order are found; ties are broken by the
    lexicographically greatest coordinate vector and recorded.
    """
    if not system.simple_enumeration:
        raise ValueError("cascade requires a generated system with simple roots")
    simples = [system.simple_enumeration[i] for i in system.simple_indices()]
    coords: Dict[Vector, Tuple[int, ...]] = {}
    for a, c in zip(system.positives,
                    simple_coordinates_all(system.positives, simples)):
        if c is None or any(x.denominator != 1 for x in c):
            raise AssertionError(f"simple coordinates of {a} are not integral")
        coords[a] = tuple(int(x) for x in c)
    chosen: List[Vector] = []
    ties: List[Tuple[int, Tuple[Vector, ...]]] = []
    candidates = list(system.positives)
    while candidates:
        maxima = [
            a for a in candidates
            if not any(b != a and _dominates(coords[b], coords[a]) for b in candidates)
        ]
        maxima.sort(reverse=True)
        if len(maxima) > 1:
            ties.append((len(chosen) + 1, tuple(maxima)))
        pick = maxima[0]
        chosen.append(pick)
        candidates = [a for a in candidates if strongly_orthogonal(system, a, pick)]
    for i, a in enumerate(chosen):
        for b in chosen[i + 1:]:
            if not strongly_orthogonal(system, a, b):
                raise AssertionError(f"cascade roots {a} and {b} are not strongly orthogonal")
    return CascadeChain(tuple(chosen), tuple(ties))


def reverse_cascade(beta_prime: Sequence[Vector]) -> Tuple[Vector, ...]:
    """Reversed enumeration beta_r = beta_prime_{m-r+1}."""
    return tuple(reversed(tuple(beta_prime)))


def layer_partition(system: RootSystem, beta: Sequence[Vector],
                    ties: Tuple = ()) -> CascadeDecomposition:
    """Partition the positives into layers by the descending recursion.

    Layer r collects the unassigned positives alpha with beta_r - alpha a
    positive root.  The fill-out partition property and the orthogonality
    characterization of each layer are checked before returning.
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
    pairings = {a: tuple(inner(a, b) for b in beta) for a in system.positives}
    for r in range(1, m + 1):
        expected = set(layers[r]) | {beta[r - 1]}
        characterized = {
            a for a, ip in pairings.items()
            if not any(ip[r:]) and ip[r - 1] > 0
        }
        if expected != characterized:
            raise AssertionError(f"layer characterization failed at r={r}")
    return CascadeDecomposition(system, reverse_cascade(beta), beta, layers, tuple(ties))


def cascade_decomposition(system: RootSystem) -> CascadeDecomposition:
    """Convenience: cascade, reverse, and partition in one call."""
    chain = kostant_cascade(system)
    return layer_partition(system, reverse_cascade(chain.beta_prime), chain.ties)


def sigma_r(decomp: CascadeDecomposition, alpha: Vector, r: int) -> Vector:
    """Negated reflection -s_{beta_r}(alpha) pairing alpha with beta_r - alpha."""
    if alpha not in set(decomp.layers.get(r, ())):
        raise ValueError(f"{alpha} is not in layer {r}")
    b = decomp.beta[r - 1]
    image = vadd(vscale(Q(-1), alpha),
                 vscale(Q(2) * inner(alpha, b) / inner(b, b), b))
    if image not in set(decomp.layers[r]):
        raise AssertionError("sigma must preserve the layer")
    if vadd(alpha, image) != b:
        raise AssertionError("alpha + sigma(alpha) must equal beta_r")
    return image


def _psi_combo(system: RootSystem, combo: Dict[int, int]) -> Vector:
    """Expand an integer combination of enumerated simple roots to coordinates."""
    dim = len(next(iter(system.simple_enumeration.values())))
    out = (0,) * dim
    for idx, coeff in combo.items():
        out = vadd(out, vscale(coeff, system.simple_enumeration[idx]))
    return out


def closed_form_beta(series: str, rank: int) -> Tuple[Vector, ...]:
    """Reversed cascade by literal transcription of the per-family closed forms.

    Independent of kostant_cascade; serves as its oracle.
    """
    system = build_root_system(series, rank)
    betas: List[Vector] = []
    if series == "A":
        if rank % 2 == 1:
            n = (rank - 1) // 2
            betas.append(_psi_combo(system, {0: 1}))
            for r in range(2, n + 2):
                betas.append(vadd(vadd(_psi_combo(system, {-(r - 1): 1}),
                                       betas[-1]),
                                  _psi_combo(system, {r - 1: 1})))
        else:
            n = rank // 2
            if n >= 1:
                betas.append(_psi_combo(system, {-1: 1, 1: 1}))
            for r in range(2, n + 1):
                betas.append(vadd(vadd(_psi_combo(system, {-r: 1}),
                                       betas[-1]),
                                  _psi_combo(system, {r: 1})))
    elif series == "B":
        if rank % 2 == 1:
            n = (rank - 1) // 2
            betas.append(_psi_combo(system, {1: 1}))
            for r in range(1, n + 1):
                betas.append(_psi_combo(system, {2 * r + 1: 1}))
                combo = {j: 2 for j in range(1, 2 * r + 1)}
                combo[2 * r + 1] = 1
                betas.append(_psi_combo(system, combo))
        else:
            n = rank // 2
            for r in range(1, n + 1):
                betas.append(_psi_combo(system, {2 * r: 1}))
                combo = {j: 2 for j in range(1, 2 * r)}
                combo[2 * r] = 1
                betas.append(_psi_combo(system, combo))
    elif series == "C":
        for r in range(1, rank + 1):
            combo = {1: 1}
            combo.update({j: 2 for j in range(2, r + 1)})
            betas.append(_psi_combo(system, combo))
    elif series == "D":
        if rank % 2 == 0:
            n = rank // 2
            betas.append(_psi_combo(system, {1: 1}))
            betas.append(_psi_combo(system, {2: 1}))
            for r in range(2, n + 1):
                betas.append(_psi_combo(system, {2 * r: 1}))
                combo = {1: 1, 2: 1, 2 * r: 1}
                combo.update({j: 2 for j in range(3, 2 * r)})
                betas.append(_psi_combo(system, combo))
        else:
            n = (rank - 1) // 2
            betas.append(_psi_combo(system, {3: 1}))
            betas.append(_psi_combo(system, {1: 1, 2: 1, 3: 1}))
            for r in range(2, n + 1):
                betas.append(_psi_combo(system, {2 * r + 1: 1}))
                combo = {1: 1, 2: 1, 2 * r + 1: 1}
                combo.update({j: 2 for j in range(3, 2 * r + 1)})
                betas.append(_psi_combo(system, combo))
    else:
        raise ValueError(f"unsupported family {series!r}")
    return tuple(betas)
