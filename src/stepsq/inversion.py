"""Distribution characters via orbit integrals and Fourier inversion.

A test function lives on a harness group through its lift to the Lie algebra.
The character of the representation attached to a regular functional is the
normalized integral of the Euclidean Fourier transform over the affine
subspace spanned by the symplectic dual coordinates; inversion integrates the
characters of right translates against the density over the functional
parameters.

That integral over lam in R^m, one parameter per layer, uses one rule for
every depth m: a tensor Gauss-Legendre rule on [-cutoff, cutoff]^m whose node
count per axis doubles until two successive estimates agree to tolerance / 10.
Each result carries its error budget: ``tail_bound`` for the integrand outside
the cube and ``quad_error`` for the rule inside it.  The budget is enforced:
a reconstruction whose budget exceeds the tolerance raises, so an infinite
budget (the rule could not refine) is never a pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .harness import (
    GroupElement,
    Harness,
    build_harness,
    embed_leading,
    expm_nilpotent,
    logm_unipotent,
)
from .plancherel import plancherel_constant
from .states import GaussianState, gaussian_integral, gaussian_integral_parts


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Rapidly decaying function on a harness group, lifted to the algebra.

    The lift is a finite sum of Gaussians in the algebra coordinates fixed by
    the harness basis order (center, a-directions, b-directions per layer).
    """

    __test__ = False  # not a pytest test class

    harness: Harness
    terms: Tuple[GaussianState, ...]

    @property
    def dim(self) -> int:
        return self.harness.dim

    @staticmethod
    def standard(harness: Harness) -> "TestFunction":
        """exp(-pi |xi|^2) on the algebra coordinates."""
        n = harness.dim
        return TestFunction(harness, (GaussianState(
            np.pi * np.eye(n, dtype=complex), np.zeros(n, complex), 0.0),))

    @staticmethod
    def gaussian(harness: Harness, center: Sequence[float],
                 momentum: Sequence[float], width: float = 1.0) -> "TestFunction":
        return TestFunction(harness, (GaussianState.packet(
            harness.dim, center, momentum, width),))

    def scale(self, c: complex) -> "TestFunction":
        return TestFunction(self.harness, tuple(t.scale(c) for t in self.terms))

    def plus(self, other: "TestFunction") -> "TestFunction":
        if other.harness is not self.harness:
            raise ValueError("the summands live on different harnesses")
        return TestFunction(self.harness, self.terms + other.terms)

    def lift_coords(self, g: GroupElement) -> np.ndarray:
        """Algebra coordinates of log g in the harness basis order."""
        return self.harness.read_coords(logm_unipotent(g.to_matrix()))

    def value(self, g: GroupElement) -> complex:
        xi = self.lift_coords(g)
        return complex(sum(t.evaluate(xi) for t in self.terms))

    def sup_norm_bound(self) -> float:
        """Coarse upper bound max_xi sum |terms| (used for relative errors)."""
        total = 0.0
        for t in self.terms:
            # |exp(-x M x + l x + k)| maximized in closed form
            S = 2.0 * t.M.real
            val = gaussian_integral_parts(0.5 * S, t.ell.real, t.k.real)[1]
            total += float(np.exp(val.real))
        return total

    def conjugate_by(self, g: GroupElement) -> "TestFunction":
        """The function h -> f(g h g^-1)."""
        h = self.harness
        gm = g.to_matrix()
        gi = np.linalg.inv(gm)
        # Ad(g) in the coordinate basis
        ad = np.array([h.read_coords(gm @ mat @ gi) for mat in h.matrices]).T
        if not abs(abs(np.linalg.det(ad)) - 1.0) < 1e-9:
            raise AssertionError("conjugation must preserve Lebesgue measure")
        terms = []
        for t in self.terms:
            terms.append(GaussianState(ad.T @ t.M @ ad, ad.T @ t.ell, t.k))
        return TestFunction(h, tuple(terms))


@dataclass(frozen=True, eq=False)
class OrbitDescriptor:
    """A regular functional and the affine dual slice it labels."""

    harness: Harness
    lam: Tuple[Tuple[int, float], ...]  # (layer index, coefficient)

    @property
    def lam_dict(self) -> Dict[int, float]:
        return dict(self.lam)

    @property
    def d_list(self) -> Tuple[int, ...]:
        return tuple(layer.d for layer in self.harness.layers)

    @property
    def c(self) -> int:
        return plancherel_constant(self.d_list)

    @property
    def pf_abs(self) -> float:
        return self.harness.pf_abs(self.lam_dict)

    @property
    def slice_dim(self) -> int:
        return sum(2 * d for d in self.d_list)

    def check_regular(self) -> None:
        if self.pf_abs == 0.0:
            raise ValueError("singular functional: the density vanishes")


def orbit(harness: Union[Harness, str], lam: Dict[int, float]) -> OrbitDescriptor:
    """Build an orbit descriptor for a functional on the layer centers."""
    h = build_harness(harness) if isinstance(harness, str) else harness
    if set(int(r) for r in lam) != {layer.r for layer in h.layers}:
        raise ValueError("the functional must assign a value to every layer center")
    return OrbitDescriptor(h, tuple(sorted((int(r), float(v)) for r, v in lam.items())))


@dataclass(frozen=True, eq=False)
class FourierData:
    """Closed-form Fourier transform of a lifted test function."""

    f: TestFunction

    def __call__(self, xi_star: np.ndarray) -> complex:
        xi_star = np.asarray(xi_star, dtype=float)
        total = 0.0 + 0.0j
        for t in self.f.terms:
            total += gaussian_integral(t.M, t.ell - 2j * np.pi * xi_star, t.k)
        return complex(total)


def euclidean_ft(f: TestFunction) -> FourierData:
    """Classical Fourier transform of the lift, in closed form."""
    return FourierData(f)


def orbit_integral(fhat: FourierData, orb: OrbitDescriptor) -> complex:
    """Character value: normalized integral of fhat over the affine dual slice."""
    orb.check_regular()
    h = orb.harness
    lam_full = np.zeros(h.dim)
    lam_full[list(h.starts)] = [orb.lam_dict[layer.r] for layer in h.layers]
    # columns spanning the symplectic dual coordinates inside the full dual
    V = np.eye(h.dim)[:, [i for i in range(h.dim) if i not in h.starts]]
    total = 0.0 + 0.0j
    for t in fhat.f.terms:
        Minv = np.linalg.inv(t.M)
        a = t.ell - 2j * np.pi * lam_full
        S = (np.pi ** 2) * V.T @ Minv @ V
        S = 0.5 * (S + S.T)
        L = -1j * np.pi * V.T @ (Minv @ a)
        K = 0.25 * a @ Minv @ a + t.k
        pre, _ = gaussian_integral_parts(t.M, t.ell, t.k)  # normalization of fhat
        total += pre * gaussian_integral(S, L, K) if orb.slice_dim else pre * np.exp(K)
    return complex(total / (orb.c * orb.pf_abs))


def _slice_quadratic(f: TestFunction, x: GroupElement) -> List[Tuple[np.ndarray, np.ndarray, complex]]:
    """Per-term quadratic data of s -> f1(BCH(s . z, log x)) on the center slice.

    The product of a central exponential with x has algebra coordinates affine
    in s for these harnesses; affineness is verified by finite differences.
    """
    h = f.harness
    m = h.m
    x_mat = x.to_matrix()

    def xi(s: np.ndarray) -> np.ndarray:
        w = np.zeros((h.size, h.size))
        for r, layer in enumerate(h.layers):
            w = w + s[r] * layer.z
        return h.read_coords(logm_unipotent(expm_nilpotent(w) @ x_mat))

    b = xi(np.zeros(m))
    A = np.zeros((h.dim, m))
    for r in range(m):
        e = np.zeros(m)
        e[r] = 1.0
        plus, minus = xi(e), xi(-e)
        A[:, r] = plus - b
        if not np.allclose(minus, b - A[:, r], atol=1e-9):
            raise AssertionError("central slice coordinates must be affine")
    for r in range(m):
        for s_ in range(r + 1, m):
            e = np.zeros(m)
            e[r] = e[s_] = 1.0
            if not np.allclose(xi(e), b + A[:, r] + A[:, s_], atol=1e-9):
                raise AssertionError("central slice coordinates must be "
                                     "jointly affine")
    out = []
    for t in f.terms:
        S = A.T @ (t.M @ A)
        S = 0.5 * (S + S.T)
        L0 = A.T @ (t.ell - 2.0 * t.M @ b)
        K = complex(-b @ t.M @ b + t.ell @ b + t.k)
        out.append((S, L0, K))
    return out


def character_of_translate(f: TestFunction, x: GroupElement,
                           orb: OrbitDescriptor) -> complex:
    """Character of the right translate r_x f via the center-slice reduction."""
    orb.check_regular()
    h = f.harness
    lam_vec = np.array([orb.lam_dict[layer.r] for layer in h.layers])
    total = 0.0 + 0.0j
    for S, L0, K in _slice_quadratic(f, x):
        total += gaussian_integral(S, L0 - 2j * np.pi * lam_vec, K)
    return complex(total / (orb.c * orb.pf_abs))


@dataclass(frozen=True)
class InversionResult:
    """Reconstruction of f(x) from the characters of its right translates.

    Its error budget is ``tail_bound`` plus ``quad_error``.
    """

    value: complex
    reference: complex
    rel_error: float
    cutoff: float
    tail_bound: float
    quad_error: float


#: Gauss-Legendre nodes per axis of the first tensor-rule estimate.
START_NODES = 16
#: Cap on the total node count n^m of one tensor-rule estimate.
MAX_NODES = 2 ** 18
#: Cap on n itself: numpy's leggauss solves an n x n eigenproblem.
MAX_AXIS_NODES = 2 ** 10


def fourier_inversion(f: TestFunction, x: GroupElement,
                      tolerance: float = 1e-6) -> InversionResult:
    """Reconstruct f(x) by integrating the translated characters.

    The integrand over the functional parameters lam in R^m is
    c * Theta_lam(r_x f) * |Pf(lam)|; the density cancels the normalization,
    leaving a sum of Gaussians in lam.  The cube [-cutoff, cutoff]^m grows
    by 1.5 from 2 until the integrand on its corners and face centres is
    below tolerance / 100; ``tail_bound`` is a Gaussian fit of that envelope
    integrated outside the cube.  Inside it, one tensor Gauss-Legendre rule
    serves every m: n = START_NODES points per axis, doubled until two
    successive estimates differ by at most tolerance / 10, or until doubling
    would take n past MAX_AXIS_NODES or n^m past MAX_NODES; ``quad_error``
    is their last difference, infinite when n could not double.  Raises
    AssertionError when the budget tail_bound + quad_error exceeds tolerance.
    """
    m = f.harness.m
    terms = []
    for S, L0, K in _slice_quadratic(f, x):
        # checks S and gives the prefactor, which depends on S only
        pre, _ = gaussian_integral_parts(S, L0, K)
        terms.append((pre, np.linalg.inv(S), L0, K))

    def integrand(lam: np.ndarray) -> np.ndarray:
        """Sum of the slice Gaussians at L0 - 2 pi i lam, for lam of shape (N, m)."""
        total = np.zeros(len(lam), dtype=complex)
        for pre, S_inv, L0, K in terms:
            L = L0 - 2j * np.pi * lam
            total += pre * np.exp(0.25 * np.einsum("ni,ij,nj->n", L, S_inv, L) + K)
        return total

    # corners and face centres of [-1, 1]^m: on the surface of a cube around
    # its peak, a Gaussian is largest near the face centres, not the corners
    probes = np.concatenate([
        np.array(list(itertools.product((-1.0, 1.0), repeat=m))),
        np.eye(m), -np.eye(m)])

    def envelope(rad: float) -> float:
        return float(np.max(np.abs(integrand(rad * probes))))

    cutoff = 2.0
    while envelope(cutoff) > tolerance / 100.0 and cutoff < 64.0:
        cutoff *= 1.5
    # Gaussian-fit tail estimate from the envelope at cutoff/2 and cutoff
    v1, v2 = envelope(cutoff / 2.0) + 1e-300, envelope(cutoff) + 1e-300
    alpha = max(math.log(v1 / v2) / (cutoff ** 2 * 0.75), 1e-6)
    tail = v2 / (2.0 * alpha * cutoff) * (2.0 * cutoff) ** max(m - 1, 0) * 2 * m

    def estimate(n: int) -> complex:
        """n-point Gauss-Legendre rule per axis over [-cutoff, cutoff]^m."""
        def tensor(axis: np.ndarray) -> np.ndarray:
            grids = np.meshgrid(*([cutoff * axis] * m), indexing="ij")
            return np.stack(grids, axis=-1).reshape(-1, m)

        nodes, weights = np.polynomial.legendre.leggauss(n)
        return complex(tensor(weights).prod(axis=1) @ integrand(tensor(nodes)))

    n = START_NODES
    val, quad_error = estimate(n), math.inf
    while 2 * n <= MAX_AXIS_NODES and (2 * n) ** m <= MAX_NODES:
        n *= 2
        prev, val = val, estimate(n)
        quad_error = abs(val - prev)
        if quad_error <= tolerance / 10.0:
            break
    if not tail + quad_error <= tolerance:
        raise AssertionError(
            f"{f.harness.name}: inversion error budget {tail + quad_error:.2g} "
            f"(tail {tail:.2g}, quadrature {quad_error:.2g}) exceeds the "
            f"tolerance {tolerance:g}")

    reference = f.value(x)
    scale = max(f.sup_norm_bound(), 1e-300)
    return InversionResult(val, complex(reference),
                           abs(val - reference) / scale, float(cutoff), tail,
                           quad_error)


@dataclass(frozen=True)
class LimitInversionReport:
    """Two-stage inversion agreement for a coherent restriction family."""

    coherent: bool
    coherence_gap: float
    stage_small: InversionResult
    stage_big: InversionResult
    agree: bool


def restrict_test_function(f_big: TestFunction, small: Harness) -> TestFunction:
    """Restriction of the lift to a harness cut from the same split model:
    one index map by root key."""
    big = f_big.harness
    position = {key: i for i, key in enumerate(big.keys)}
    if ((small.series, small.rank) != (big.series, big.rank)
            or not all(key in position for key in small.keys)):
        raise ValueError(f"{small.name} is not cut from the model of {big.name}")
    idx = [position[key] for key in small.keys]
    terms = []
    for t in f_big.terms:
        terms.append(GaussianState(t.M[np.ix_(idx, idx)], t.ell[idx], t.k))
    return TestFunction(small, tuple(terms))


def limit_inversion_check(f_big: TestFunction, f_small: TestFunction,
                          x_small: GroupElement, tolerance: float = 1e-3,
                          probe: Sequence[float] = (-1.5, -0.5, 0.0, 0.5, 1.5),
                          ) -> LimitInversionReport:
    """Verify both stages of a restriction chain reconstruct f at x.

    f_small must be the restriction of f_big to the leading-layer subgroup;
    the coherence is checked on a probe grid and an incoherent family is
    flagged instead of silently inverted.
    """
    big, small = f_big.harness, f_small.harness
    gap = 0.0
    for vals in np.ndindex(*([len(probe)] * small.m)):
        coords_small = tuple((probe[v], np.zeros(layer.d), np.zeros(layer.d))
                             for v, layer in zip(vals, small.layers))
        g_small = GroupElement(small, coords_small)
        gap = max(gap, abs(f_small.value(g_small)
                           - f_big.value(embed_leading(big, g_small))))
    coherent = gap < 1e-9
    x_big = embed_leading(big, x_small)
    stage_small = fourier_inversion(f_small, x_small, tolerance=tolerance / 10)
    stage_big = fourier_inversion(f_big, x_big, tolerance=tolerance / 10)
    agree = (coherent and stage_small.rel_error < tolerance
             and stage_big.rel_error < tolerance)
    return LimitInversionReport(coherent, gap, stage_small, stage_big, agree)
