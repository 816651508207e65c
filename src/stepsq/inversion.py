"""Distribution characters via orbit integrals and Fourier inversion.

A test function lives on a harness group through its lift to the Lie algebra,
a finite sum of Gaussians; the lift, the centre slice and conjugation read
the group law of the harness (``Harness.log``, ``Harness.exp`` and
``Harness.adjoint``).  ``orbit_integral(f, orb)`` integrates the Euclidean
Fourier transform of the lift, in closed form per Gaussian term, over the
affine dual slice lam + v*, the span of the symplectic dual coordinates
through lam.  That slice is the Kirillov orbit only on one-layer groups;
with two or more layers the coadjoint orbit curves out of it.
``character_of_translate`` reduces the character of a right translate to the
centre slice, the same flat slice.  Inversion integrates the characters of
right translates against the density over the functional parameters.

That integral over lam in R^m, one parameter per layer, uses one rule for
every depth m.  Each term of the integrand is a Gaussian in lam; whitening it
splits its integral into m one-dimensional integrals over R, each evaluated
by a Gauss-Hermite rule whose node count doubles until two successive
estimates agree to tolerance / 10.  Each result carries its error budget
``quad_error``.  The budget is enforced: a reconstruction whose budget
exceeds the tolerance raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._numpy import np
from .harness import GroupElement, Harness, build_harness, embed_leading
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

    def lift_coords(self, g: GroupElement) -> np.ndarray:
        """Algebra coordinates of log g in the harness basis order."""
        return self.harness.log(g.to_matrix())

    def value(self, g: GroupElement) -> complex:
        return self.value_at(self.lift_coords(g))

    def value_at(self, xi: np.ndarray) -> complex:
        """f at the group element with algebra coordinates xi."""
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
        ad = self.harness.adjoint(g.coords)
        if not abs(abs(np.linalg.det(ad)) - 1.0) < 1e-9:
            raise AssertionError("conjugation must preserve Lebesgue measure")
        return TestFunction(self.harness, tuple(
            GaussianState(ad.T @ t.M @ ad, ad.T @ t.ell, t.k) for t in self.terms))


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
        return tuple(layer.d_r for layer in self.harness.layers)

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


def orbit_integral(f: TestFunction, orb: OrbitDescriptor) -> complex:
    """Slice value: the normalized integral of the Euclidean Fourier
    transform of f's lift over the affine dual slice lam + v* of orb.

    On one-layer groups the slice is the Kirillov orbit and this is the
    character; with two or more layers the orbit curves out of the slice.
    """
    orb.check_regular()
    h = orb.harness
    lam_full = h.centres([orb.lam_dict[layer.r] for layer in h.layers])
    # columns spanning the symplectic dual coordinates inside the full dual
    V = np.eye(h.dim)[:, [i for i in range(h.dim) if i not in h.starts]]
    total = 0.0 + 0.0j
    for t in f.terms:
        Minv = np.linalg.inv(t.M)
        a = t.ell - 2j * np.pi * lam_full
        S = (np.pi ** 2) * V.T @ Minv @ V
        S = 0.5 * (S + S.T)
        L = -1j * np.pi * V.T @ (Minv @ a)
        K = 0.25 * a @ Minv @ a + t.k
        pre, _ = gaussian_integral_parts(t.M, t.ell, t.k)  # normalization of the transform
        total += pre * gaussian_integral(S, L, K) if orb.slice_dim else pre * np.exp(K)
    return complex(total / (orb.c * orb.pf_abs))


def _slice_quadratic(f: TestFunction, x: GroupElement
                     ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray, complex]]]:
    """b = log x and the per-term quadratic data of s -> f1(BCH(s . z, log x))
    on the center slice.

    The product of a central exponential with x has algebra coordinates
    xi(s) = b + A s when ``Harness.centre_slice_affine`` holds, which is
    decided from the bracket table; then b = xi(0) and A[:, r] = xi(e_r) - b.
    Raises AssertionError otherwise.
    """
    h = f.harness
    if not h.centre_slice_affine:
        raise AssertionError("central slice coordinates must be affine")
    m = h.m
    x_mat = x.to_matrix()

    def xi(s: np.ndarray) -> np.ndarray:
        return h.log(h.exp(h.centres(s)) @ x_mat)

    b = xi(np.zeros(m))
    A = np.stack([xi(e) - b for e in np.eye(m)], axis=1)
    out = []
    for t in f.terms:
        S = A.T @ (t.M @ A)
        S = 0.5 * (S + S.T)
        L0 = A.T @ (t.ell - 2.0 * t.M @ b)
        K = complex(-b @ t.M @ b + t.ell @ b + t.k)
        out.append((S, L0, K))
    return b, out


def character_of_translate(f: TestFunction, x: GroupElement,
                           orb: OrbitDescriptor) -> complex:
    """Character of the right translate r_x f via the center-slice reduction."""
    orb.check_regular()
    h = f.harness
    lam_vec = np.array([orb.lam_dict[layer.r] for layer in h.layers])
    total = 0.0 + 0.0j
    for S, L0, K in _slice_quadratic(f, x)[1]:
        total += gaussian_integral(S, L0 - 2j * np.pi * lam_vec, K)
    return complex(total / (orb.c * orb.pf_abs))


@lru_cache(maxsize=None)
def _hermite_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Hermite rule, built once per n
    and returned read-only."""
    u, w = np.polynomial.hermite.hermgauss(n)
    u.flags.writeable = w.flags.writeable = False
    return u, w


@dataclass(frozen=True)
class InversionResult:
    """Reconstruction of f(x) from the characters of its right translates.

    Its error budget is ``quad_error``.
    """

    value: complex
    reference: complex
    rel_error: float
    quad_error: float


def fourier_inversion(f: TestFunction, x: GroupElement,
                      tolerance: float = 1e-6) -> InversionResult:
    """Reconstruct f(x) by integrating the translated characters.

    The integrand over the functional parameters lam in R^m is
    c * Theta_lam(r_x f) * |Pf(lam)|; the density cancels the normalization,
    leaving one Gaussian in lam per term, pre * exp(L^T S^-1 L / 4 + K) with
    L = L0 - 2 pi i lam.  With S^-1 = R R^T and u = pi R^T lam, b = R^T L0,
    the term integrates to pre * exp(L0^T S^-1 L0 / 4 + K) / (pi^m det R)
    times the product over i of the integrals of exp(-u^2 - i b_i u) over R.
    Each factor takes an n-point Gauss-Hermite rule, n = 8, 16, ... doubled
    until two successive estimates of the sum differ by at most
    tolerance / 10, or n reaches 256 (hermgauss loses its weights above
    about 300 nodes).  ``quad_error`` is the last difference, floored at the
    rounding bound n * eps * sum |summands| of the final sum.  Raises
    ValueError for a slice form that is not real, and AssertionError when
    quad_error exceeds tolerance.
    """
    name, m = f.harness.name, f.harness.m
    log_x, slices = _slice_quadratic(f, x)
    terms = []
    for S, L0, K in slices:
        if np.any(S.imag):
            raise ValueError(f"{name}: inversion needs a real slice form, "
                             "and a term of the test function has a complex "
                             "quadratic part")
        # checks that S is symmetric positive definite
        pre, expo = gaussian_integral_parts(S, L0, K)
        R = np.linalg.cholesky(np.linalg.inv(S.real))
        terms.append((pre * np.exp(expo) / (np.pi ** m * np.prod(np.diag(R))),
                      R.T @ L0))

    def estimate(n: int) -> Tuple[complex, float]:
        """The n-point rule's sum and the sum of its summands' moduli."""
        u, w = _hermite_rule(n)
        total, size = 0j, 0.0
        for const, b in terms:
            factors = np.exp(-1j * np.outer(b, u))  # row i: exp(-i b_i u)
            total += const * np.prod(factors @ w)
            size += abs(const) * np.prod(np.abs(factors) @ w)
        return complex(total), float(size)

    n, val = 8, estimate(8)[0]
    while True:
        n *= 2
        prev, (val, size) = val, estimate(n)
        quad_error = abs(val - prev)
        if quad_error <= tolerance / 10.0 or n == 256:
            break
    quad_error = max(quad_error, n * np.finfo(float).eps * size)
    if not quad_error <= tolerance:
        raise AssertionError(
            f"{name}: inversion error budget {quad_error:.2g} exceeds the "
            f"tolerance {tolerance:g}")

    # f(x), at the lift that the slice already took: exp(0) is exactly 1
    reference = f.value_at(log_x)
    scale = max(f.sup_norm_bound(), 1e-300)
    return InversionResult(val, reference,
                           abs(val - reference) / scale, quad_error)


@dataclass(frozen=True)
class LimitInversionReport:
    """Two-stage inversion agreement for a coherent restriction family;
    an incoherent family is not inverted, and its stages are None."""

    coherent: bool
    coherence_gap: float
    stage_small: Optional[InversionResult]
    stage_big: Optional[InversionResult]
    agree: bool


def restrict_test_function(f_big: TestFunction, small: Harness) -> TestFunction:
    """Restriction of the lift to a harness cut from the same split model:
    one index map by root key."""
    big = f_big.harness
    idx = big.positions(small)
    if idx is None:
        raise ValueError(f"{small.name} is not cut from the model of {big.name}")
    terms = []
    for t in f_big.terms:
        terms.append(GaussianState(t.M[np.ix_(idx, idx)], t.ell[idx], t.k))
    return TestFunction(small, tuple(terms))


def limit_inversion_check(f_big: TestFunction, f_small: TestFunction,
                          x_small: GroupElement, tolerance: float = 1e-3,
                          ) -> LimitInversionReport:
    """Verify both stages of a restriction chain reconstruct f at x.

    f_small must be the restriction of f_big to the leading-layer subgroup;
    the coherence is checked on a probe grid and an incoherent family is
    flagged instead of silently inverted.
    """
    big, small = f_big.harness, f_small.harness
    probe = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    gap = 0.0
    for vals in np.ndindex(*([len(probe)] * small.m)):
        g_small = GroupElement(small, small.centres(probe[list(vals)]))
        gap = max(gap, abs(f_small.value(g_small)
                           - f_big.value(embed_leading(big, g_small))))
    coherent = gap < 1e-9
    if not coherent:
        return LimitInversionReport(False, gap, None, None, False)
    x_big = embed_leading(big, x_small)
    stage_small = fourier_inversion(f_small, x_small, tolerance=tolerance / 10)
    stage_big = fourier_inversion(f_big, x_big, tolerance=tolerance / 10)
    agree = (stage_small.rel_error < tolerance
             and stage_big.rel_error < tolerance)
    return LimitInversionReport(True, gap, stage_small, stage_big, agree)
