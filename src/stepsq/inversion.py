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

That integral over lam in R^m, one parameter per layer, is taken in closed
form at every depth m.  Each term of the integrand is a Gaussian in lam;
whitened, it splits into m one-dimensional integrals of exp(-u^2 - i b u)
over R, each sqrt(pi) exp(-b^2 / 4).  Each result carries ``budget``, a
rounding bound on its residual; both are relative to |f(x)|, and a caller
that checks the residual against a tolerance checks the budget too.

A negative result bounds what inversion checks.  For Gaussian test functions
the slice map, |Pf| and c cancel: in exact arithmetic each term integrates to
the matching term of f at log x, and a slice map A replaced by A G, for any
invertible G, reconstructs the same value.  So inversion checks Euclidean
Fourier inversion on R^m through the centre slice, not the group law or the
paper's Theta_lam, |Pf| and c; those need a check where they do not cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class InversionResult:
    """Reconstruction of f(x) from the characters of its right translates.

    ``rel_error`` is the residual and ``budget`` its rounding bound, both
    relative to |f(x)|.
    """

    value: complex
    reference: complex
    rel_error: float
    budget: float


def fourier_inversion(f: TestFunction, x: GroupElement) -> InversionResult:
    """Reconstruct f(x) by integrating the translated characters.

    The integrand over lam in R^m is c * Theta_lam(r_x f) * |Pf(lam)|; the
    density cancels the normalization, leaving per slice form (S, L0, K) of
    ``_slice_quadratic`` one Gaussian in lam, pre * exp(L^T S^-1 L / 4 + K)
    with L = L0 - 2 pi i lam and (pre, expo) = gaussian_integral_parts(S, L0,
    K).  With S^-1 = R R^T, u = pi R^T lam and b = R^T L0, each whitened axis
    is the integral of exp(-u^2 - i b_i u) over R, sqrt(pi) exp(-b_i^2 / 4),
    so the term integrates in closed form to

        value_t = pre / (pi^(m/2) det R) * exp(expo - b.b / 4),

    b.b the plain product, not conjugated.  The exponents are added before
    the one exp: far from the identity exp(expo) alone overflows, and its
    product with exp(-b.b / 4) is inf * 0.  The group law, |Pf| and c cancel
    from the result (see the module docstring).

    The residual and ``budget`` are relative to |f(x)|.  ``budget`` is the
    first-order rounding bound
    eps * sum_t |value_t| * cond(S_t) * (m + |K_t| + |b_t|^2) / |f(x)|:
    inverting S_t costs up to cond(S_t) * eps, relative, in each of the m
    factors of pre and det R and in the quadratic forms, and exp turns an
    absolute error in its argument into the same relative one.  A residual
    checked against a tolerance below the budget shows nothing, so the
    caller checks both.  Raises ValueError for a slice form that is not real
    or an |f(x)| below the smallest normal float.
    """
    name, m = f.harness.name, f.harness.m
    log_x, slices = _slice_quadratic(f, x)
    # f(x), at the lift that the slice already took: exp(0) is exactly 1
    reference = f.value_at(log_x)
    if not abs(reference) >= np.finfo(float).tiny:
        raise ValueError(f"{name}: |f(x)| = {abs(reference):.3g} underflows "
                         f"at log x = {np.array2string(log_x, precision=4)}, "
                         "so no residual relative to it is defined")
    value, size = 0j, 0.0
    for S, L0, K in slices:
        if np.any(S.imag):
            raise ValueError(f"{name}: inversion needs a real slice form, "
                             "and a term of the test function has a complex "
                             "quadratic part")
        # checks that S is symmetric positive definite
        pre, expo = gaussian_integral_parts(S, L0, K)
        R = np.linalg.cholesky(np.linalg.inv(S.real))
        b = R.T @ L0
        term = (pre / (np.pi ** (m / 2) * np.prod(np.diag(R)))
                * np.exp(expo - b @ b / 4))
        value += term
        size += (abs(term) * np.linalg.cond(S.real)
                 * (m + abs(K) + np.vdot(b, b).real))
    value = complex(value)
    return InversionResult(value, reference,
                           abs(value - reference) / abs(reference),
                           float(np.finfo(float).eps * size / abs(reference)))


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
    flagged instead of silently inverted.  The stages agree when each
    residual is below tolerance and each error budget is within it.
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
    stage_small = fourier_inversion(f_small, x_small)
    stage_big = fourier_inversion(f_big, x_big)
    agree = all(stage.rel_error < tolerance and stage.budget <= tolerance
                for stage in (stage_small, stage_big))
    return LimitInversionReport(True, gap, stage_small, stage_big, agree)
