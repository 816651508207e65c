"""Closed-form Gaussian states, the one state type the representations act
on, and product states sampled axis by axis on a uniform tensor grid, which
only feed the grid coefficient-norm quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ._numpy import np


def gaussian_integral_parts(S: np.ndarray, L: np.ndarray, K: complex) -> Tuple[complex, complex]:
    """(prefactor, exponent) with integral of exp(-y^T S y + L^T y + K) over R^D
    equal to prefactor * exp(exponent).

    The prefactor depends only on S; the exponent is (1/4) L^T S^-1 L + K.
    S is complex symmetric with eigenvalues in the right half plane (implied
    by a positive definite real part, which is checked).
    """
    S = np.atleast_2d(np.asarray(S, dtype=complex))
    D = S.shape[0]
    if D == 0:
        return 1.0 + 0j, complex(K)
    sym = 0.5 * (S + S.T)
    # allclose(S, sym, atol=1e-10), NaN failing
    if not (np.abs(S - sym) <= 1e-10 + 1e-5 * np.abs(sym)).all():
        raise AssertionError("quadratic form must be symmetric")
    if not np.min(np.linalg.eigvalsh(S.real)) > 0:
        raise AssertionError("real part must be positive definite")
    eigs = np.linalg.eigvals(S)
    if not np.min(eigs.real) > 0:
        raise AssertionError("eigenvalues must lie in the right half plane")
    # principal branch per eigenvalue is safe: the spectrum of a complex
    # symmetric matrix with positive definite real part avoids (-inf, 0]
    det_inv_sqrt = np.prod(eigs ** -0.5)
    quad = 0.25 * L @ np.linalg.solve(S, L)
    return complex(np.pi ** (D / 2) * det_inv_sqrt), complex(quad + K)


def gaussian_integral(S: np.ndarray, L: np.ndarray, K: complex) -> complex:
    """Exact value of the integral of exp(-y^T S y + L^T y + K) over R^D."""
    pre, expo = gaussian_integral_parts(S, L, K)
    return pre * np.exp(expo)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """f(y) = exp(-y^T M y + ell^T y + k) with Re(M) positive definite."""

    M: np.ndarray
    ell: np.ndarray
    k: complex

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    @staticmethod
    def ground(D: int) -> "GaussianState":
        """Unit-norm centered Gaussian 2^(D/4) exp(-pi |y|^2)."""
        return GaussianState(np.pi * np.eye(D, dtype=complex),
                             np.zeros(D, dtype=complex),
                             complex(0.25 * D * np.log(2.0)))

    @staticmethod
    def packet(D: int, center, momentum, width: float = 1.0) -> "GaussianState":
        """Translated/modulated Gaussian wave packet (not normalized)."""
        c = np.asarray(center, dtype=float)
        p = np.asarray(momentum, dtype=float)
        M = (np.pi / width ** 2) * np.eye(D, dtype=complex)
        ell = 2.0 * M @ c + 2j * np.pi * p
        k = complex(-c @ M @ c)
        return GaussianState(M, ell, k)

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """Pointwise values; y has shape (..., D)."""
        y = np.asarray(y, dtype=float)
        quad = np.einsum("...i,ij,...j->...", y, self.M, y)
        lin = y @ self.ell
        return np.exp(-quad + lin + self.k)

    def translate(self, q: np.ndarray) -> "GaussianState":
        """y -> f(y + q)."""
        q = np.asarray(q, dtype=complex)
        return GaussianState(
            self.M,
            self.ell - 2.0 * self.M @ q,
            self.k - q @ self.M @ q + self.ell @ q,
        )

    def modulate(self, freq: np.ndarray, phase: complex = 0.0) -> "GaussianState":
        """Multiply by exp(2*pi*i*(freq . y) + i*phase-like constant)."""
        return GaussianState(self.M, self.ell + 2j * np.pi * np.asarray(freq, dtype=complex),
                             self.k + phase)

    def quadratic_phase(self, Qf: np.ndarray, lin: np.ndarray, const: complex) -> "GaussianState":
        """Multiply by exp(i*(y^T Qf y + lin . y + const)) with real data."""
        Qf = np.atleast_2d(np.asarray(Qf, dtype=float))
        return GaussianState(self.M - 1j * 0.5 * (Qf + Qf.T),
                             self.ell + 1j * np.asarray(lin, dtype=complex),
                             self.k + 1j * const)

    def substitute(self, B: np.ndarray) -> "GaussianState":
        """y -> f(B y) for an invertible matrix with |det B| = 1."""
        B = np.asarray(B, dtype=float)
        if not abs(abs(np.linalg.det(B)) - 1.0) < 1e-9:
            raise AssertionError("substitution must preserve measure")
        return GaussianState(B.T @ self.M @ B, B.T @ self.ell, self.k)

    def inner_parts(self, other: "GaussianState") -> Tuple[complex, complex]:
        """(prefactor, exponent) of the inner product <self, other>."""
        S = np.conj(self.M) + other.M
        L = np.conj(self.ell) + other.ell
        K = np.conj(self.k) + other.k
        return gaussian_integral_parts(S, L, K)

    def inner(self, other: "GaussianState") -> complex:
        """L2 inner product <self, other> (conjugate-linear in self)."""
        pre, expo = self.inner_parts(other)
        return complex(pre * np.exp(expo))

    def norm_sq(self) -> float:
        return float(np.real(self.inner(self)))


@dataclass
class Grid:
    """Uniform tensor grid on [-half_width, half_width)^D."""

    D: int
    points: int
    half_width: float

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.points

    def axis(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.points)


@dataclass
class GridState:
    """Product state f_1(y_1) ... f_D(y_D) sampled on a uniform tensor grid,
    held as one sample vector per axis; quadrature is the rectangle rule."""

    grid: Grid
    factors: Tuple[np.ndarray, ...]

    @staticmethod
    def from_gaussian(g: GaussianState, grid: Grid) -> "GridState":
        """Samples of a Gaussian with diagonal M, exp(k) folded into the
        first factor; ValueError for any other M."""
        M = g.M
        if g.dim != grid.D:
            raise ValueError("the Gaussian and the grid differ in dimension")
        if np.any(M - np.diag(np.diag(M))):
            raise ValueError("grid states need a Gaussian with diagonal M")
        x = grid.axis()
        factors = [np.exp(-M[i, i] * x * x + g.ell[i] * x) for i in range(g.dim)]
        factors[0] = factors[0] * np.exp(g.k)
        return GridState(grid, tuple(factors))

    def inner(self, other: "GridState") -> complex:
        if self.grid != other.grid:
            raise ValueError("the states live on different grids")
        return complex(math.prod(np.vdot(f, g) for f, g in
                                 zip(self.factors, other.factors))
                       * self.grid.h ** self.grid.D)

    def norm_sq(self) -> float:
        return float(np.real(self.inner(self)))
