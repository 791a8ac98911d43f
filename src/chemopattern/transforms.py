"""Cosine-basis fields on the rectangle and the transforms between grid and
coefficient space.

Fields satisfying no-flux boundary conditions are represented by real
coefficients c[k1, k2] of cos(k1*pi*x1/ell1)*cos(k2*pi*x2/ell2); the Neumann
condition then holds identically.  The collocation grid is the half-integer
(midpoint) grid x_i = (i + 1/2) * ell / n, on which the type-II/III discrete
cosine transforms implement exact analysis/synthesis.

Nonlinear terms never need a derivative on the grid.  The Laplacian is
diagonal in the cosine basis, so gradient products are formed through
grad(u).grad(w) = (1/2) [Lap(uw) - u Lap(w) - w Lap(u)]: every factor is a
plain cosine synthesis, and Lap(uw) is applied after the analysis, which is
exact for the dealiased product.  Synthesis accepts a target grid shape and
analysis a truncation shape, so nonlinear terms can be formed on a padded
grid: the simulator pads to twice the base resolution per axis, on which
the products of a cubic nonlinearity are alias-free.

Both transforms multiply by cached dense cosine matrices, one BLAS ``matmul``
per axis, so the zero padding and the dealiasing truncation are the shapes
of the matrices.  At the grids the simulator runs this costs less than a fast
cosine transform, whose call overhead outweighs its arithmetic there (Boyd,
*Chebyshev and Fourier Spectral Methods*, 2nd ed., 2001, ch. 10).  Both act
on the last two axes and treat any leading axes as a batch, which folds into
the rows of the first product, so all the fields of one right-hand side go
through one call.  They take the caller's arrays for the intermediate product
and the result, and analysis works in its input, so a caller that keeps
those arrays allocates no grid-sized memory per call.  Padded, as in every
right-hand side, the right factor of the first product is a C-contiguous
copy, which OpenBLAS multiplies to the same bytes as the transposed view, a
third faster at 32 -> 64; unpadded, its small-matrix kernels round the two
apart, so the view stays.  The bytes depend on the kernel OpenBLAS picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DomainGeometry, ModeIndex, rho_table


class NonFiniteError(ValueError):
    """A field or a stepped state holds NaN or infinity."""


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """Return ``a``, or raise :class:`NonFiniteError` if an entry is not finite."""
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} must be finite")
    return a


@dataclass
class SpectralField:
    """Cosine coefficients (n1, n2) of a real Neumann field on ``geometry``."""

    coeffs: np.ndarray
    geometry: DomainGeometry

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 2:
            raise ValueError("coeffs must be a 2D array")
        require_finite(self.coeffs, "coeffs")

    @property
    def shape(self) -> tuple[int, int]:
        return self.coeffs.shape

    def mode(self, k: ModeIndex) -> float:
        """Amplitude of mode ``k`` (the normalized projection on e_k)."""
        return float(self.coeffs[k])


@dataclass
class GridField:
    """Point values on the (n1, n2) midpoint collocation grid of ``geometry``."""

    values: np.ndarray
    geometry: DomainGeometry

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2D array")
        require_finite(self.values, "values")


@lru_cache(maxsize=16)
def _cosine_matrices(n: int, m: int) -> tuple[np.ndarray, ...]:
    """Read-only synthesis ``C`` (m x n) and analysis ``A`` (n x m) matrices
    between n cosine coefficients and the m-point midpoint grid:
    ``C[i, k] = cos(pi*(i + 1/2)*k/m)`` and ``A[k, i] = (w_k/m)*C[i, k]`` with
    ``w_0 = 1``, ``w_k = 2``, so ``A @ C`` is the identity; then ``C.T`` and
    ``A.T``, copied C-contiguous if m > n: faster in BLAS, to the same bytes."""
    i = np.arange(m)[:, None]
    k = np.arange(n)[None, :]
    # reduce the angle exactly in integers, so cos sees arguments below 2*pi
    C = np.cos(np.pi * (((2 * i + 1) * k) % (4 * m)) / (2 * m))
    AT = C * (np.where(k == 0, 1.0, 2.0) / m)
    A = np.ascontiguousarray(AT.T)
    CT, AT = (np.ascontiguousarray(C.T), AT) if m > n else (C.T, A.T)
    C.flags.writeable = A.flags.writeable = CT.flags.writeable = AT.flags.writeable = False
    return C, A, CT, AT


@lru_cache(maxsize=16)
def _operands(n1: int, m1: int, n2: int, m2: int) -> tuple[np.ndarray, ...]:
    """The (left, right) factors of n1 x n2 -> m1 x m2 synthesis, then of its analysis."""
    (C1, A1, _, _), (_, _, C2T, A2T) = _cosine_matrices(n1, m1), _cosine_matrices(n2, m2)
    return C1, C2T, A1, A2T


def coeffs_to_grid(coeffs: np.ndarray, shape: tuple[int, int] | None = None,
                   out: np.ndarray | None = None,
                   rows: np.ndarray | None = None) -> np.ndarray:
    """Cosine synthesis over the last two axes (leading axes are a batch) on a
    grid of ``shape`` (>= coefficient shape; default: the coefficient shape).

    ``out`` takes the result and ``rows``, a C-contiguous
    ``(*batch, n1, shape[1])`` array, the intermediate product (default:
    fresh arrays); ``out`` is overwritten entirely.  Returns ``out``."""
    *batch, n1, n2 = coeffs.shape
    m1, m2 = shape if shape is not None else (n1, n2)
    if m1 < n1 or m2 < n2:
        raise ValueError(f"target grid {m1}x{m2} smaller than coefficients {n1}x{n2}")
    C1, C2T, _, _ = _operands(n1, m1, n2, m2)
    rows = np.empty((*batch, n1, m2)) if rows is None else rows
    # the batch folds into the row count of the first product
    np.matmul(coeffs.reshape(-1, n2), C2T, out=rows.reshape(-1, m2))
    return np.matmul(C1, rows, out=out)


def grid_to_coeffs(values: np.ndarray, shape: tuple[int, int] | None = None,
                   rows: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Cosine analysis over the last two axes (leading axes are a batch):
    point values on the midpoint grid -> coefficients, truncated to ``shape``
    (<= grid shape; default: the full grid).

    ``values`` is overwritten: each field has its ``(0, 0)`` value subtracted.
    ``rows``, a C-contiguous ``(*batch, m1, shape[1])`` array, takes the
    intermediate product and ``out`` the result (default: fresh arrays)."""
    *batch, m1, m2 = values.shape
    n1, n2 = shape if shape is not None else (m1, m2)
    if n1 > m1 or n2 > m2:
        raise ValueError(f"truncation {n1}x{n2} larger than grid {m1}x{m2}")
    _, _, A1, A2T = _operands(n1, m1, n2, m2)
    # A constant analyses exactly to the (0, 0) coefficient.  Taking one out
    # first keeps the other coefficients of a constant field exactly zero and
    # their rounding error proportional to the field's spread about its
    # (0, 0) value rather than to its offset.  It is taken out field by
    # field: numpy buffers a broadcasting subtraction through a temporary.
    fields = values.reshape(-1, m1, m2)
    offsets = fields[:, 0, 0].tolist()
    for field, o in zip(fields, offsets):
        field -= o
    rows = np.empty((*batch, m1, n2)) if rows is None else rows
    np.matmul(fields.reshape(-1, m2), A2T, out=rows.reshape(-1, n2))
    coeffs = np.matmul(A1, rows, out=out)
    corners = coeffs[..., 0, 0].flat
    for i, o in enumerate(offsets):
        corners[i] += o
    return coeffs


def transform_inverse(s: SpectralField) -> GridField:
    """Exact synthesis on the matching midpoint grid; :func:`grid_to_coeffs`
    of its values recovers the coefficients."""
    return GridField(coeffs_to_grid(s.coeffs), s.geometry)


def helmholtz_inverse(u: SpectralField, coupling: float) -> SpectralField:
    """Quasi-static chemoattractant solve: v = coupling * (-Lap + 1)^(-1) u.

    Diagonal in the cosine basis: v_k = coupling * u_k / (1 + rho_k), so
    (-Lap + 1) v recovers coupling * u exactly in the truncated basis.
    """
    n1, n2 = u.shape
    table = rho_table(n1, n2, u.geometry)
    return SpectralField(coupling * u.coeffs / (1.0 + table), u.geometry)
