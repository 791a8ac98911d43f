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
the products of a cubic nonlinearity are alias-free.  Both skip the
transform passes over rows and columns known to be zero or discarded.

Both transforms act on the last two axes and treat any leading axes as a
batch, so all the fields of one right-hand side go through one ``dct`` call
per axis.  Synthesis runs its passes in place in a caller's ``out`` array and
analysis, with ``overwrite``, in place in its input, so a caller that reuses
those arrays allocates no grid-sized memory per call.  Results are always the
arrays ``dct`` returns, whether or not it worked in place, and are bitwise
equal to one call per field.

The right-hand sides transform through :func:`rhs_coeffs_to_grid` and
:func:`rhs_grid_to_coeffs` instead.  On padded grids of at most
``DENSE_MAX`` points per axis, where a ``dct`` call costs more in overhead
than in arithmetic, these multiply by cached dense cosine matrices (one BLAS
``matmul`` per axis); the dealiasing truncation is then the shape of the
matrices.  They agree with the ``dct`` path to rounding, not bitwise, and
their bytes depend on the BLAS kernel.  On that path they take the caller's
arrays for the intermediate product and the analysed result, so a caller that
keeps them allocates no grid-sized memory per call.  Beyond ``DENSE_MAX``
they are the ``dct`` functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dct

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

    def l2_norm(self) -> float:
        """Domain-averaged L2 norm, sqrt(<u^2>/|Omega|), computed spectrally."""
        w1 = np.where(np.arange(self.shape[0]) == 0, 1.0, 0.5)[:, None]
        w2 = np.where(np.arange(self.shape[1]) == 0, 1.0, 0.5)[None, :]
        return float(np.sqrt(np.sum(w1 * w2 * self.coeffs**2)))


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


def grid_to_coeffs(values: np.ndarray, shape: tuple[int, int] | None = None,
                   overwrite: bool = False) -> np.ndarray:
    """Cosine analysis over the last two axes (leading axes are a batch):
    point values on the midpoint grid -> coefficients, truncated to ``shape``
    (<= grid shape; default: the full grid).

    With ``overwrite`` the first pass runs in place in ``values`` and the
    result may be a view of it; otherwise ``values`` is left untouched.
    """
    m1, m2 = values.shape[-2:]
    n1, n2 = shape if shape is not None else (m1, m2)
    if n1 > m1 or n2 > m2:
        raise ValueError(f"truncation {n1}x{n2} larger than grid {m1}x{m2}")
    rows = dct(values, type=2, axis=-2, overwrite_x=overwrite)[..., :n1, :]
    c = dct(rows, type=2, axis=-1, overwrite_x=True)[..., :n2]
    c /= (2.0 * m1) * (2.0 * m2)
    c[..., 1:, :] *= 2.0
    c[..., :, 1:] *= 2.0
    return c


def coeffs_to_grid(coeffs: np.ndarray, shape: tuple[int, int] | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Cosine synthesis over the last two axes (leading axes are a batch) on a
    grid of ``shape`` (>= coefficient shape).

    Both passes run in place in ``out`` (default: a fresh array), which is
    overwritten entirely; the result is the array the second pass returns,
    normally ``out`` itself.
    """
    n1, n2 = coeffs.shape[-2:]
    m1, m2 = shape if shape is not None else (n1, n2)
    if m1 < n1 or m2 < n2:
        raise ValueError(f"target grid {m1}x{m2} smaller than coefficients {n1}x{n2}")
    if out is None:
        out = np.empty(coeffs.shape[:-2] + (m1, m2))
    out[..., :n1, :n2] = coeffs
    out[..., 1:n1, :n2] *= 0.5
    out[..., :n1, 1:n2] *= 0.5
    out[..., n1:, :n2] = 0.0
    out[..., n2:] = 0.0
    # numpy skips the copy when dct returned the same memory
    out[..., :n2] = dct(out[..., :n2], type=3, axis=-2, overwrite_x=True)
    return dct(out, type=3, axis=-1, overwrite_x=True)


#: Padded grids with at most this many points per axis go through the dense
#: cosine matrices in the right-hand-side transforms.  On a 2-core x86-64
#: host a model step then ran x2.2-2.5 faster at 64 and x1.7-1.8 at 128; at
#: 256 the lead fell to x1.1-1.4, and the matrix work per grid point keeps
#: growing with the grid, so larger grids keep the ``dct``.
DENSE_MAX = 128


@lru_cache(maxsize=16)
def _cosine_matrices(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only synthesis ``C`` (m x n) and analysis ``A`` (n x m) matrices
    between n cosine coefficients and the m-point midpoint grid:
    ``C[i, k] = cos(pi*(i + 1/2)*k/m)`` and ``A[k, i] = (w_k/m)*C[i, k]`` with
    ``w_0 = 1``, ``w_k = 2``, so ``A @ C`` is the identity."""
    i = np.arange(m)[:, None]
    k = np.arange(n)[None, :]
    # reduce the angle exactly in integers, so cos sees arguments below 2*pi
    C = np.cos(np.pi * (((2 * i + 1) * k) % (4 * m)) / (2 * m))
    A = np.ascontiguousarray((C * (np.where(k == 0, 1.0, 2.0) / m)).T)
    C.flags.writeable = A.flags.writeable = False
    return C, A


def rhs_coeffs_to_grid(coeffs: np.ndarray, shape: tuple[int, int], out: np.ndarray,
                       rows: np.ndarray | None = None) -> np.ndarray:
    """:func:`coeffs_to_grid` of a right-hand side: the same synthesis into
    ``out`` (overwritten entirely), through the dense matrices on grids up to
    ``DENSE_MAX`` per axis.  Returns ``out``.

    ``rows``, a C-contiguous ``(*batch, n1, shape[1])`` array, takes the
    intermediate product of the dense path (default: a fresh array)."""
    if max(shape) > DENSE_MAX:
        return coeffs_to_grid(coeffs, shape, out=out)
    n1, n2 = coeffs.shape[-2:]
    C1, _ = _cosine_matrices(n1, shape[0])
    C2, _ = _cosine_matrices(n2, shape[1])
    # the batch folds into the row count of the first product
    flat = None if rows is None else rows.reshape(-1, shape[1])
    rows = np.matmul(coeffs.reshape(-1, n2), C2.T, out=flat)
    return np.matmul(C1, rows.reshape(*coeffs.shape[:-1], shape[1]), out=out)


def rhs_grid_to_coeffs(values: np.ndarray, shape: tuple[int, int],
                       rows: np.ndarray | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """:func:`grid_to_coeffs` of a right-hand side: the same analysis
    truncated to ``shape``, through the dense matrices on grids up to
    ``DENSE_MAX`` per axis.  ``values`` may be overwritten.

    On the dense path ``rows``, a C-contiguous ``(*batch, m1, shape[1])``
    array, takes the intermediate product and ``out`` the result (default:
    fresh arrays); beyond ``DENSE_MAX`` the result is a fresh array."""
    m1, m2 = values.shape[-2:]
    if max(m1, m2) > DENSE_MAX:
        return grid_to_coeffs(values, shape, overwrite=True)
    _, A1 = _cosine_matrices(shape[0], m1)
    _, A2 = _cosine_matrices(shape[1], m2)
    # A constant analyses exactly to the (0, 0) coefficient.  Taking one out
    # first keeps the other coefficients of a constant field exactly zero, as
    # the dct's are, and their rounding error proportional to the variation
    # of the field rather than to its offset.  It is taken out field by
    # field: numpy buffers a broadcasting subtraction through a temporary.
    fields = values.reshape(-1, m1, m2)
    offset = fields[:, 0, 0].copy()
    for field, o in zip(fields, offset):
        field -= o
    flat = None if rows is None else rows.reshape(-1, shape[1])
    rows = np.matmul(fields.reshape(-1, m2), A2.T, out=flat)
    coeffs = np.matmul(A1, rows.reshape(*values.shape[:-1], shape[1]), out=out)
    coeffs[..., 0, 0] += offset.reshape(values.shape[:-2])
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
