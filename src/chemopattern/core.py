"""Model parameters, rectangle geometry, and linear stability in the cosine basis.

The nondimensional model couples a cell density ``u`` to a chemoattractant that
is taken to be in quasi-static balance, which closes the dynamics into a single
nonlocal scalar equation.  Its linearization about the uniform state is
diagonal in the Neumann cosine basis

    e_k(x) = cos(k1*pi*x1/ell1) * cos(k2*pi*x2/ell2),

with growth rate ``sigma(rho_k)`` depending on the mode only through the
squared wavenumber ``rho_k = pi^2 (k1^2/ell1^2 + k2^2/ell2^2)``.  This module
holds the parameter containers, the growth rate, the critical coupling
``lambda_c`` with its set of critical modes, and the resonant-rectangle
constructor that makes two distinct modes go unstable together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ModeIndex = tuple[int, int]

#: Modes within this relative distance of the minimum all count as critical.
MINIMIZER_RTOL = 1e-9

#: Default per-axis search cutoff for the discrete minimization.
DEFAULT_K_MAX = 32

#: Growth rates within this of zero, relative to the coupling scale, have sign 0.
PES_ZERO_TOL = 1e-10


class SearchBoundaryError(RuntimeError):
    """The discrete minimizer touched the search boundary; enlarge ``k_max``."""


def _require_positive(**fields: float) -> None:
    for name, value in fields.items():
        if not value > 0:
            raise ValueError(f"{name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional parameters of the two-species model.

    ``d1``/``d2`` are the cell and chemoattractant diffusivities, ``chi`` the
    chemotactic coefficient, ``r1``/``r2`` the chemoattractant production and
    degradation rates, and ``alpha1``/``alpha2`` the proliferation
    coefficients.
    """

    d1: float
    d2: float
    chi: float
    r1: float
    r2: float
    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        _require_positive(d1=self.d1, d2=self.d2, chi=self.chi, r1=self.r1,
                          r2=self.r2, alpha1=self.alpha1, alpha2=self.alpha2)


@dataclass(frozen=True)
class ModelParams:
    """Nondimensional parameters: relative diffusion ``mu``, proliferation
    strength ``alpha``, and chemotactic coupling ``lam``."""

    mu: float
    alpha: float
    lam: float

    def __post_init__(self) -> None:
        _require_positive(mu=self.mu, alpha=self.alpha, lam=self.lam)


@dataclass(frozen=True)
class DomainGeometry:
    """Rectangle side lengths (nondimensional)."""

    ell1: float
    ell2: float

    def __post_init__(self) -> None:
        _require_positive(ell1=self.ell1, ell2=self.ell2)


@dataclass(frozen=True)
class CriticalData:
    """Outcome of the discrete critical-coupling search.

    ``lambda_c`` is the smallest coupling at which some cosine mode becomes
    neutrally stable, ``critical_modes`` the set of minimizing modes, and
    ``rho_star`` their squared wavenumber (the smallest one on ties between
    distinct wavenumbers).  ``rho_star_continuum`` and ``lambda_c_continuum``
    are the unconstrained minimizer sqrt(2*alpha/mu) and its envelope value
    (sqrt(mu) + sqrt(2*alpha))^2, exposed for diagnostics; on a generic
    rectangle no lattice mode attains them.
    """

    lambda_c: float
    critical_modes: frozenset[ModeIndex]
    rho_star: float
    rho_star_continuum: float
    lambda_c_continuum: float


def nondimensionalize(p: PhysicalParams) -> ModelParams:
    """Collapse the dimensional parameters onto (mu, alpha, lambda)."""
    return ModelParams(
        mu=p.d1 / p.d2,
        alpha=p.alpha1 * p.alpha2 / p.r2,
        lam=p.r1 * math.sqrt(p.alpha2) * p.chi / (p.r2 * p.d2),
    )


def rho(k: ModeIndex, g: DomainGeometry) -> float:
    """Squared wavenumber of cosine mode ``k`` on rectangle ``g``."""
    k1, k2 = k
    if k1 < 0 or k2 < 0:
        raise ValueError(f"mode indices must be nonnegative, got {k!r}")
    return math.pi**2 * (k1**2 / g.ell1**2 + k2**2 / g.ell2**2)


def rho_table(n1: int, n2: int, g: DomainGeometry) -> np.ndarray:
    """``rho`` for every mode with k1 < n1, k2 < n2, as an (n1, n2) array."""
    k1 = np.arange(n1, dtype=float)[:, None]
    k2 = np.arange(n2, dtype=float)[None, :]
    return np.pi**2 * (k1**2 / g.ell1**2 + k2**2 / g.ell2**2)


def sigma(rho_k, p: ModelParams):
    """Linear growth rate of a mode with squared wavenumber ``rho_k``.

    Accepts scalars or arrays.  The three competing effects are diffusion
    (-mu*rho), proliferation-induced decay of the uniform state (-2*alpha),
    and the destabilizing chemotactic feedback (+lam*rho/(1+rho)).
    """
    rho_k = np.asarray(rho_k, dtype=float)
    out = -p.mu * rho_k - 2.0 * p.alpha + p.lam * rho_k / (1.0 + rho_k)
    return float(out) if out.ndim == 0 else out


def lambda_envelope(rho_k, p: ModelParams):
    """Coupling at which a mode with squared wavenumber ``rho_k`` is neutral.

    This is (rho+1)(mu*rho + 2*alpha)/rho; minimizing it over the mode lattice
    yields the critical coupling.  Only meaningful for ``rho_k > 0``.
    """
    rho_k = np.asarray(rho_k, dtype=float)
    out = (rho_k + 1.0) * (p.mu * rho_k + 2.0 * p.alpha) / rho_k
    return float(out) if out.ndim == 0 else out


def lambda_critical(p: ModelParams, g: DomainGeometry, k_max: int = DEFAULT_K_MAX) -> CriticalData:
    """Minimize the neutral-coupling envelope over nonzero modes k <= k_max.

    Every mode within relative tolerance ``MINIMIZER_RTOL`` of the minimum is
    included in the critical set (symmetric rectangles produce exact ties).

    Raises
    ------
    SearchBoundaryError
        If a minimizer lies on the boundary of the search box, in which case
        the search is inconclusive.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    table = rho_table(k_max + 1, k_max + 1, g)
    with np.errstate(divide="ignore"):
        env = lambda_envelope(table, p)
    env[0, 0] = np.inf
    lam_c = float(env.min())
    ks = np.argwhere(env <= lam_c * (1.0 + MINIMIZER_RTOL))
    modes = frozenset((int(k1), int(k2)) for k1, k2 in ks)
    if any(k1 == k_max or k2 == k_max for k1, k2 in modes):
        raise SearchBoundaryError(
            f"neutral-coupling minimizer on the k_max={k_max} boundary; "
            "increase k_max")
    rho_star = min(rho(k, g) for k in modes)
    return CriticalData(
        lambda_c=lam_c,
        critical_modes=modes,
        rho_star=rho_star,
        rho_star_continuum=math.sqrt(2.0 * p.alpha / p.mu),
        lambda_c_continuum=(math.sqrt(p.mu) + math.sqrt(2.0 * p.alpha)) ** 2,
    )


def pes_classification(
    p: ModelParams,
    g: DomainGeometry,
    k_max: int = DEFAULT_K_MAX,
) -> dict[ModeIndex, int]:
    """Sign of the growth rate for every nonzero mode with k1, k2 <= k_max.

    Exchange of stability: below the critical coupling every sign is -1; at
    it the critical modes read 0 and the rest stay -1; just above it exactly
    the critical modes turn +1 (further above, more modes cross as the
    coupling passes their own neutral values).  ``PES_ZERO_TOL`` absorbs
    rounding in |sigma| relative to the coupling scale.
    """
    crit = lambda_critical(p, g, k_max)  # validates the search box
    table = rho_table(k_max + 1, k_max + 1, g)
    sig = sigma(table, p)
    tol = PES_ZERO_TOL * max(1.0, abs(p.lam), crit.lambda_c)
    out: dict[ModeIndex, int] = {}
    for k1 in range(k_max + 1):
        for k2 in range(k_max + 1):
            if k1 == 0 and k2 == 0:
                continue
            s = sig[k1, k2]
            out[(k1, k2)] = 0 if abs(s) <= tol else (1 if s > 0 else -1)
    return out


def make_critical_geometry(m: int, n: int, p: ModelParams) -> DomainGeometry:
    """Rectangle on which modes (m, n) and (0, 2n) share the optimal wavenumber.

    The side lengths satisfy sqrt(3)*n*ell1 = m*ell2 with ell2 sized so that
    rho_(m,n) = rho_(0,2n) = sqrt(2*alpha/mu); the two modes then cross zero
    growth together at the critical coupling.  ``m`` and ``n`` must be coprime,
    otherwise the same wavevectors are indexed twice by coarser modes.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if math.gcd(m, n) != 1:
        raise ValueError(f"(m, n) = {(m, n)} must be coprime")
    rho_star = math.sqrt(2.0 * p.alpha / p.mu)
    ell2 = 2.0 * n * math.pi / math.sqrt(rho_star)
    ell1 = m * ell2 / (math.sqrt(3.0) * n)
    return DomainGeometry(ell1=ell1, ell2=ell2)


def helmholtz_gain(rho_k, coupling: float):
    """Per-mode gain of the quasi-static chemoattractant solve.

    Solving (-Laplacian + 1) v = coupling * u mode-by-mode gives
    v_k = coupling * u_k / (1 + rho_k).
    """
    rho_k = np.asarray(rho_k, dtype=float)
    out = coupling / (1.0 + rho_k)
    return float(out) if out.ndim == 0 else out
