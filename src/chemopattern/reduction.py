"""Two-mode amplitude reduction near the critical coupling.

On the resonant rectangle the critical modes are I1 = (m, n) and I2 = (0, 2n),
with equal squared wavenumber ``rho``.  Writing the solution as
``u = y1*e_I1 + y2*e_I2 + (slaved modes)``, adiabatic elimination of the five
quadratically forced modes (0,0), (2m,0), (m,3n), (0,4n), (2m,2n) leaves a
planar cubic system for (y1, y2):

    y1' = sigma1*y1 + 4*a_q*y1*y2 + (1/4)*(b1 + 2*b2)*y1^3 + 2*b2*y1*y2^2
    y2' = sigma2*y2 +   a_q*y1^2  +           b1*y2^3      +   b2*y2*y1^2

where ``a_q`` is the quadratic resonance coefficient and b1, b2 the cubic
self/cross couplings (``frak_b1``/``frak_b2`` below).  Two candidate values
for the cubic pair are tracked side by side:

* ``formula``: assembled from the interaction kernels and slaving gains
  (b1 = 4*b1_q*kappa1 - (3/4)*a_c - (3/4)*alpha and the analogous b2); this is
  what the reduction itself produces, and what the simulation oracle matches;
* ``paper``: the traditionally quoted fixed multiples (-21/80)*mu and
  (-57/128)*mu; they disagree with the formula chain and are kept selectable
  so the disagreement stays visible in reports.

The arrangement of the quadratic terms is pinned three ways: by the mode
algebra (e_I1^2 contains e_I2, so y1^2 forces y2, not the other way around),
by the reflection equivariance y1 -> -y1 of the underlying equation, and by
the disappearance of pure-rectangle equilibria when a_q != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DomainGeometry, ModeIndex, ModelParams, rho, sigma

CONVENTIONS = ("formula", "paper")

#: Equilibria are accepted only if the vector field residual is below this,
#: relative to the size of the field's terms at the point.
RESIDUAL_RTOL = 1e-10

#: |a_q| below this (times the coefficient scale) counts as a_q = 0, where
#: rectangles are allowed; above it a rectangle raises RectangleRootError.
DEGENERATE_ATOL = 1e-10

#: Eigenvalues below this magnitude (times the Jacobian scale) are flagged
#: marginal.
MARGINAL_TOL = 1e-10

#: Rounding of the elimination cubic's coefficients (relative eps ~ 2e-16)
#: splits a double root by about sqrt(eps) ~ 1.5e-8 of its size, into two
#: close reals or a complex pair.  Roots within this distance (relative to
#: the amplitude scale) of the real axis and of each other are one real
#: root, and an off-axis point this close to the roll axis lies on it.
ROOT_MERGE_RTOL = 1e-7

#: A type-1 transition needs |a_q| below this times sqrt(|b1| * sigma-scale).
TYPE1_SMALLNESS = 0.1


class ResonanceError(ValueError):
    """The two-mode reduction does not apply: the critical pair does not
    share a wavenumber, or a slaved mode has (near-)zero growth rate."""


class RectangleRootError(RuntimeError):
    """A pure-rectangle root appeared although the quadratic coefficient is
    nonzero, which the reduced system forbids."""


@dataclass(frozen=True)
class ReducedCoefficients:
    """Coefficients of the planar amplitude system.

    ``sigma1``/``sigma2`` are the growth rates of modes (m, n) and (0, 2n);
    ``frak_a`` the quadratic resonance coefficient; ``frak_b1``/``frak_b2``
    the cubic pair actually used by the vector field (selected by
    ``convention``, both candidates kept alongside).  The intermediates
    ``a_c``, ``b1_q``, ``b2_q`` (interaction strengths) and ``kappa1``,
    ``kappa2`` (slaving gains) are retained for diagnostics and slaved-mode
    evaluation.
    """

    sigma1: float
    sigma2: float
    frak_a: float
    frak_b1: float
    frak_b2: float
    a_c: float
    b1_q: float
    b2_q: float
    kappa1: float
    kappa2: float
    rho_star: float
    m: int
    n: int
    mu: float
    alpha: float
    lam: float
    frak_b1_formula: float
    frak_b2_formula: float
    frak_b1_paper: float
    frak_b2_paper: float
    convention: str = "formula"

    def with_convention(self, convention: str) -> "ReducedCoefficients":
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
        b1 = self.frak_b1_formula if convention == "formula" else self.frak_b1_paper
        b2 = self.frak_b2_formula if convention == "formula" else self.frak_b2_paper
        return replace(self, frak_b1=b1, frak_b2=b2, convention=convention)

    def with_cubic_override(self, frak_b1: float, frak_b2: float) -> "ReducedCoefficients":
        """Copy with the active cubic pair replaced (used to probe both signs
        of b1 - 2*b2 without re-deriving coefficients)."""
        return replace(self, frak_b1=frak_b1, frak_b2=frak_b2, convention="override")

    @property
    def scale(self) -> float:
        """Magnitude scale of the coefficient set, for relative tolerances."""
        return max(abs(self.sigma1), abs(self.sigma2), abs(self.frak_a),
                   abs(self.frak_b1), abs(self.frak_b2), 1e-30)


@dataclass(frozen=True)
class EquilibriumPoint:
    """A stationary point of the truncated planar system.

    ``pattern_class`` is one of trivial/roll/rectangle/hexagon/mixed,
    ``stability`` one of stable-node/saddle/unstable, and
    ``jacobian_eigenvalues`` holds the real parts of the two eigenvalues.
    ``marginal`` flags an eigenvalue within tolerance of zero.
    """

    y: tuple[float, float]
    pattern_class: str
    stability: str
    jacobian_eigenvalues: tuple[float, float]
    marginal: bool = False


def quadratic_coefficient(p: ModelParams, rho_star: float) -> float:
    """Quadratic resonance coefficient a_q = (1/8)(-6*alpha + lam*rho/(1+rho)).

    Vanishes exactly when the coupling sits on the neutral envelope of the
    optimal wavenumber, which is what makes the balanced point degenerate.
    """
    if rho_star <= 0:
        raise ValueError("rho_star must be positive")
    return 0.125 * (-6.0 * p.alpha + p.lam * rho_star / (1.0 + rho_star))


def b_coefficients(p: ModelParams, rho_star: float) -> tuple[float, float, float]:
    """Quadratic interaction strengths (a_c, b1_q, b2_q).

    ``a_c`` couples a critical mode to the mean mode, ``b1_q`` to the
    double-wavenumber harmonics (squared wavenumber 4*rho), ``b2_q`` to the
    mixed harmonics (squared wavenumber 3*rho).  The test suite checks these
    against a second, algebraically equivalent printed form.
    """
    r = rho_star
    if r <= 0:
        raise ValueError("rho_star must be positive")
    a_c = -6.0 * p.alpha + p.lam * r / (1.0 + r)
    b1 = 0.25 * (-6.0 * p.alpha + p.lam * r * (2.0 / (1.0 + 4.0 * r) - 1.0 / (1.0 + r)))
    b2 = 0.25 * (-6.0 * p.alpha + 0.5 * p.lam * r * (3.0 / (1.0 + 3.0 * r) - 1.0 / (1.0 + r)))
    return a_c, b1, b2


def kappa_coefficients(p: ModelParams, g: DomainGeometry, m: int, n: int) -> tuple[float, float]:
    """Slaving gains (kappa1, kappa2) of the harmonic modes.

    kappa1 belongs to the squared wavenumber 4*rho pair {(2m,2n), (0,4n)},
    kappa2 to the 3*rho pair {(2m,0), (m,3n)}.  Both require the slaved
    growth rates to be bounded away from zero, which holds strictly below and
    near the critical coupling.
    """
    r = rho((m, n), g)
    s22 = sigma(rho((2 * m, 2 * n), g), p)
    s20 = sigma(rho((2 * m, 0), g), p)
    tol = 1e-12 * max(1.0, p.lam)
    if abs(s22) <= tol or abs(s20) <= tol:
        raise ResonanceError(
            f"slaved-mode growth rate vanishes (sigma(2m,2n)={s22:.3e}, "
            f"sigma(2m,0)={s20:.3e}); the adiabatic reduction is invalid here")
    kappa1 = -(-6.0 * p.alpha + 4.0 * p.lam * r / (r + 1.0)) / (8.0 * s22)
    kappa2 = -(-6.0 * p.alpha + 3.0 * p.lam * r / (r + 1.0)) / (8.0 * s20)
    return kappa1, kappa2


def cubic_coefficients(
    p: ModelParams,
    g: DomainGeometry,
    m: int,
    n: int,
    convention: str = "formula",
) -> ReducedCoefficients:
    """Assemble the full coefficient set of the planar amplitude system.

    The geometry must put modes (m, n) and (0, 2n) on a common squared
    wavenumber (as :func:`chemopattern.core.make_critical_geometry` does);
    otherwise the two-mode reduction does not apply (:class:`ResonanceError`).
    """
    r1 = rho((m, n), g)
    r2 = rho((0, 2 * n), g)
    if abs(r1 - r2) > 1e-9 * max(r1, r2):
        raise ResonanceError(
            f"modes ({m},{n}) and (0,{2*n}) have distinct squared wavenumbers "
            f"{r1:.6g} != {r2:.6g}; not a resonant rectangle")
    a_c, b1_q, b2_q = b_coefficients(p, r1)
    kappa1, kappa2 = kappa_coefficients(p, g, m, n)
    fb1 = 4.0 * b1_q * kappa1 - 0.75 * a_c - 0.75 * p.alpha
    fb2 = 4.0 * b2_q * kappa2 - 0.375 * a_c - 0.75 * p.alpha
    pb1 = -21.0 / 80.0 * p.mu
    pb2 = -57.0 / 128.0 * p.mu
    return ReducedCoefficients(
        sigma1=sigma(r1, p),
        sigma2=sigma(r2, p),
        frak_a=quadratic_coefficient(p, r1),
        frak_b1=fb1,
        frak_b2=fb2,
        a_c=a_c,
        b1_q=b1_q,
        b2_q=b2_q,
        kappa1=kappa1,
        kappa2=kappa2,
        rho_star=r1,
        m=m,
        n=n,
        mu=p.mu,
        alpha=p.alpha,
        lam=p.lam,
        frak_b1_formula=fb1,
        frak_b2_formula=fb2,
        frak_b1_paper=pb1,
        frak_b2_paper=pb2,
    ).with_convention(convention)


def slaved_modes(y1: float, y2: float, rc: ReducedCoefficients) -> dict[ModeIndex, float]:
    """Quadratic center-manifold amplitudes of the five slaved modes."""
    m, n = rc.m, rc.n
    return {
        (0, 0): -0.375 * y1**2 - 0.75 * y2**2,
        (2 * m, 0): rc.kappa2 * y1**2,
        (m, 3 * n): 4.0 * rc.kappa2 * y1 * y2,
        (0, 4 * n): 2.0 * rc.kappa1 * y2**2,
        (2 * m, 2 * n): rc.kappa1 * y1**2,
    }


def reduced_vector_field(y, rc: ReducedCoefficients):
    """Right-hand side of the truncated planar system at ``y = (y1, y2)``."""
    y1, y2 = y
    return np.array(_field_from_powers(y1, y2, y1**2, y1**3, y2**2, y2**3, rc))


def _field_from_powers(y1, y2, y1_sq, y1_cu, y2_sq, y2_cu, rc: ReducedCoefficients):
    """The two components of the planar field, given the coordinates and
    their squares and cubes: the one expression of the field, for the
    callers that form the powers themselves."""
    f1 = (rc.sigma1 * y1 + 4.0 * rc.frak_a * y1 * y2
          + 0.25 * (rc.frak_b1 + 2.0 * rc.frak_b2) * y1_cu
          + 2.0 * rc.frak_b2 * y1 * y2_sq)
    f2 = (rc.sigma2 * y2 + rc.frak_a * y1_sq
          + rc.frak_b1 * y2_cu + rc.frak_b2 * y2 * y1_sq)
    return f1, f2


def vector_field_jacobian(y, rc: ReducedCoefficients) -> np.ndarray:
    """Analytic Jacobian of the truncated planar system."""
    y1, y2 = y
    j11 = rc.sigma1 + 4.0 * rc.frak_a * y2 + 0.75 * (rc.frak_b1 + 2.0 * rc.frak_b2) * y1**2 \
        + 2.0 * rc.frak_b2 * y2**2
    j12 = 4.0 * rc.frak_a * y1 + 4.0 * rc.frak_b2 * y1 * y2
    j21 = 2.0 * rc.frak_a * y1 + 2.0 * rc.frak_b2 * y1 * y2
    j22 = rc.sigma2 + 3.0 * rc.frak_b1 * y2**2 + rc.frak_b2 * y1**2
    return np.array([[j11, j12], [j21, j22]])


def _amplitude_scale(rc: ReducedCoefficients) -> float:
    s = max(abs(rc.sigma1), abs(rc.sigma2))
    b = max(abs(rc.frak_b1), abs(rc.frak_b2), 1e-30)
    return max(math.sqrt(s / b), 1e-6)


def classify_pattern(y1: float, y2: float, rc: ReducedCoefficients) -> str:
    """Exact-structure pattern class of an equilibrium (not the coarse
    simulation fingerprint): roll has y1 = 0, rectangle y2 = 0, hexagon the
    locked ratio y1 = +-2*y2, anything else with both components is mixed."""
    tol = 1e-8 * max(_amplitude_scale(rc), abs(y1), abs(y2))
    if abs(y1) <= tol and abs(y2) <= tol:
        return "trivial"
    if abs(y1) <= tol:
        return "roll"
    if abs(y2) <= tol:
        return "rectangle"
    if abs(abs(y1) - 2.0 * abs(y2)) <= 1e-6 * max(abs(y1), 2.0 * abs(y2)):
        return "hexagon"
    return "mixed"


def classify_equilibrium(y, rc: ReducedCoefficients) -> EquilibriumPoint:
    """Classify a stationary point by its analytic Jacobian.

    The input must already be an equilibrium: the field residual is checked
    against ``RESIDUAL_RTOL`` times the norm of the field's term magnitudes
    at the point, which is what rounding leaves of a sum that cancels.  A
    gate on the coefficient scale alone would pass any point near the
    origin at sigma ~ 0, where every term is small.
    """
    y1, y2 = float(y[0]), float(y[1])
    res = np.linalg.norm(reduced_vector_field((y1, y2), rc))
    a1, a2 = abs(y1), abs(y2)
    size = math.hypot(
        abs(rc.sigma1) * a1 + 4.0 * abs(rc.frak_a) * a1 * a2
        + 0.25 * abs(rc.frak_b1 + 2.0 * rc.frak_b2) * a1**3 + 2.0 * abs(rc.frak_b2) * a1 * a2**2,
        abs(rc.sigma2) * a2 + abs(rc.frak_a) * a1**2
        + abs(rc.frak_b1) * a2**3 + abs(rc.frak_b2) * a2 * a1**2)
    if res > RESIDUAL_RTOL * size:
        raise ValueError(f"point {(y1, y2)} is not an equilibrium (residual {res:.3e})")
    J = vector_field_jacobian((y1, y2), rc)
    eigs = np.linalg.eigvals(J)
    re = np.sort(eigs.real)
    scale = max(np.abs(J).max(), 1e-30)
    marginal = bool(np.any(np.abs(eigs.real) <= MARGINAL_TOL * scale))
    det = float(np.linalg.det(J))
    if det < 0:
        stability = "saddle"
    elif re[1] < 0:
        stability = "stable-node"
    else:
        stability = "unstable"
    return EquilibriumPoint(
        y=(y1, y2),
        pattern_class=classify_pattern(y1, y2, rc),
        stability=stability,
        jacobian_eigenvalues=(float(re[0]), float(re[1])),
        marginal=marginal,
    )


def _stationary_points(rc: ReducedCoefficients) -> list[tuple[float, float]]:
    """Every nontrivial stationary point, by elimination.

    Rolls (0, +-sqrt(-sigma2/b1)) lie on the invariant axis y1 = 0.  Off it,
    the first equation gives y1^2 = Q(y2) = -(sigma1 + 4a*y2 + 2*b2*y2^2)/c1
    with c1 = (b1 + 2*b2)/4, and the second then leaves the cubic

        c1*P(y2) = (c1*b1 - 2*b2^2)*y2^3 - 6*a*b2*y2^2
                   + (c1*sigma2 - 4*a^2 - b2*sigma1)*y2 - a*sigma1,

    so each real root with Q > 0 gives the points (+-sqrt(Q), y2).  At
    c1 = 0 the first equation fixes y2 alone and the second gives y1^2.
    One Newton step takes each off-axis point to rounding.
    """
    s1, s2, a, b1, b2 = rc.sigma1, rc.sigma2, rc.frak_a, rc.frak_b1, rc.frak_b2
    c1 = 0.25 * (b1 + 2.0 * b2)
    pts: list[tuple[float, float]] = []
    roll_sq = -s2 / b1 if b1 else 0.0
    if roll_sq > 0:
        pts += [(0.0, math.sqrt(roll_sq)), (0.0, -math.sqrt(roll_sq))]
    if c1:
        cubic = [c1 * b1 - 2.0 * b2 * b2, -6.0 * a * b2, c1 * s2 - 4.0 * a * a - b2 * s1, -a * s1]
    else:
        cubic = [2.0 * b2, 4.0 * a, s1]
    amp = _amplitude_scale(rc)
    roots: list[float] = []
    for r in np.roots(cubic):
        y2, near = float(r.real), ROOT_MERGE_RTOL * max(amp, abs(r.real))
        if abs(r.imag) <= near and all(abs(y2 - q) > near for q in roots):
            roots.append(y2)
    for y2 in roots:
        if c1:
            y1_sq = -(s1 + 4.0 * a * y2 + 2.0 * b2 * y2 * y2) / c1
        else:
            y1_sq = -(s2 * y2 + b1 * y2**3) / (a + b2 * y2)
        if y1_sq <= (ROOT_MERGE_RTOL * amp) ** 2:  # a roll or the origin, on the axis
            continue
        for y1 in (math.sqrt(y1_sq), -math.sqrt(y1_sq)):
            y = np.array([y1, y2])
            f = reduced_vector_field(y, rc)
            step = y - np.linalg.solve(vector_field_jacobian(y, rc), f)
            # near a double root the Jacobian is near singular and the step
            # can overshoot; it is kept only where it lowers the residual
            if np.linalg.norm(reduced_vector_field(step, rc)) < np.linalg.norm(f):
                y = step
            pts.append((float(y[0]), float(y[1])))
    return pts


def equilibria(rc: ReducedCoefficients) -> list[EquilibriumPoint]:
    """Stationary points of the truncated planar system, classified.

    The catalogue is exact and needs no seeds: the rolls on the invariant
    axis plus the real roots of one elimination cubic (see
    :func:`_stationary_points`), the same path for a_q = 0 and a_q != 0.
    For |a_q| above ``DEGENERATE_ATOL`` (relative to the coefficient scale)
    a pure-rectangle root contradicts the structure of the system (y2'
    contains a_q*y1^2) and raises :class:`RectangleRootError`.

    The trivial point is always first; the remaining points are sorted by
    angle for deterministic output.
    """
    degenerate = abs(rc.frak_a) <= DEGENERATE_ATOL * max(rc.scale, 1.0)
    out = [classify_equilibrium((0.0, 0.0), rc)]
    for y in sorted(_stationary_points(rc), key=lambda q: math.atan2(q[1], q[0])):
        e = classify_equilibrium(y, rc)
        if not degenerate and e.pattern_class == "rectangle":
            raise RectangleRootError(
                f"pure-rectangle root {e.y} found with a_q = {rc.frak_a:.3e} != 0")
        out.append(e)
    return out


def transition_type(rc: ReducedCoefficients) -> str:
    """Transition verdict at this coefficient set.

    ``type-1`` (continuous: a small-amplitude local attractor branches off)
    requires every cubic combination governing an invariant ray to be
    stabilizing, b1 < 0, b1 + 2*b2 < 0, b1 + 4*b2 < 0, together with a
    quadratic coefficient small against sqrt(|b1| * sigma-scale).  Anything
    else is reported ``not-classified``; no other regime is decided here.
    """
    cubic_ok = (rc.frak_b1 < 0
                and rc.frak_b1 + 2.0 * rc.frak_b2 < 0
                and rc.frak_b1 + 4.0 * rc.frak_b2 < 0)
    if not cubic_ok:
        return "not-classified"
    sig_scale = max(rc.sigma1, rc.sigma2)
    if sig_scale > 0:
        a_small = abs(rc.frak_a) <= TYPE1_SMALLNESS * math.sqrt(abs(rc.frak_b1) * sig_scale)
    else:
        a_small = abs(rc.frak_a) <= 1e-10 * max(abs(rc.frak_b1), 1.0)
    return "type-1" if a_small else "not-classified"
