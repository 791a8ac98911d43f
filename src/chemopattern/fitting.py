"""Pattern classification and regression oracles on simulation output.

The fits close the loop between simulation and reduction: the slaved-mode fit
recovers the center-manifold gains from a trajectory, and the saturation fit
recovers cubic coefficients from steady amplitudes on invariant branches.
Both are deliberately simple least-squares constructions so they stay
independent of the reduction formulas they are checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SATURATION_BRANCHES = ("roll", "rectangle", "hexagon")

#: Relative tolerance on |y1/y2| = 2 for a sample to count as ratio-locked
#: onto the hexagon branch.
HEXAGON_RATIO_RTOL = 0.05


class FitDegenerateError(RuntimeError):
    """The regression columns have no usable dynamic range."""


class BranchError(ValueError):
    """Saturation data inconsistent with the named invariant branch."""


def pattern_fingerprint(y1: float, y2: float, noise_floor: float) -> str:
    """Coarse pattern class from the two critical amplitudes.

    Bands: trivial when both amplitudes sit below the noise floor; roll when
    |y1| <= 0.1|y2|; rectangle when |y2| <= 0.1|y1|; hexagon when the ratio
    y1/y2 is within 0.25 of +-2; mixed otherwise.
    """
    a1, a2 = abs(y1), abs(y2)
    if max(a1, a2) <= noise_floor:
        return "trivial"
    if a1 <= 0.1 * a2:
        return "roll"
    if a2 <= 0.1 * a1:
        return "rectangle"
    r = y1 / y2
    if min(abs(r - 2.0), abs(r + 2.0)) <= 0.25:
        return "hexagon"
    return "mixed"


@dataclass(frozen=True)
class SlavingFit:
    """Estimated center-manifold gains.

    ``coeff_00_1``/``coeff_00_2`` multiply y1^2 and y2^2 in the mean-mode
    relation; ``kappa1_hat`` is fitted jointly from the (2m,2n) ~ k*y1^2 and
    (0,4n) ~ 2k*y2^2 relations, ``kappa2_hat`` jointly from (2m,0) ~ k*y1^2
    and (m,3n) ~ 4k*y1*y2.  Estimates whose design columns carry no dynamic
    range come back as None, with the piece named in ``degenerate`` (a pure
    single-mode run identifies only part of the table).
    """

    coeff_00_1: float | None
    coeff_00_2: float | None
    kappa1_hat: float | None
    kappa2_hat: float | None
    n_samples: int
    degenerate: tuple[str, ...] = ()


def fit_slaving(diag, m: int, n: int, t_min: float = 25.0) -> SlavingFit:
    """Least-squares fit of slaved amplitudes against quadratic monomials.

    ``diag`` must carry series for the critical pair (m, n), (0, 2n) and the
    five slaved modes.  Samples before ``t_min`` are dropped so the fast
    modes have relaxed onto the manifold.  Pieces whose columns have no
    dynamic range are reported as degenerate; if nothing at all is
    identifiable, :class:`FitDegenerateError` is raised.
    """
    t = np.asarray(diag.times)
    sel = t >= t_min
    if sel.sum() < 8:
        raise FitDegenerateError("too few samples past the relaxation window")

    def grab(k):
        try:
            return np.asarray(diag.mode_series[k])[sel]
        except KeyError as exc:
            raise KeyError(f"mode {k} was not recorded") from exc

    y1 = grab((m, n))
    y2 = grab((0, 2 * n))
    z00 = grab((0, 0))
    z20 = grab((2 * m, 0))
    z13 = grab((m, 3 * n))
    z04 = grab((0, 4 * n))
    z22 = grab((2 * m, 2 * n))

    q1, q2, q12 = y1 * y1, y2 * y2, y1 * y2
    scale = max(float(np.max(q1)), float(np.max(q2)), 0.0)
    if scale <= 0:
        raise FitDegenerateError("critical amplitudes never left zero")
    degenerate: list[str] = []

    # mean mode: z00 = c1*y1^2 + c2*y2^2; drop empty/collinear columns
    active = [(name, col) for name, col in (("c00_1", q1), ("c00_2", q2))
              if float(np.max(np.abs(col))) > 1e-8 * scale]
    X = np.column_stack([col for _, col in active])
    if X.size and np.linalg.matrix_rank(X / scale, tol=1e-6) == len(active):
        sol, *_ = np.linalg.lstsq(X, z00, rcond=None)
        got = dict(zip((name for name, _ in active), sol))
    else:
        got = {}
        if len(active) == 2:
            degenerate.append("c00 (columns collinear)")
    c1 = float(got["c00_1"]) if "c00_1" in got else None
    c2 = float(got["c00_2"]) if "c00_2" in got else None
    for name, val in (("c00_1", c1), ("c00_2", c2)):
        if val is None:
            degenerate.append(name)

    def ratio_fit(design: np.ndarray, target: np.ndarray) -> float | None:
        if float(np.max(np.abs(design))) <= 1e-8 * scale:
            return None
        return float(design @ target / (design @ design))

    # kappa1: stack (2m,2n) = k*y1^2 and (0,4n) = 2k*y2^2
    kappa1 = ratio_fit(np.concatenate([q1, 2.0 * q2]), np.concatenate([z22, z04]))
    if kappa1 is None:
        degenerate.append("kappa1")
    # kappa2: stack (2m,0) = k*y1^2 and (m,3n) = 4k*y1*y2
    kappa2 = ratio_fit(np.concatenate([q1, 4.0 * q12]), np.concatenate([z20, z13]))
    if kappa2 is None:
        degenerate.append("kappa2")

    if c1 is None and c2 is None and kappa1 is None and kappa2 is None:
        raise FitDegenerateError("no slaving coefficient is identifiable from this run")
    return SlavingFit(c1, c2, kappa1, kappa2, int(sel.sum()), tuple(degenerate))


@dataclass(frozen=True)
class SaturationFit:
    """Branch cubic coefficient from steady amplitudes.

    ``slope`` is the through-origin regression of amplitude^2 on sigma;
    ``branch_coefficient`` = -1/slope is the cubic coefficient of the
    invariant-branch normal form y' = sigma*y + c*y^3.  ``combination`` names
    the coefficient combination it estimates: b1 (roll branch),
    b1 + 2*b2 (rectangle branch, = 4*branch_coefficient), b1 + 4*b2
    (hexagon branch).
    """

    branch: str
    slope: float
    branch_coefficient: float
    combination: str
    combination_value: float


def fit_saturation(runs, branch: str) -> SaturationFit:
    """Regress steady amplitude^2 against sigma through the origin.

    ``runs`` is a sequence of (sigma, steady_amplitude) pairs from
    supercritical runs on the named invariant branch.  On each branch the
    normal form y' = sigma*y + c*y^3 saturates at amplitude^2 = -sigma/c,
    so the regression slope determines c; the mapping back to the planar
    coefficients is branch-specific (the rectangle branch has cubic
    coefficient (b1 + 2*b2)/4).
    """
    if branch not in SATURATION_BRANCHES:
        raise ValueError(f"unknown branch {branch!r}; expected one of {SATURATION_BRANCHES}")
    runs = list(runs)
    if len(runs) < 3:
        raise ValueError("need at least 3 supercritical runs to fit a slope")
    sig = np.array([s for s, _ in runs], dtype=float)
    amp = np.array([a for _, a in runs], dtype=float)
    if np.any(sig <= 0):
        raise ValueError("saturation fits require supercritical growth rates")
    slope = float(sig @ (amp * amp) / (sig @ sig))
    if slope <= 0:
        raise BranchError(f"nonpositive regression slope {slope:.3e}; "
                          "amplitudes inconsistent with the named branch")
    c = -1.0 / slope
    if branch == "roll":
        name, value = "b1", c
    elif branch == "rectangle":
        name, value = "b1+2*b2", 4.0 * c
    else:
        name, value = "b1+4*b2", c
    return SaturationFit(branch, slope, c, name, value)


def branch_steady_amplitude(diag, m: int, n: int, branch: str) -> float:
    """Extract the steady (or plateau) amplitude of an invariant-branch run.

    For rolls/rectangles the branch axis is exactly invariant and the last
    sample is the steady amplitude.  For the hexagon branch the relevant
    amplitude is the ordinate y2 of the ratio-locked segment y1 = 2*y2; the
    value is read where the trajectory is slowest while still ratio-locked,
    which is robust even if the run later drifts off the branch.
    """
    y1 = np.asarray(diag.mode_series[(m, n)])
    y2 = np.asarray(diag.mode_series[(0, 2 * n)])
    t = np.asarray(diag.times)
    if branch == "roll":
        return float(abs(y2[-1]))
    if branch == "rectangle":
        return float(abs(y1[-1]))
    if branch != "hexagon":
        raise ValueError(f"unknown branch {branch!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(y2) > 1e-14, y1 / y2, np.inf)
    locked = np.abs(np.abs(ratio) - 2.0) <= HEXAGON_RATIO_RTOL * 2.0
    if not np.any(locked):
        raise BranchError("trajectory never ratio-locked onto the hexagon branch")
    amp = np.abs(y2)
    peak = float(np.max(amp[locked]))
    if peak <= 0:
        raise BranchError("hexagon-branch amplitude never grew")
    window = locked & (amp >= 0.9 * peak)
    drift = np.abs(np.gradient(amp, t)) / np.maximum(amp, 1e-14)
    idx = np.where(window)[0]
    return float(amp[idx[np.argmin(drift[idx])]])
