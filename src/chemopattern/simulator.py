"""Pseudospectral method-of-lines integration of the chemotaxis model.

Two integrators live here, sharing the spatial machinery of
:mod:`chemopattern.transforms`:

* :func:`simulate` evolves the closed scalar equation

      u_t = mu*Lap(u) - 2*alpha*u - lam*Lap(w)            (diagonal, exact)
            - lam*grad(u).grad(w) - lam*u*(w - u)          (quadratic)
            - 3*alpha*u^2 - alpha*u^3                      (quadratic + cubic)

  with w = (-Lap + 1)^(-1) u the quasi-static chemoattractant response.  The
  linear part is diagonal in the cosine basis and is advanced exactly; the
  nonlinearity uses a second-order exponential midpoint rule.  Quadratic and
  cubic products are formed on a grid padded by ``dealias_factor`` (2 is
  exact for a cubic nonlinearity), with gradient products rewritten through
  grad(u).grad(w) = (1/2)[Lap(uw) - u Lap(w) - w Lap(u)] so that only cosine
  syntheses of the fields and their Laplacians are needed.

* :func:`simulate_full_system` evolves the two-field parent model

      u_t = mu*Lap(u) - div((1 + u) grad v) + alpha*(1+u)*(1 - (1+u)^2)
      v_t = Lap(v) - v + lam*u

  without the quasi-static assumption.  Its linear part couples (u_k, v_k)
  pairwise per mode; the 2x2 blocks are exponentiated in closed form.  Near
  threshold its attracting states must agree with the scalar model, which is
  exactly what the cross-model checks compare.

Determinism: given an identical :class:`SimConfig` (including the seed) the
run is bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .core import DomainGeometry, ModeIndex, ModelParams, rho_table, sigma
from .fitting import pattern_fingerprint
from .transforms import (
    SpectralField,
    GridField,
    coeffs_to_grid,
    grid_to_coeffs,
    helmholtz_inverse,
)


class BlowUpError(RuntimeError):
    """Raised when a simulation produces non-finite or runaway values.

    ``time`` is the model time of the offending state, or None where there is
    no time axis (standalone :func:`step`), in which case ``message`` says
    what went wrong.
    """

    def __init__(self, time: float | None, diagnostics: "Diagnostics | None" = None,
                 message: str | None = None):
        super().__init__(message or f"simulation blew up at t = {time:g}")
        self.time = time
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class InitialCondition:
    """Initial data: either explicit mode amplitudes or a seeded random
    perturbation (per-mode uniform in [-amplitude, amplitude], modes with
    k1 > kmax or k2 > kmax left empty)."""

    kind: str = "random"
    modes: tuple[tuple[ModeIndex, float], ...] = ()
    amplitude: float = 1e-3
    seed: int | None = None
    kmax: int = 8

    def build(self, n1: int, n2: int, geometry: DomainGeometry) -> SpectralField:
        c = np.zeros((n1, n2))
        if self.kind == "modes":
            for (k1, k2), amp in self.modes:
                if not (0 <= k1 < n1 and 0 <= k2 < n2):
                    raise ValueError(f"seed mode {(k1, k2)} outside resolution {n1}x{n2}")
                c[k1, k2] = amp
        elif self.kind == "random":
            if self.seed is None:
                raise ValueError("random initial condition requires a seed")
            rng = np.random.default_rng(self.seed)
            kcap = min(self.kmax, n1 - 1, n2 - 1)
            block = rng.uniform(-self.amplitude, self.amplitude, size=(kcap + 1, kcap + 1))
            c[: kcap + 1, : kcap + 1] = block
        else:
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        return SpectralField(c, geometry)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    params: ModelParams
    geometry: DomainGeometry
    n1: int = 64
    n2: int = 64
    dt: float = 0.01
    t_end: float = 2000.0
    dealias_factor: int = 2
    ic: InitialCondition = field(default_factory=InitialCondition)
    mode_m: int = 1
    mode_n: int = 1
    record_modes: tuple[ModeIndex, ...] = ()
    record_interval: float = 1.0
    snapshot_times: tuple[float, ...] = ()
    nonlinear: bool = True
    noise_floor: float = 1e-3
    steady_tol: float = 1e-8
    steady_window: float = 50.0
    blowup_norm: float = 1e6

    def __post_init__(self) -> None:
        if not (_is_pow2(self.n1) and _is_pow2(self.n2)) or self.n1 < 32 or self.n2 < 32:
            raise ValueError("n1 and n2 must be powers of two >= 32")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.nonlinear and self.dealias_factor < 2:
            raise ValueError("dealias_factor must be >= 2 with the cubic term enabled")

    @property
    def critical_pair(self) -> tuple[ModeIndex, ModeIndex]:
        return (self.mode_m, self.mode_n), (0, 2 * self.mode_n)

    def default_record_modes(self) -> tuple[ModeIndex, ...]:
        """Critical pair plus the five slaved modes (deduplicated, ordered)."""
        m, n = self.mode_m, self.mode_n
        modes = [(m, n), (0, 2 * n), (0, 0), (2 * m, 0), (m, 3 * n), (0, 4 * n), (2 * m, 2 * n)]
        out: list[ModeIndex] = []
        for k in modes:
            if k not in out:
                out.append(k)
        return tuple(out)


@dataclass
class Diagnostics:
    """Time series recorded during a run, plus the terminal fingerprint."""

    times: np.ndarray
    mode_series: dict[ModeIndex, np.ndarray]
    l2_series: np.ndarray
    final_fingerprint: str = "unresolved"
    steady: bool = False
    snapshots: list[tuple[float, GridField]] = field(default_factory=list)

    def series(self, k: ModeIndex) -> np.ndarray:
        return self.mode_series[k]


# ----------------------------------------------------------------------------
# scalar model
# ----------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _scalar_tables(n1: int, n2: int, geometry: DomainGeometry, params: ModelParams,
                   dealias_factor: int):
    table = rho_table(n1, n2, geometry)
    sig = sigma(table, params)
    gain = 1.0 / (1.0 + table)
    pad = (dealias_factor * n1, dealias_factor * n2)
    return table, sig, gain, pad


def linear_rhs(u: SpectralField, p: ModelParams) -> SpectralField:
    """Linear right-hand side: coefficient-wise multiplication by sigma(rho_k)."""
    n1, n2 = u.shape
    _, sig, _, _ = _scalar_tables(n1, n2, u.geometry, p, 2)
    return SpectralField(sig * u.coeffs, u.geometry)


def nonlinear_rhs(u: SpectralField, p: ModelParams, dealias_factor: int = 2) -> SpectralField:
    """Quadratic + cubic right-hand side, fully dealiased.

    The nonlinearity -lam*grad(u).grad(w) - lam*u*Lap(w) - 3*alpha*u^2 -
    alpha*u^3 is rewritten through the product identity as

        (lam/2)*(w*Lap(u) - u*Lap(w)) - 3*alpha*u^2 - alpha*u^3 - (lam/2)*Lap(uw),

    with Lap(w) = w - u.  Only u, w and Lap(u) are synthesized on the padded
    grid; the pointwise part and the product uw are projected back to the base
    resolution, where Lap(uw) is the exact diagonal multiplication by -rho_k.
    """
    if dealias_factor < 2:
        raise ValueError("dealias_factor must be >= 2 for the cubic nonlinearity")
    n1, n2 = u.shape
    table, _, gain, pad = _scalar_tables(n1, n2, u.geometry, p, dealias_factor)
    lam, alpha = p.lam, p.alpha
    c = u.coeffs
    U = coeffs_to_grid(c, pad)
    W = coeffs_to_grid(gain * c, pad)
    LapU = coeffs_to_grid(-table * c, pad)
    LapW = W - U
    g = 0.5 * lam * (W * LapU - U * LapW) - 3.0 * alpha * U * U - alpha * U * U * U
    uw = grid_to_coeffs(U * W, (n1, n2))
    return SpectralField(grid_to_coeffs(g, (n1, n2)) + 0.5 * lam * table * uw, u.geometry)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, stable near z = 0."""
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


class _ScalarStepper:
    """Exponential-midpoint stepper for the scalar model at fixed dt."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        _, sig, _, _ = _scalar_tables(cfg.n1, cfg.n2, cfg.geometry, cfg.params,
                                      cfg.dealias_factor)
        dt = cfg.dt
        self.exp_full = np.exp(sig * dt)
        self.exp_half = np.exp(sig * dt / 2.0)
        self.phi_half = _phi1(sig * dt / 2.0)

    def step(self, c: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        if not cfg.nonlinear:
            return self.exp_full * c
        u = SpectralField(c, cfg.geometry)
        n0 = nonlinear_rhs(u, cfg.params, cfg.dealias_factor).coeffs
        c_half = self.exp_half * c + (cfg.dt / 2.0) * self.phi_half * n0
        n_half = nonlinear_rhs(SpectralField(c_half, cfg.geometry), cfg.params,
                               cfg.dealias_factor).coeffs
        return self.exp_full * c + cfg.dt * self.exp_half * n_half


def step(u: SpectralField, p: ModelParams, dt: float, dealias_factor: int = 2,
         nonlinear: bool = True) -> SpectralField:
    """One exponential-midpoint step of size ``dt`` (standalone form).

    The linear diagonal part is advanced exactly by exp(sigma_k * dt); the
    nonlinearity enters through a midpoint quadrature of the
    variation-of-constants integral, which is second order.
    """
    n1, n2 = u.shape
    _, sig, _, _ = _scalar_tables(n1, n2, u.geometry, p, dealias_factor)
    exp_full = np.exp(sig * dt)
    if not nonlinear:
        out = exp_full * u.coeffs
    else:
        exp_half = np.exp(sig * dt / 2.0)
        phi_half = _phi1(sig * dt / 2.0)
        n0 = nonlinear_rhs(u, p, dealias_factor).coeffs
        c_half = exp_half * u.coeffs + (dt / 2.0) * phi_half * n0
        n_half = nonlinear_rhs(SpectralField(c_half, u.geometry), p, dealias_factor).coeffs
        out = exp_full * u.coeffs + dt * exp_half * n_half
    if not np.all(np.isfinite(out)):
        raise BlowUpError(None, message=f"a step of size dt = {dt:g} from the given "
                                        "state produced non-finite values")
    return SpectralField(out, u.geometry)


class _Recorder:
    """Shared recording / steady-state / blow-up logic for both models."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.record_modes = cfg.record_modes or cfg.default_record_modes()
        self.every = max(1, int(round(cfg.record_interval / cfg.dt)))
        self.times: list[float] = []
        self.series: dict[ModeIndex, list[float]] = {k: [] for k in self.record_modes}
        self.l2: list[float] = []
        self.snapshots: list[tuple[float, GridField]] = []
        self._snap_left = sorted(cfg.snapshot_times)
        w1 = np.where(np.arange(cfg.n1) == 0, 1.0, 0.5)[:, None]
        self._w = w1 * np.where(np.arange(cfg.n2) == 0, 1.0, 0.5)[None, :]

    def record(self, t: float, c: np.ndarray) -> None:
        if not np.all(np.isfinite(c)):
            raise BlowUpError(t, self.finish(c, blown=True))
        self.times.append(t)
        for k in self.record_modes:
            self.series[k].append(float(c[k]))
        l2 = float(np.sqrt(np.sum(self._w * c * c)))
        self.l2.append(l2)
        if l2 > self.cfg.blowup_norm:
            raise BlowUpError(t, self.finish(c, blown=True))
        while self._snap_left and t >= self._snap_left[0] - 0.5 * self.cfg.dt:
            self._snap_left.pop(0)
            self.snapshots.append((t, GridField(coeffs_to_grid(c), self.cfg.geometry)))

    def is_steady(self) -> bool:
        cfg = self.cfg
        if len(self.times) < 2:
            return False
        t_now, l2_now = self.times[-1], self.l2[-1]
        if l2_now < 1e-12:
            return True
        j = np.searchsorted(np.asarray(self.times), t_now - cfg.steady_window)
        t_then, l2_then = self.times[j], self.l2[j]
        if t_now - t_then < cfg.steady_window:
            return False
        rate = abs(l2_now - l2_then) / (max(l2_now, 1e-12) * (t_now - t_then))
        return rate <= cfg.steady_tol

    def finish(self, c: np.ndarray, blown: bool = False) -> Diagnostics:
        cfg = self.cfg
        (km, kn), (k0, k2n) = cfg.critical_pair
        y1 = float(c[km, kn]) if np.all(np.isfinite(c)) else math.nan
        y2 = float(c[k0, k2n]) if np.all(np.isfinite(c)) else math.nan
        fingerprint = "unresolved" if blown or math.isnan(y1) else \
            pattern_fingerprint(y1, y2, cfg.noise_floor)
        return Diagnostics(
            times=np.asarray(self.times),
            mode_series={k: np.asarray(v) for k, v in self.series.items()},
            l2_series=np.asarray(self.l2),
            final_fingerprint=fingerprint,
            steady=False,
            snapshots=self.snapshots,
        )


def simulate(cfg: SimConfig) -> tuple[Diagnostics, SpectralField]:
    """Run the scalar model; returns diagnostics and the final coefficients.

    The run stops early once the relative l2 drift per unit time stays below
    ``steady_tol`` across ``steady_window`` (or the field has decayed to the
    trivial state); blow-up raises :class:`BlowUpError` carrying the partial
    diagnostics.
    """
    u0 = cfg.ic.build(cfg.n1, cfg.n2, cfg.geometry)
    stepper = _ScalarStepper(cfg)
    rec = _Recorder(cfg)
    c = u0.coeffs.copy()
    rec.record(0.0, c)
    n_steps = int(round(cfg.t_end / cfg.dt))
    steady = False
    for i in range(1, n_steps + 1):
        c = stepper.step(c)
        if i % rec.every == 0 or i == n_steps:
            rec.record(i * cfg.dt, c)
            if rec.is_steady():
                steady = True
                break
    diag = rec.finish(c)
    diag.steady = steady
    return diag, SpectralField(c, cfg.geometry)


# ----------------------------------------------------------------------------
# two-field parent model
# ----------------------------------------------------------------------------

def _pair_matrix_functions(A11, A12, A21, A22, dt: float):
    """exp(A*dt) and phi1(A*dt) for a field of 2x2 blocks with real spectrum.

    Uses f(A) = avg(f)|_eigs * I + divdiff(f)|_eigs * (A - mean(eigs)*I); the
    blocks here always have real eigenvalues (the off-diagonal product is
    nonnegative).
    """
    tr = A11 + A22
    disc = (A11 - A22) ** 2 + 4.0 * A12 * A21
    disc = np.maximum(disc, 0.0)
    root = np.sqrt(disc)
    lam1 = 0.5 * (tr + root) * dt
    lam2 = 0.5 * (tr - root) * dt
    s = 0.5 * (lam1 + lam2)
    d = lam1 - lam2

    def apply(fvals1, fvals2, fprime_s):
        avg = 0.5 * (fvals1 + fvals2)
        small = np.abs(d) < 1e-9 * np.maximum(1.0, np.abs(s))
        dd = np.where(small, fprime_s, (fvals1 - fvals2) / np.where(small, 1.0, d))
        # f(A dt) = avg*I + dd*(A dt - s I)
        F11 = avg + dd * (A11 * dt - s)
        F12 = dd * A12 * dt
        F21 = dd * A21 * dt
        F22 = avg + dd * (A22 * dt - s)
        return F11, F12, F21, F22

    E = apply(np.exp(lam1), np.exp(lam2), np.exp(s))
    phi1_prime_s = np.where(np.abs(s) < 1e-5, 0.5 + s / 3.0,
                            (np.exp(s) * (s - 1.0) + 1.0) / np.where(s == 0, 1.0, s) ** 2)
    P = apply(_phi1(lam1), _phi1(lam2), phi1_prime_s)
    return E, P


class _PairStepper:
    """Exponential-midpoint stepper for the coupled (u, v) system."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        p, g = cfg.params, cfg.geometry
        table = rho_table(cfg.n1, cfg.n2, g)
        A11 = -p.mu * table - 2.0 * p.alpha
        A12 = table.copy()
        A21 = np.full_like(table, p.lam)
        A22 = -(1.0 + table)
        self.E_full, _ = _pair_matrix_functions(A11, A12, A21, A22, cfg.dt)
        self.E_half, self.P_half = _pair_matrix_functions(A11, A12, A21, A22, cfg.dt / 2.0)
        self.pad = (cfg.dealias_factor * cfg.n1, cfg.dealias_factor * cfg.n2)
        self.table = table

    def _nonlinear(self, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
        """-grad(u).grad(v) - u*Lap(v) - 3*alpha*u^2 - alpha*u^3, through the
        product identity as in :func:`nonlinear_rhs`."""
        cfg = self.cfg
        alpha, shape = cfg.params.alpha, (cfg.n1, cfg.n2)
        U = coeffs_to_grid(cu, self.pad)
        V = coeffs_to_grid(cv, self.pad)
        LapU = coeffs_to_grid(-self.table * cu, self.pad)
        LapV = coeffs_to_grid(-self.table * cv, self.pad)
        nu = 0.5 * (V * LapU - U * LapV) - 3.0 * alpha * U * U - alpha * U * U * U
        return grid_to_coeffs(nu, shape) + 0.5 * self.table * grid_to_coeffs(U * V, shape)

    @staticmethod
    def _mat(E, u, v):
        E11, E12, E21, E22 = E
        return E11 * u + E12 * v, E21 * u + E22 * v

    def step(self, cu: np.ndarray, cv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.cfg
        dt = cfg.dt
        if cfg.nonlinear:
            n0 = self._nonlinear(cu, cv)
        else:
            n0 = np.zeros_like(cu)
        pu, pv = self._mat(self.P_half, n0, np.zeros_like(n0))
        hu, hv = self._mat(self.E_half, cu, cv)
        hu, hv = hu + (dt / 2.0) * pu, hv + (dt / 2.0) * pv
        if cfg.nonlinear:
            n1 = self._nonlinear(hu, hv)
        else:
            n1 = n0
        fu, fv = self._mat(self.E_full, cu, cv)
        gu, gv = self._mat(self.E_half, n1, np.zeros_like(n1))
        return fu + dt * gu, fv + dt * gv


def simulate_full_system(
    cfg: SimConfig,
    v0: SpectralField | None = None,
) -> tuple[Diagnostics, tuple[SpectralField, SpectralField]]:
    """Run the two-field model; diagnostics track the cell-density field.

    ``v0`` defaults to the quasi-static response lam * (-Lap+1)^(-1) u0, which
    starts the pair on the slow manifold the scalar model lives on.
    """
    u0 = cfg.ic.build(cfg.n1, cfg.n2, cfg.geometry)
    stepper = _PairStepper(cfg)
    if v0 is None:
        cv = helmholtz_inverse(u0, cfg.params.lam).coeffs
    else:
        if v0.shape != (cfg.n1, cfg.n2):
            raise ValueError("v0 resolution does not match the configuration")
        cv = v0.coeffs.copy()
    cu = u0.coeffs.copy()
    rec = _Recorder(cfg)
    rec.record(0.0, cu)
    n_steps = int(round(cfg.t_end / cfg.dt))
    steady = False
    for i in range(1, n_steps + 1):
        cu, cv = stepper.step(cu, cv)
        if i % rec.every == 0 or i == n_steps:
            rec.record(i * cfg.dt, cu)
            if rec.is_steady():
                steady = True
                break
    diag = rec.finish(cu)
    diag.steady = steady
    return diag, (SpectralField(cu, cfg.geometry), SpectralField(cv, cfg.geometry))
