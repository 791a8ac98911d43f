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
  syntheses of the fields and their Laplacians are needed.  The syntheses of
  one right-hand side are stacked into one batched transform into a padded
  workspace that the thread reuses across calls (see :func:`_workspace`), and
  so are its two analyses; both go through the right-hand-side transforms of
  :mod:`chemopattern.transforms` (dense cosine matrices on small grids).

* :func:`simulate_full_system` evolves the two-field parent model

      u_t = mu*Lap(u) - div((1 + u) grad v) + alpha*(1+u)*(1 - (1+u)^2)
      v_t = Lap(v) - v + lam*u

  without the quasi-static assumption.  Its linear part couples (u_k, v_k)
  pairwise per mode; the 2x2 blocks are exponentiated in closed form.  Near
  threshold its attracting states must agree with the scalar model, which is
  exactly what the cross-model checks compare.

Both run through one loop, :func:`_run`, over a stepper whose ``step`` maps
a state (coefficients, or the ``(cu, cv)`` pair) to the next and raises
``NonFiniteError`` rather than return a non-finite one; the loop reports that
as :class:`BlowUpError` at the time of the step.

Determinism: given an identical :class:`SimConfig` (including the seed) the
run is bitwise reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import DomainGeometry, ModeIndex, ModelParams, helmholtz_gain, rho_table, sigma
from .fitting import pattern_fingerprint
from .transforms import (
    GridField,
    NonFiniteError,
    SpectralField,
    coeffs_to_grid,
    helmholtz_inverse,
    require_finite,
    rhs_coeffs_to_grid,
    rhs_grid_to_coeffs,
)


#: A record whose l2 norm exceeds this counts as a blow-up.
BLOWUP_NORM = 1e6


class BlowUpError(RuntimeError):
    """Raised when a simulation produces non-finite or runaway values.

    ``time`` is the model time of the first step whose state is non-finite
    (or of the record whose l2 norm exceeded ``BLOWUP_NORM``), or None where
    there is no time axis (standalone :func:`step`), in which case
    ``message`` says what went wrong.
    """

    def __init__(self, time: float | None, diagnostics: "Diagnostics | None" = None,
                 message: str | None = None):
        super().__init__(message or f"simulation blew up at t = {time:g}")
        self.time = time
        self.diagnostics = diagnostics

    def __reduce__(self):
        # the default would pass the formatted message back in as ``time``
        return type(self), (self.time, self.diagnostics, str(self))


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
    record_interval: float = 1.0
    snapshot_times: tuple[float, ...] = ()
    nonlinear: bool = True
    noise_floor: float = 1e-3
    steady_tol: float = 1e-8
    steady_window: float = 50.0

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


# ----------------------------------------------------------------------------
# scalar model
# ----------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _scalar_tables(n1: int, n2: int, geometry: DomainGeometry, params: ModelParams,
                   dealias_factor: int):
    table = rho_table(n1, n2, geometry)
    sig = sigma(table, params)
    gain = helmholtz_gain(table, 1.0)
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
    grid, in one batched call; the pointwise part and the product uw are
    projected back to the base resolution in another, and Lap(uw) is then the
    exact diagonal multiplication by -rho_k.
    """
    if dealias_factor < 2:
        raise ValueError("dealias_factor must be >= 2 for the cubic nonlinearity")
    n1, n2 = u.shape
    table, _, gain, pad = _scalar_tables(n1, n2, u.geometry, p, dealias_factor)
    lam, alpha = p.lam, p.alpha
    c = u.coeffs
    U, W, LapU = rhs_coeffs_to_grid(np.stack((c, gain * c, -table * c)), pad, _workspace(3, pad))
    LapW = W - U
    prod = _workspace(2, pad)
    prod[0] = 0.5 * lam * (W * LapU - U * LapW) - 3.0 * alpha * U * U - alpha * U * U * U
    np.multiply(U, W, out=prod[1])
    g, uw = rhs_grid_to_coeffs(prod, (n1, n2))
    return SpectralField(g + 0.5 * lam * table * uw, u.geometry)


_workspaces = threading.local()


def _workspace(batch: int, pad: tuple[int, int]) -> np.ndarray:
    """This thread's reused (batch, *pad) scratch grid for the right-hand sides.

    Its contents are only valid until the next right-hand side in the same
    thread, so nothing a right-hand side returns may alias it.
    """
    arrays = _workspaces.__dict__.setdefault("arrays", {})
    key = (batch, pad)
    if key not in arrays:
        arrays[key] = np.empty((batch, *pad))
    return arrays[key]


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, stable near z = 0."""
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


class _ScalarStepper:
    """Exponential-midpoint stepper for the scalar model at fixed dt.

    The linear diagonal part is advanced exactly by exp(sigma_k * dt); the
    nonlinearity enters through a midpoint quadrature of the
    variation-of-constants integral, which is second order.
    """

    def __init__(self, shape: tuple[int, int], geometry: DomainGeometry, params: ModelParams,
                 dt: float, dealias_factor: int, nonlinear: bool):
        _, sig, _, _ = _scalar_tables(*shape, geometry, params, dealias_factor)
        self.geometry, self.params, self.dt = geometry, params, dt
        self.dealias_factor, self.nonlinear = dealias_factor, nonlinear
        self.exp_full = np.exp(sig * dt)
        self.exp_half = np.exp(sig * dt / 2.0)
        self.phi_half = _phi1(sig * dt / 2.0)

    def step(self, c: np.ndarray) -> np.ndarray:
        out = self.exp_full * c
        if self.nonlinear:
            g, p, f, dt = self.geometry, self.params, self.dealias_factor, self.dt
            n0 = nonlinear_rhs(SpectralField(c, g), p, f).coeffs
            c_half = self.exp_half * c + (dt / 2.0) * self.phi_half * n0
            n_half = nonlinear_rhs(SpectralField(c_half, g), p, f).coeffs
            out = out + dt * self.exp_half * n_half
        return require_finite(out, "state")


#: Standalone :func:`step` calls with equal arguments share one stepper.
_cached_scalar_stepper = lru_cache(maxsize=16)(_ScalarStepper)


def step(u: SpectralField, p: ModelParams, dt: float, nonlinear: bool = True) -> SpectralField:
    """One step of size ``dt`` of the scalar model's exponential-midpoint stepper.

    Raises :class:`BlowUpError`, with no time, when the step or its midpoint
    produces non-finite values.
    """
    stepper = _cached_scalar_stepper(u.shape, u.geometry, p, dt, 2, nonlinear)
    try:
        c = stepper.step(u.coeffs)
    except NonFiniteError:
        raise BlowUpError(None, message=f"a step of size dt = {dt:g} from the given "
                                        "state produced non-finite values") from None
    return SpectralField(c, u.geometry)


class _Recorder:
    """Shared recording / steady-state / blow-up logic for both models."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.every = max(1, int(round(cfg.record_interval / cfg.dt)))
        self.times: list[float] = []
        self.series: dict[ModeIndex, list[float]] = {k: [] for k in cfg.default_record_modes()}
        self.l2: list[float] = []
        self.snapshots: list[tuple[float, GridField]] = []
        self._snap_left = sorted(cfg.snapshot_times)
        w1 = np.where(np.arange(cfg.n1) == 0, 1.0, 0.5)[:, None]
        self._w = w1 * np.where(np.arange(cfg.n2) == 0, 1.0, 0.5)[None, :]

    def record(self, t: float, c: np.ndarray) -> None:
        self.times.append(t)
        for k, series in self.series.items():
            series.append(float(c[k]))
        l2 = float(np.sqrt(np.sum(self._w * c * c)))
        self.l2.append(l2)
        if l2 > BLOWUP_NORM:
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

    def finish(self, c: np.ndarray, steady: bool = False, blown: bool = False) -> Diagnostics:
        cfg = self.cfg
        (km, kn), (k0, k2n) = cfg.critical_pair
        fingerprint = "unresolved" if blown else \
            pattern_fingerprint(float(c[km, kn]), float(c[k0, k2n]), cfg.noise_floor)
        return Diagnostics(
            times=np.asarray(self.times),
            mode_series={k: np.asarray(v) for k, v in self.series.items()},
            l2_series=np.asarray(self.l2),
            final_fingerprint=fingerprint,
            steady=steady,
            snapshots=self.snapshots,
        )


def _run(cfg: SimConfig, stepper, state, density):
    """Step ``state`` to ``t_end``, recording ``density(state)`` at t = 0, every
    ``record_interval`` and at the last step, and stop early on a steady state.
    A step that leaves a non-finite state raises :class:`BlowUpError` at its time.
    """
    rec = _Recorder(cfg)
    rec.record(0.0, density(state))
    n_steps = int(round(cfg.t_end / cfg.dt))
    for i in range(1, n_steps + 1):
        try:
            state = stepper.step(state)
        except NonFiniteError:
            raise BlowUpError(i * cfg.dt, rec.finish(density(state), blown=True)) from None
        if i % rec.every == 0 or i == n_steps:
            rec.record(i * cfg.dt, density(state))
            if rec.is_steady():
                return rec.finish(density(state), steady=True), state
    return rec.finish(density(state)), state


def simulate(cfg: SimConfig) -> tuple[Diagnostics, SpectralField]:
    """Run the scalar model; returns diagnostics and the final coefficients.

    The run stops early once the relative l2 drift per unit time stays below
    ``steady_tol`` across ``steady_window`` (or the field has decayed to the
    trivial state).  A step that leaves a non-finite state, or a record whose
    l2 norm exceeds ``BLOWUP_NORM``, raises :class:`BlowUpError` carrying its
    time and the partial diagnostics.
    """
    u0 = cfg.ic.build(cfg.n1, cfg.n2, cfg.geometry)
    stepper = _ScalarStepper((cfg.n1, cfg.n2), cfg.geometry, cfg.params, cfg.dt,
                             cfg.dealias_factor, cfg.nonlinear)
    diag, c = _run(cfg, stepper, u0.coeffs, lambda c: c)
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
        alpha, pad, table = cfg.params.alpha, self.pad, self.table
        U, V, LapU, LapV = rhs_coeffs_to_grid(np.stack((cu, cv, -table * cu, -table * cv)),
                                              pad, _workspace(4, pad))
        prod = _workspace(2, pad)
        prod[0] = 0.5 * (V * LapU - U * LapV) - 3.0 * alpha * U * U - alpha * U * U * U
        np.multiply(U, V, out=prod[1])
        nu, uv = rhs_grid_to_coeffs(prod, (cfg.n1, cfg.n2))
        return nu + 0.5 * table * uv

    @staticmethod
    def _mat(E, u, v):
        E11, E12, E21, E22 = E
        return E11 * u + E12 * v, E21 * u + E22 * v

    def step(self, state: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        cu, cv = state
        fu, fv = self._mat(self.E_full, cu, cv)
        if self.cfg.nonlinear:
            # the nonlinearity enters the u equation only: (n, 0) blocks
            dt = self.cfg.dt
            P11, _, P21, _ = self.P_half
            E11, _, E21, _ = self.E_half
            n0 = self._nonlinear(cu, cv)
            hu, hv = self._mat(self.E_half, cu, cv)
            n1 = self._nonlinear(hu + (dt / 2.0) * (P11 * n0), hv + (dt / 2.0) * (P21 * n0))
            fu, fv = fu + dt * (E11 * n1), fv + dt * (E21 * n1)
        return require_finite(fu, "u"), require_finite(fv, "v")


def simulate_full_system(cfg: SimConfig) -> tuple[Diagnostics, tuple[SpectralField, SpectralField]]:
    """Run the two-field model; diagnostics track the cell-density field.

    The chemoattractant starts at the quasi-static response
    lam * (-Lap+1)^(-1) u0, which puts the pair on the slow manifold the
    scalar model lives on.  Stopping and blow-up are as in :func:`simulate`,
    with both fields checked.
    """
    u0 = cfg.ic.build(cfg.n1, cfg.n2, cfg.geometry)
    cv = helmholtz_inverse(u0, cfg.params.lam).coeffs
    diag, (cu, cv) = _run(cfg, _PairStepper(cfg), (u0.coeffs, cv), lambda s: s[0])
    return diag, (SpectralField(cu, cfg.geometry), SpectralField(cv, cfg.geometry))
