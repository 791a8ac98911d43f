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
  cubic products are formed on a grid padded to twice the base resolution
  per axis (exact for a cubic nonlinearity), with gradient products
  rewritten through grad(u).grad(w) = (1/2)[Lap(uw) - u Lap(w) - w Lap(u)]
  so that only cosine syntheses of the fields and their Laplacians are
  needed.  The syntheses of one right-hand side are one batched transform
  of the staged fields, and its two analyses are another, each a product
  with the dense cosine matrices of :mod:`chemopattern.transforms`.

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

Each stepper builds its right-hand-side plan (:class:`_RhsPlan`) once: the
multipliers that stage the synthesized fields, the step's diagonal factors
and every workspace, so a step does no set-up and allocates only the state it
returns.  The pointwise nonlinearities are folded algebraically so that they
take few passes over the padded grid (see :class:`_ScalarRhs`).  Workspaces
are reused from call to call, so a stepper or plan serves one thread: the
standalone :func:`step` and :func:`nonlinear_rhs` keep a bounded cache of
them per thread, and nothing they return aliases a workspace.

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
    grid_to_coeffs,
    helmholtz_inverse,
    require_finite,
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
        for name in ("dt", "t_end", "record_interval", "steady_window"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")

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

class _RhsPlan:
    """The transform side of one model's nonlinear right-hand side at one
    resolution, built once: every workspace of the two batched transforms
    and of the pointwise products.  The padded grid is twice the base
    resolution per axis, on which the products of a cubic nonlinearity are
    alias-free.  A subclass adds the multipliers that stage the synthesized
    fields from the coefficients.

    A right-hand side then allocates no grid-sized memory.  (Each field is
    staged by its own multiplication: numpy buffers a broadcasting ufunc
    call through a temporary of up to 8192 elements.)  The workspaces are
    reused by the next call, so one plan serves one thread, and nothing a
    right-hand side returns may alias them.
    """

    def __init__(self, shape: tuple[int, int], n_fields: int):
        n1, n2 = shape
        m1, m2 = pad = (2 * n1, 2 * n2)
        self.shape, self.pad = shape, pad
        self.stage = np.empty((n_fields, n1, n2))
        self.grid = np.empty((n_fields, m1, m2))
        self.grid_rows = np.empty((n_fields, n1, m2))
        self.prod = np.empty((2, m1, m2))
        self.prod_rows = np.empty((2, m1, n2))
        self.coeffs = np.empty((2, n1, n2))

    def synthesize(self) -> np.ndarray:
        """The staged fields on the padded grid (the ``grid`` workspace)."""
        return coeffs_to_grid(self.stage, self.pad, self.grid, self.grid_rows)

    def analyse(self) -> np.ndarray:
        """The two products, truncated to the base resolution."""
        return grid_to_coeffs(self.prod, self.shape, self.prod_rows, self.coeffs)


class _ScalarRhs(_RhsPlan):
    """:func:`nonlinear_rhs` of one model at one resolution."""

    def __init__(self, shape: tuple[int, int], geometry: DomainGeometry, params: ModelParams):
        table = rho_table(*shape, geometry)
        super().__init__(shape, 3)
        half_lam = 0.5 * params.lam
        # the multipliers of w and of D = (lam/2)*(Lap(u) - u)
        self.gain, self.d_mult = helmholtz_gain(table, 1.0), -half_lam * (table + 1.0)
        self.alpha, self.quad = params.alpha, half_lam - 3.0 * params.alpha
        self.half_lam_rho = half_lam * table

    def __call__(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The nonlinearity of coefficients ``c``, into ``out`` (default: a
        fresh array)."""
        u, w, d = self.stage
        np.copyto(u, c)
        np.multiply(self.gain, c, out=w)
        np.multiply(self.d_mult, c, out=d)
        U, W, D = self.synthesize()
        p0, p1 = self.prod
        # (lam/2)*(W*LapU - U*LapW) - 3*alpha*U^2 - alpha*U^3 with LapW = W - U
        # is W*D + U^2*(lam/2 - 3*alpha - alpha*U)
        np.multiply(self.alpha, U, out=p1)
        np.subtract(self.quad, p1, out=p1)
        np.multiply(p1, U, out=p1)
        np.multiply(p1, U, out=p1)
        np.multiply(W, D, out=p0)
        np.add(p0, p1, out=p0)
        np.multiply(U, W, out=p1)
        g, uw = self.analyse()
        return np.add(g, np.multiply(self.half_lam_rho, uw, out=uw), out=out)


@lru_cache(maxsize=16)
def _cached_scalar_rhs(thread: int, *args) -> _ScalarRhs:
    """One plan per thread and argument set for :func:`nonlinear_rhs`."""
    return _ScalarRhs(*args)


def nonlinear_rhs(u: SpectralField, p: ModelParams) -> SpectralField:
    """Quadratic + cubic right-hand side, fully dealiased.

    The nonlinearity -lam*grad(u).grad(w) - lam*u*Lap(w) - 3*alpha*u^2 -
    alpha*u^3 is rewritten through the product identity as

        (lam/2)*(w*Lap(u) - u*Lap(w)) - 3*alpha*u^2 - alpha*u^3 - (lam/2)*Lap(uw),

    with Lap(w) = w - u.  Only u, w and Lap(u) are synthesized on the padded
    grid, in one batched call; the pointwise part and the product uw are
    projected back to the base resolution in another, and Lap(uw) is then the
    exact diagonal multiplication by -rho_k.
    """
    rhs = _cached_scalar_rhs(threading.get_ident(), u.shape, u.geometry, p)
    return SpectralField(rhs(u.coeffs), u.geometry)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, stable near z = 0."""
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


class _ScalarStepper:
    """Exponential-midpoint stepper for the scalar model at fixed dt.

    The linear diagonal part is advanced exactly by exp(sigma_k * dt); the
    nonlinearity enters through a midpoint quadrature of the
    variation-of-constants integral, which is second order.  The stepper
    owns its right-hand-side plan and workspaces, so one stepper serves one
    thread.
    """

    def __init__(self, shape: tuple[int, int], geometry: DomainGeometry, params: ModelParams,
                 dt: float, nonlinear: bool):
        sig = sigma(rho_table(*shape, geometry), params)
        self.nonlinear = nonlinear
        self.exp_full = np.exp(sig * dt)
        if nonlinear:
            self.exp_half = np.exp(sig * dt / 2.0)
            self.half_dt_phi_half = (dt / 2.0) * _phi1(sig * dt / 2.0)
            self.dt_exp_half = dt * self.exp_half
            self._rhs = _ScalarRhs(shape, geometry, params)
            self._n = np.empty(shape)
            self._c_half = np.empty(shape)

    def _nonlinear(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self._rhs(c, out)

    def step(self, c: np.ndarray) -> np.ndarray:
        out = self.exp_full * c
        if self.nonlinear:
            n = self._nonlinear(c, self._n)
            c_half = np.multiply(self.exp_half, c, out=self._c_half)
            c_half += np.multiply(self.half_dt_phi_half, n, out=n)
            n = self._nonlinear(c_half, n)
            out += np.multiply(self.dt_exp_half, n, out=n)
        return require_finite(out, "state")


@lru_cache(maxsize=16)
def _cached_scalar_stepper(thread: int, *args) -> _ScalarStepper:
    """Standalone :func:`step` calls with equal arguments in one thread share
    one stepper; threads never share one, as its workspaces are reused."""
    return _ScalarStepper(*args)


def step(u: SpectralField, p: ModelParams, dt: float, nonlinear: bool = True) -> SpectralField:
    """One step of size ``dt`` of the scalar model's exponential-midpoint stepper.

    Raises :class:`BlowUpError`, with no time, when the step or its midpoint
    produces non-finite values.
    """
    stepper = _cached_scalar_stepper(threading.get_ident(), u.shape, u.geometry, p, dt, nonlinear)
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
    stepper = _ScalarStepper((cfg.n1, cfg.n2), cfg.geometry, cfg.params, cfg.dt, cfg.nonlinear)
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


class _PairRhs(_RhsPlan):
    """The two-field model's nonlinear cell-density term at one resolution."""

    def __init__(self, shape: tuple[int, int], geometry: DomainGeometry, params: ModelParams):
        table = rho_table(*shape, geometry)
        super().__init__(shape, 4)
        self.half_lap = -0.5 * table
        self.alpha, self.quad = params.alpha, -3.0 * params.alpha
        self.half_rho = 0.5 * table

    def __call__(self, cu: np.ndarray, cv: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """-grad(u).grad(v) - u*Lap(v) - 3*alpha*u^2 - alpha*u^3, through the
        product identity as in :func:`nonlinear_rhs`, into ``out`` (default: a
        fresh array)."""
        u, v, x, y = self.stage
        np.copyto(u, cu)
        np.copyto(v, cv)
        np.multiply(self.half_lap, cu, out=x)
        np.multiply(self.half_lap, cv, out=y)
        # X = Lap(u)/2 and Y = Lap(v)/2
        U, V, X, Y = self.synthesize()
        p0, p1 = self.prod
        # 0.5*(V*LapU - U*LapV) - 3*alpha*U^2 - alpha*U^3
        # is V*X - U*Y + U^2*(-3*alpha - alpha*U)
        np.multiply(self.alpha, U, out=p1)
        np.subtract(self.quad, p1, out=p1)
        np.multiply(p1, U, out=p1)
        np.multiply(p1, U, out=p1)
        np.multiply(V, X, out=p0)
        np.subtract(p0, np.multiply(U, Y, out=Y), out=p0)
        np.add(p0, p1, out=p0)
        np.multiply(U, V, out=p1)
        nu, uv = self.analyse()
        return np.add(nu, np.multiply(self.half_rho, uv, out=uv), out=out)


class _PairStepper:
    """Exponential-midpoint stepper for the coupled (u, v) system.  Like
    :class:`_ScalarStepper` it owns its plan and workspaces."""

    def __init__(self, cfg: SimConfig):
        p, g = cfg.params, cfg.geometry
        shape = (cfg.n1, cfg.n2)
        table = rho_table(*shape, g)
        A11 = -p.mu * table - 2.0 * p.alpha
        A12 = table.copy()
        A21 = np.full_like(table, p.lam)
        A22 = -(1.0 + table)
        self.E_full, _ = _pair_matrix_functions(A11, A12, A21, A22, cfg.dt)
        self.E_half, self.P_half = _pair_matrix_functions(A11, A12, A21, A22, cfg.dt / 2.0)
        self.dt, self.nonlinear = cfg.dt, cfg.nonlinear
        self._t = np.empty(shape)
        if cfg.nonlinear:
            self._rhs = _PairRhs(shape, g, p)
            self._n, self._hu, self._hv = np.empty(shape), np.empty(shape), np.empty(shape)

    def _nonlinear(self, cu: np.ndarray, cv: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        return self._rhs(cu, cv, out)

    def _mat(self, E, u, v, out_u=None, out_v=None):
        """(E11*u + E12*v, E21*u + E22*v), into ``out_u``/``out_v`` (default:
        fresh arrays)."""
        E11, E12, E21, E22 = E
        out_u = np.multiply(E11, u, out=out_u)
        out_u += np.multiply(E12, v, out=self._t)
        out_v = np.multiply(E21, u, out=out_v)
        out_v += np.multiply(E22, v, out=self._t)
        return out_u, out_v

    def step(self, state: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        cu, cv = state
        fu, fv = self._mat(self.E_full, cu, cv)
        if self.nonlinear:
            # the nonlinearity enters the u equation only: (n, 0) blocks
            dt, t = self.dt, self._t
            P11, _, P21, _ = self.P_half
            E11, _, E21, _ = self.E_half
            n = self._nonlinear(cu, cv, self._n)
            hu, hv = self._mat(self.E_half, cu, cv, self._hu, self._hv)
            hu += np.multiply(np.multiply(P11, n, out=t), dt / 2.0, out=t)
            hv += np.multiply(np.multiply(P21, n, out=t), dt / 2.0, out=t)
            n = self._nonlinear(hu, hv, n)
            fu += np.multiply(np.multiply(E11, n, out=t), dt, out=t)
            fv += np.multiply(np.multiply(E21, n, out=t), dt, out=t)
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
