"""Pseudospectral method-of-lines integration of the chemotaxis model.

Two models share the spatial machinery of :mod:`chemopattern.transforms`:

* :func:`simulate` evolves the closed scalar equation

      u_t = mu*Lap(u) - 2*alpha*u - lam*Lap(w)            (diagonal, exact)
            - lam*grad(u).grad(w) - lam*u*(w - u)          (quadratic)
            - 3*alpha*u^2 - alpha*u^3                      (quadratic + cubic)

  with w = (-Lap + 1)^(-1) u the quasi-static chemoattractant response.

* :func:`simulate_full_system` evolves the two-field parent model

      u_t = mu*Lap(u) - div((1 + u) grad v) + alpha*(1+u)*(1 - (1+u)^2)
      v_t = Lap(v) - v + lam*u

  without the quasi-static assumption.  Near threshold its attracting states
  must agree with the scalar model, which is what the cross-model checks
  compare.

Each model is one object (:class:`_ScalarRhs`, :class:`_PairRhs`) over k
fields: its generator as per-mode k x k ``blocks`` (sigma_k; the 2x2 coupling
of (u_k, v_k)) and its nonlinearity, which enters the cell density only.  One
scheme, :class:`_Midpoint`, steps either, the linear part exactly through the
blocks' exp and phi1 (one :func:`_block_function` for k = 1, 2) and the
nonlinearity by a second-order exponential midpoint rule.  One loop,
:func:`_run`, steps either and records field 0; a step raises
``NonFiniteError`` rather than return a non-finite state, and the loop
reports that as :class:`BlowUpError` at the time of the step.

Quadratic and cubic products are formed on a grid padded to twice the base
resolution per axis (exact for a cubic nonlinearity), with gradient products
rewritten through grad(u).grad(w) = (1/2)[Lap(uw) - u Lap(w) - w Lap(u)] so
that only cosine syntheses of the fields and their Laplacians are needed:
one batched synthesis and one batched analysis per right-hand side, in the
one right-hand side both models share (:class:`_RhsPlan`, built once per
model), so a step allocates only the state it returns.  Workspaces are
reused from call to call, so a stepper or plan serves one thread: the
standalone :func:`step` and :func:`nonlinear_rhs` keep a bounded cache of
them per thread, and nothing they return aliases a workspace.

Determinism: given an identical :class:`SimConfig` (including the seed) the
run is bitwise reproducible.
"""

from __future__ import annotations

import bisect
import math
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
    k1 > 8 or k2 > 8 left empty)."""

    kind: str = "random"
    modes: tuple[tuple[ModeIndex, float], ...] = ()
    amplitude: float = 1e-3
    seed: int | None = None

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
            kcap = min(8, n1 - 1, n2 - 1)
            block = rng.uniform(-self.amplitude, self.amplitude, size=(kcap + 1, kcap + 1))
            c[: kcap + 1, : kcap + 1] = block
        else:
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        return SpectralField(c, geometry)


def grid_size_ok(n: int) -> bool:  # a power of two >= 32
    return n >= 32 and n & (n - 1) == 0


def record_modes(m: int, n: int) -> tuple[ModeIndex, ...]:
    """The modes a run records: the critical pair (m, n), (0, 2n) plus the
    five slaved modes (deduplicated, ordered)."""
    return tuple(dict.fromkeys([(m, n), (0, 2 * n), (0, 0), (2 * m, 0), (m, 3 * n),
                                (0, 4 * n), (2 * m, 2 * n)]))


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run.  Times fall on the step grid:
    a run takes round(t_end/dt) steps, ending up to half a step off ``t_end``,
    and records every max(1, round(record_interval/dt)) steps and the last.
    Its steady exit has a window of 50 and a tolerance of 1e-8, and its
    fingerprint a noise floor of 1e-3 (see :func:`simulate`)."""

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

    def __post_init__(self) -> None:
        if not (grid_size_ok(self.n1) and grid_size_ok(self.n2)):
            raise ValueError("n1 and n2 must be powers of two >= 32")
        for name in ("dt", "t_end", "record_interval"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if round(self.t_end / self.dt) < 1:
            raise ValueError(f"t_end = {self.t_end:g} is at most half a step of dt = "
                             f"{self.dt:g}: the run would take no step")
        for k1, k2 in record_modes(self.mode_m, self.mode_n):
            if not (0 <= k1 < self.n1 and 0 <= k2 < self.n2):
                raise ValueError(f"recorded mode {(k1, k2)} lies outside the "
                                 f"{self.n1}x{self.n2} grid")

    @property
    def critical_pair(self) -> tuple[ModeIndex, ModeIndex]:
        return (self.mode_m, self.mode_n), (0, 2 * self.mode_n)


@dataclass
class Diagnostics:
    """Time series recorded during a run, plus the terminal fingerprint."""

    times: np.ndarray
    mode_series: dict[ModeIndex, np.ndarray]
    l2_series: np.ndarray
    final_fingerprint: str = "unresolved"
    steady: bool = False
    snapshots: list[tuple[float, GridField]] = field(default_factory=list)


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An empty array on a 64-byte cache line, where BLAS stores its results fastest."""
    buf = np.empty(math.prod(shape) + 8)
    return buf[-buf.ctypes.data % 64 // 8:][:math.prod(shape)].reshape(shape)


class _RhsPlan:
    """One model's nonlinear right-hand side at one resolution,
    N = P(drift + U^2*(quad - alpha*U)) + half_rho*P(U*F): U, the cell
    density, F, the attractant, and the model's other staged fields are
    synthesized on a grid padded to twice the base resolution per axis
    (alias-free for a cubic), P analyses back, and half_rho is the exact gain
    of the Laplacian of the divergence term.  Its workspaces and their row
    ``views`` are built once.  A subclass is one model: its generator
    ``blocks``, ``_stage`` (U and F first), ``_drift``, ``alpha``, ``quad``
    and ``half_rho``.

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
        self.grid = _aligned((n_fields, m1, m2))
        self.grid_rows = _aligned((n_fields, n1, m2))
        self.prod = np.empty((2, m1, m2))
        self.prod_rows = _aligned((2, m1, n2))
        self.coeffs = _aligned((2, n1, n2))
        self.views = tuple(self.stage), tuple(self.grid), tuple(self.prod), tuple(self.coeffs)

    def __call__(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The nonlinearity of the state ``(k, n1, n2)``, into ``out``
        (default: a fresh array)."""
        stage, grid, (p0, p1), (g, uf) = self.views
        self._stage(state, stage)
        coeffs_to_grid(self.stage, self.pad, self.grid, self.grid_rows)
        U, F = grid[0], grid[1]
        np.multiply(self.alpha, U, out=p1)
        np.subtract(self.quad, p1, out=p1)
        np.multiply(p1, U, out=p1)
        np.multiply(p1, U, out=p1)
        np.add(self._drift(grid, p0), p1, out=p0)
        np.multiply(U, F, out=p1)
        grid_to_coeffs(self.prod, self.shape, self.prod_rows, self.coeffs)
        return np.add(g, np.multiply(self.half_rho, uf, out=uf), out=out)


class _ScalarRhs(_RhsPlan):
    """The scalar model: the 1 x 1 blocks of sigma_k, and :func:`nonlinear_rhs`
    with F = W, drift W*D and quad = lam/2 - 3*alpha."""

    def __init__(self, shape: tuple[int, int], geometry: DomainGeometry, params: ModelParams):
        table = rho_table(*shape, geometry)
        super().__init__(shape, 3)
        self.blocks = [[sigma(table, params)]]
        half_lam = 0.5 * params.lam
        # the multipliers of w and of D = (lam/2)*(Lap(u) - u)
        self.gain, self.d_mult = helmholtz_gain(table, 1.0), -half_lam * (table + 1.0)
        self.alpha, self.quad = params.alpha, half_lam - 3.0 * params.alpha
        self.half_rho = half_lam * table

    def _stage(self, state: np.ndarray, fields) -> None:
        c = state[0]
        u, w, d = fields
        np.copyto(u, c)
        np.multiply(self.gain, c, out=w)
        np.multiply(self.d_mult, c, out=d)

    def _drift(self, grid, out: np.ndarray) -> np.ndarray:
        _U, W, D = grid
        return np.multiply(W, D, out=out)


def nonlinear_rhs(u: SpectralField, p: ModelParams) -> SpectralField:
    """Quadratic + cubic right-hand side, fully dealiased.

    The nonlinearity -lam*grad(u).grad(w) - lam*u*Lap(w) - 3*alpha*u^2 -
    alpha*u^3 is rewritten through the product identity as

        (lam/2)*(w*Lap(u) - u*Lap(w)) - 3*alpha*u^2 - alpha*u^3 - (lam/2)*Lap(uw),

    with Lap(w) = w - u.  Only u, w and D = (lam/2)*(Lap(u) - u) are
    synthesized on the padded grid, in one batched call; the pointwise part
    w*D + u^2*(lam/2 - 3*alpha - alpha*u) and the product uw are projected
    back to the base resolution in another, and Lap(uw) is then the exact
    diagonal multiplication by -rho_k.
    """
    rhs = _per_thread(threading.get_ident(), _ScalarRhs, u.shape, u.geometry, p)
    return SpectralField(rhs(u.coeffs[None]), u.geometry)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, stable near z = 0."""
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


def _dphi1(s: np.ndarray) -> np.ndarray:
    """phi1'(s) = (exp(s)*(s - 1) + 1)/s^2.  For |s| < 1, where that closed
    form cancels, it is the Taylor series sum_j (j + 1) s^j/(j + 2)! through
    j = 17, whose tail there is below 1e-16 of the sum."""
    series = np.zeros_like(s)
    for j in reversed(range(18)):
        series = series * s + (j + 1) / math.factorial(j + 2)
    small = np.abs(s) < 1.0
    safe = np.where(small, 1.0, s)
    return np.where(small, series, (np.exp(safe) * (safe - 1.0) + 1.0) / safe ** 2)


def _block_function(blocks, h: float, f, df):
    """f(A h) for a field of k x k blocks A (nested lists of per-mode arrays):
    elementwise for k = 1, and for k = 2 avg(f)|_eigs * I + divdiff(f)|_eigs *
    (A h - mean(eigs) * I), with ``df`` = f' at the mean for coincident
    eigenvalues.  The 2 x 2 blocks here have real eigenvalues (the
    off-diagonal product is nonnegative)."""
    if len(blocks) == 1:
        return [[f(blocks[0][0] * h)]]
    (A11, A12), (A21, A22) = blocks
    tr = A11 + A22
    root = np.sqrt(np.maximum((A11 - A22) ** 2 + 4.0 * A12 * A21, 0.0))
    lam1, lam2 = 0.5 * (tr + root) * h, 0.5 * (tr - root) * h
    s, d = 0.5 * (lam1 + lam2), lam1 - lam2
    f1, f2 = f(lam1), f(lam2)
    avg = 0.5 * (f1 + f2)
    small = np.abs(d) < 1e-9 * np.maximum(1.0, np.abs(s))
    dd = np.where(small, df(s), (f1 - f2) / np.where(small, 1.0, d))
    return [[avg + dd * (A11 * h - s), dd * A12 * h],
            [dd * A21 * h, avg + dd * (A22 * h - s)]]


class _Midpoint:
    """Exponential midpoint at fixed dt for a model whose state ``(k, n1, n2)``
    of k fields has the linear part A of its ``blocks`` and a nonlinearity N
    (the model's call) that enters field 0 only:

        h      = exp(A dt/2) c + (dt/2) phi1(A dt/2) N(c) e0
        c_next = exp(A dt) c + dt exp(A dt/2) N(h) e0,

    the second-order midpoint quadrature of the variation-of-constants
    integral, or without N if not ``nonlinear``.  Rows are looped, not
    broadcast (see :class:`_RhsPlan`), and indexed, as iterating an array
    costs more than a row's product.
    """

    def __init__(self, model: _RhsPlan, dt: float, nonlinear: bool):
        blocks, shape = model.blocks, model.shape
        self.e_full = _block_function(blocks, dt, np.exp, np.exp)
        self.e_half = _block_function(blocks, dt / 2.0, np.exp, np.exp)
        self._rhs = model if nonlinear else None
        self._t = np.empty(shape)
        if nonlinear:
            # N(c) e0 meets column 0 of the blocks only
            p_half = _block_function(blocks, dt / 2.0, _phi1, _dphi1)
            self.kick_half = [(dt / 2.0) * row[0] for row in p_half]
            self.kick_full = [dt * row[0] for row in self.e_half]
            self._n, self._h = np.empty(shape), np.empty((len(blocks), *shape))

    def _nonlinear(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self._rhs(state, out)

    def _linear(self, blocks, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        for i, row in enumerate(blocks):
            o = out[i]
            np.multiply(row[0], state[0], out=o)
            for j in range(1, len(row)):
                o += np.multiply(row[j], state[j], out=self._t)
        return out

    def step(self, state: np.ndarray) -> np.ndarray:
        out = self._linear(self.e_full, state, np.empty(state.shape))
        if self._rhs is not None:
            n = self._nonlinear(state, self._n)
            h = self._linear(self.e_half, state, self._h)
            for i, kick in enumerate(self.kick_half):
                np.add(h[i], np.multiply(kick, n, out=self._t), out=h[i])
            n = self._nonlinear(h, n)
            for i, kick in enumerate(self.kick_full):
                np.add(out[i], np.multiply(kick, n, out=self._t), out=out[i])
        # NaN and inf survive a sum, but finite entries can overflow it
        return out if math.isfinite(out.sum()) else require_finite(out, "state")


class _ScalarStepper(_Midpoint):
    """The scalar model, state ``(1, n1, n2)``."""

    def __init__(self, shape: tuple[int, int], geometry: DomainGeometry, params: ModelParams,
                 dt: float, nonlinear: bool):
        super().__init__(_ScalarRhs(shape, geometry, params), dt, nonlinear)

    # bound in each model's own namespace, where perfbench's tracer looks
    step, _nonlinear = _Midpoint.step, _Midpoint._nonlinear


@lru_cache(maxsize=32)
def _per_thread(thread: int, cls, *args):
    """One ``cls(*args)`` per thread for the standalone :func:`step` and
    :func:`nonlinear_rhs`: its workspaces are reused, so threads never share one."""
    return cls(*args)


def step(u: SpectralField, p: ModelParams, dt: float, nonlinear: bool = True) -> SpectralField:
    """One step of size ``dt`` of the scalar model's exponential-midpoint stepper.

    Raises :class:`BlowUpError`, with no time, when the step or its midpoint
    produces non-finite values.
    """
    stepper = _per_thread(threading.get_ident(), _ScalarStepper, u.shape, u.geometry, p, dt, nonlinear)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            c = stepper.step(u.coeffs[None])
    except NonFiniteError:
        raise BlowUpError(None, message=f"a step of size dt = {dt:g} from the given "
                                        "state produced non-finite values") from None
    return SpectralField(c[0], u.geometry)


class _Recorder:
    """Shared recording / steady-state / blow-up logic for both models."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.every = max(1, int(round(cfg.record_interval / cfg.dt)))
        self.times: list[float] = []
        self.series: dict[ModeIndex, list[float]] = {
            k: [] for k in record_modes(cfg.mode_m, cfg.mode_n)}
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
        t_now, l2_now = self.times[-1], self.l2[-1]
        if l2_now < 1e-12:
            return True
        # the last record at least one window (50) back, if there is one
        j = bisect.bisect_right(self.times, t_now - 50.0) - 1
        if j < 0 or t_now - self.times[j] < 50.0:
            return False
        t_then, l2_then = self.times[j], self.l2[j]
        rate = abs(l2_now - l2_then) / (max(l2_now, 1e-12) * (t_now - t_then))
        return rate <= 1e-8

    def finish(self, c: np.ndarray, steady: bool = False, blown: bool = False) -> Diagnostics:
        cfg = self.cfg
        (km, kn), (k0, k2n) = cfg.critical_pair
        fingerprint = "unresolved" if blown else \
            pattern_fingerprint(float(c[km, kn]), float(c[k0, k2n]), noise_floor=1e-3)
        return Diagnostics(
            times=np.asarray(self.times),
            mode_series={k: np.asarray(v) for k, v in self.series.items()},
            l2_series=np.asarray(self.l2),
            final_fingerprint=fingerprint,
            steady=steady,
            snapshots=self.snapshots,
        )


def _run(cfg: SimConfig, stepper: _Midpoint, state: np.ndarray):
    """Step ``state`` to ``t_end``, recording its field 0 at t = 0, every
    ``record_interval`` and at the last step, and stop early on a steady state.
    A non-finite step raises :class:`BlowUpError` at its time, in place of
    numpy's overflow warnings."""
    rec = _Recorder(cfg)
    rec.record(0.0, state[0])
    n_steps = int(round(cfg.t_end / cfg.dt))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            try:
                state = stepper.step(state)
            except NonFiniteError:
                raise BlowUpError(i * cfg.dt, rec.finish(state[0], blown=True)) from None
            if i % rec.every == 0 or i == n_steps:
                rec.record(i * cfg.dt, state[0])
                if rec.is_steady():
                    return rec.finish(state[0], steady=True), state
    return rec.finish(state[0]), state


def simulate(cfg: SimConfig) -> tuple[Diagnostics, SpectralField]:
    """Run the scalar model; returns diagnostics and the final coefficients.

    The run stops early at a record whose relative l2 drift per unit time,
    from the last record at least 50 back, is at most 1e-8 (or whose l2 is
    below 1e-12); the fingerprint is trivial where both critical amplitudes
    are at most 1e-3.  A step that leaves a non-finite state, or a record
    whose l2 norm exceeds ``BLOWUP_NORM``, raises :class:`BlowUpError`
    carrying its time and the partial diagnostics.
    """
    u0 = cfg.ic.build(cfg.n1, cfg.n2, cfg.geometry)
    stepper = _ScalarStepper((cfg.n1, cfg.n2), cfg.geometry, cfg.params, cfg.dt, cfg.nonlinear)
    diag, state = _run(cfg, stepper, u0.coeffs[None])
    return diag, SpectralField(state[0], cfg.geometry)


# ----------------------------------------------------------------------------
# two-field parent model
# ----------------------------------------------------------------------------

class _PairRhs(_RhsPlan):
    """The two-field model: the 2 x 2 blocks coupling (u_k, v_k), and the
    cell-density term of :func:`nonlinear_rhs` with F = V, drift V*X - U*Y
    (X = Lap(u)/2, Y = Lap(v)/2) and quad = -3*alpha."""

    def __init__(self, shape: tuple[int, int], geometry: DomainGeometry, params: ModelParams):
        table = rho_table(*shape, geometry)
        super().__init__(shape, 4)
        self.blocks = [[-params.mu * table - 2.0 * params.alpha, table],
                       [np.full_like(table, params.lam), -(1.0 + table)]]
        self.half_lap = -0.5 * table
        self.alpha, self.quad = params.alpha, -3.0 * params.alpha
        self.half_rho = 0.5 * table

    def _stage(self, state: np.ndarray, fields) -> None:
        cu, cv = state[0], state[1]
        u, v, x, y = fields
        np.copyto(u, cu)
        np.copyto(v, cv)
        np.multiply(self.half_lap, cu, out=x)
        np.multiply(self.half_lap, cv, out=y)

    def _drift(self, grid, out: np.ndarray) -> np.ndarray:
        U, V, X, Y = grid
        np.multiply(V, X, out=out)
        return np.subtract(out, np.multiply(U, Y, out=Y), out=out)


class _PairStepper(_Midpoint):
    """The two-field model, state ``(2, n1, n2)`` holding (u, v)."""

    def __init__(self, cfg: SimConfig):
        model = _PairRhs((cfg.n1, cfg.n2), cfg.geometry, cfg.params)
        super().__init__(model, cfg.dt, cfg.nonlinear)

    step, _nonlinear = _Midpoint.step, _Midpoint._nonlinear


def simulate_full_system(cfg: SimConfig) -> tuple[Diagnostics, tuple[SpectralField, SpectralField]]:
    """Run the two-field model; diagnostics track the cell-density field.

    The chemoattractant starts at the quasi-static response
    lam * (-Lap+1)^(-1) u0, which puts the pair on the slow manifold the
    scalar model lives on.  Stopping and blow-up are as in :func:`simulate`,
    with both fields checked.
    """
    u0 = cfg.ic.build(cfg.n1, cfg.n2, cfg.geometry)
    cv = helmholtz_inverse(u0, cfg.params.lam).coeffs
    diag, (cu, cv) = _run(cfg, _PairStepper(cfg), np.array([u0.coeffs, cv]))
    return diag, (SpectralField(cu, cfg.geometry), SpectralField(cv, cfg.geometry))
