"""Time integration and phase-portrait analysis of the planar amplitude system.

Beyond plain trajectories this module answers the two global questions about
the supercritical regime: where do rays around the origin end up (basins), and
do the eight nontrivial equilibria with their connecting orbits form a closed
ring (the circle attractor).  Heteroclinic connections are found by shooting
from saddle points along their unstable eigendirections, which is robust for a
planar system with hyperbolic saddles.

Every trajectory is a lane of ``_Lanes``, which steps any number of them
together: all rays of a basin survey, or all shots of an attractor graph,
take one pass of array operations per Runge-Kutta attempt, and each lane
keeps its own time, step size, sampling chunk and stopping test.  A lane takes
the same steps as scipy's ``solve_ivp`` RK45 with the same floating-point
results.  The Dormand-Prince tableau is held as literals, so the module needs
only numpy and the kinds built on it start without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reduction import (
    EquilibriumPoint,
    ReducedCoefficients,
    equilibria,
    reduced_vector_field,
    vector_field_jacobian,
    _amplitude_scale,
    _field_from_powers,
)

#: Fraction of the amplitude scale used as capture radius around equilibria.
CAPTURE_RADIUS_FACTOR = 1e-5

#: Residual speed below which a captured endpoint counts as converged.
RESIDUAL_SPEED_TOL = 1e-8

#: Trajectories beyond this norm are declared divergent.
DEFAULT_BLOWUP = 1e3

#: Shooting offset along unstable eigendirections.
SHOOT_OFFSET = 1e-6

#: Time horizon of each shot along an unstable eigendirection.
SHOOT_T_END = 20000.0

# local error tolerances of every planar integration
_RTOL, _ATOL = 1e-10, 1e-12

# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6
# (1980) 19) with Shampine's quartic dense output (Math. Comp. 46 (1986)
# 135), written as the same rational literals as scipy's RK45 so the arrays
# are bitwise equal to its own; the step-size control constants and the
# step-collapse message of scipy.integrate._ivp are copied the same way.
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_N_STAGES = 6
_ORDER_EXPONENT = 1 / 5  # 1 / (error estimator order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_SQRT2 = 2 ** 0.5


@dataclass
class Trajectory:
    """A computed orbit: strictly increasing times, states (len(times), 2),
    and the equilibrium reached (None when unresolved or divergent)."""

    times: np.ndarray
    states: np.ndarray
    terminal_equilibrium: EquilibriumPoint | None = None
    diverged: bool = False

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory states must be finite")


def _capture_radius(rc: ReducedCoefficients) -> float:
    return CAPTURE_RADIUS_FACTOR * _amplitude_scale(rc)


def _match_equilibrium(y, rc, eq_list, radius) -> EquilibriumPoint | None:
    speed = float(np.linalg.norm(reduced_vector_field(y, rc)))
    if speed > RESIDUAL_SPEED_TOL * max(rc.scale, 1.0):
        return None
    best, dist = None, math.inf
    for e in eq_list:
        d = math.hypot(y[0] - e.y[0], y[1] - e.y[1])
        if d < dist:
            best, dist = e, d
    return best if dist <= radius else None


def _rms(x: np.ndarray) -> np.ndarray:
    """scipy's RMS norm of each row of ``x``, shape (n, 2).  The sum of
    squares is numpy's dot of the row with itself (BLAS may fuse it), taken
    as a stacked ``matmul``, which gives the same bytes."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]) / _SQRT2


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """``x ** e`` element by element through Python's float power, which is
    the C library's ``pow`` that a numpy scalar's power calls too; numpy's
    array power rounds some squares and cubes differently."""
    return np.fromiter(map(pow, x.tolist(), [e] * len(x)), float, len(x))


#: Below this many lanes the field is cheaper on Python floats lane by lane
#: than as array operations, whose cost per call does not shrink with them.
_FEW_LANES = 12


def _lane_field(y: np.ndarray, rc: ReducedCoefficients, out: np.ndarray) -> None:
    """``reduced_vector_field`` at each row of ``y``, shape (n, 2), written
    to ``out`` with the same bytes: the powers are Python's float powers,
    lane by lane, and the rest rounds the same on floats and on arrays."""
    if len(y) < _FEW_LANES:
        out[:] = [_field_from_powers(a, b, a ** 2, a ** 3, b ** 2, b ** 3, rc)
                  for a, b in y.tolist()]
        return
    n = len(y)
    c = y.T.ravel().tolist()
    p = np.fromiter(map(pow, c + c, [2.0] * (2 * n) + [3.0] * (2 * n)), float, 4 * n)
    out[:, 0], out[:, 1] = _field_from_powers(y[:, 0], y[:, 1], p[:n], p[2 * n:3 * n],
                                              p[n:2 * n], p[3 * n:], rc)


class _Lanes:
    """Trajectories of the truncated field from ``starts``, stepped together.

    Lane j is ``integrate(rc, starts[j], dt, t_end, targets[j])``: scipy's
    RK45 steps across chunks of at most 50 time units, each restarted with a
    fresh initial step (Hairer, Norsett & Wanner, *Solving ODEs I*, sec.
    II.4) from the last sample of the one before, samples at ``k*dt`` from
    the dense output, and a stop at the first sample that blows up or that a
    target captures.  Every Runge-Kutta attempt is one pass of array
    operations over the live lanes, each with its own time, step size,
    rejection flag and chunk; the row arrays hold the live lanes in lane
    order, and a lane's row goes when it stops.  With ``samples`` false a
    lane's trajectory holds only its start, for callers that need no more
    than where it ends.

    Each lane's arithmetic is the one scipy does on its own: the stage,
    solution and error sums are stacked ``matmul``s, which give the bytes of
    scipy's per-lane ``dot``; element-wise work rounds the same on arrays;
    powers go through ``pow``.  The dense output is stacked only over lanes
    with as many samples in the step, where it gives scipy's bytes too.
    """

    _ROWS = ("lane", "k", "t0", "y0", "t", "t1", "y", "f", "h", "rej", "nfev", "K", "te", "ys", "i")

    def __init__(self, rc: ReducedCoefficients, starts, dt: float, t_end: float, targets,
                 samples: bool = True):
        if dt <= 0 or t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        for y in starts:
            y = np.asarray(y, dtype=float)
            if y.shape != (2,) or not np.isfinite(y).all():
                raise ValueError(f"y0 must be a finite point (y1, y2), got {y!r}")
        n = len(starts)
        self.rc, self.dt, self.t_end = rc, dt, t_end
        self.radius = _capture_radius(rc)
        self.chunk = max(dt, min(t_end / 20.0, 50.0))
        self.targets = targets
        # each lane's targets as the rows (y1 of each, y2 of each)
        self.eq_y = [np.array([e.y for e in q], dtype=float).reshape(-1, 2).T.copy()
                     for q in targets]
        y0 = np.array(starts, dtype=float).reshape(n, 2)
        self.samples = samples
        self.pieces = [([np.zeros(1)], [y0[j:j + 1].copy()]) for j in range(n)]
        self.out: list[Trajectory | None] = [None] * n
        # per row: the lane, its samples so far, the chunk's start (t0, y0)
        # and end t1, the solver state and field evaluations, and the
        # chunk's sample times te (padded with inf), the samples ys reached
        # and their count i
        self.lane, self.k = np.arange(n), np.zeros(n, dtype=int)
        self.t0, self.y0, self.t, self.t1 = np.zeros(n), y0, np.zeros(n), np.zeros(n)
        self.y, self.f, self.h = y0.copy(), np.empty((n, 2)), np.empty(n)
        self.rej, self.nfev = np.zeros(n, dtype=bool), np.zeros(n, dtype=int)
        self.K = np.empty((n, _N_STAGES + 1, 2))
        width = int(self.chunk / dt) + 3  # the samples of a chunk, and a spare
        self.te, self.ys = np.full((n, width), np.inf), np.empty((n, width, 2))
        self.i = np.zeros(n, dtype=int)

    def run(self) -> list[Trajectory]:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rows = range(len(self.lane))
            fresh = [r for r in rows if self._next(r, 0.0, self.y0[r], 0)]
            self._restart(fresh, [r for r in rows if r not in fresh])
            while len(self.lane):
                self._attempt()
        return self.out

    def _next(self, r: int, t: float, y: np.ndarray, k: int) -> bool:
        """Open row r's next chunk from the sample (t, y), the lane's k-th, or
        stop the lane when t is its end.  Returns whether the lane goes on."""
        if not self.t_end - t > 1e-9 * self.dt:
            self._stop(r, None, False)
            return False
        # samples on the k*dt grid add no drift at restarts, whatever dt is
        t1 = min(t + self.chunk, self.t_end)
        te = self.dt * np.arange(k + 1, t1 / self.dt + 1)
        te = te[te <= t1]
        if len(te) == 0:
            te = np.array([t1])
        self.k[r], self.t0[r], self.t[r], self.t1[r], self.i[r] = k, t, t, t1, 0
        self.y0[r] = self.y[r] = y
        self.te[r] = np.inf
        self.te[r, :len(te)] = te
        return True

    def _restart(self, fresh: list[int], stopped: list[int]) -> None:
        """Give the rows ``fresh`` their initial steps, as scipy's
        ``select_initial_step`` does, then drop the rows ``stopped``."""
        if fresh:
            r = np.array(fresh)
            y, interval = self.y[r], self.t1[r] - self.t[r]
            f, g = np.empty((len(r), 2)), np.empty((len(r), 2))
            _lane_field(y, self.rc, f)
            scale = _ATOL + np.abs(y) * _RTOL
            d0, d1 = _rms(y / scale), _rms(f / scale)
            h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
            h0 = np.where(interval < h0, interval, h0)
            _lane_field(y + h0[:, None] * f, self.rc, g)
            d2 = _rms((g - f) / scale) / h0
            h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                          np.where(h0 * 1e-3 > 1e-6, h0 * 1e-3, 1e-6),
                          _pow(0.01 / np.where(d2 > d1, d2, d1), _ORDER_EXPONENT))
            h = np.where(h1 < 100 * h0, h1, 100 * h0)
            self.h[r] = np.where(interval < h, interval, h)
            self.f[r], self.rej[r], self.nfev[r] = f, False, 2
        if stopped:
            keep = np.ones(len(self.lane), dtype=bool)
            keep[stopped] = False
            for name in self._ROWS:
                setattr(self, name, getattr(self, name)[keep])

    def _attempt(self) -> None:
        """One Runge-Kutta attempt on every row, as scipy's ``_step_impl``
        makes it: the size is clamped to the minimum step (a retry is above
        it, or its row has collapsed), an accepted step advances and
        samples, and a rejected one retries next time with a smaller size
        unless that falls below the minimum."""
        rc, K, t, y, t1 = self.rc, self.K, self.t, self.y, self.t1
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        t_new = np.minimum(t + np.maximum(self.h, min_step), t1)
        h = (t_new - t)[:, None]
        K[:, 0] = self.f
        KT = K.transpose(0, 2, 1)
        for s in range(1, _N_STAGES):
            _lane_field(y + np.matmul(KT[:, :, :s], _A[s, :s]) * h, rc, K[:, s])
        y_new = y + h * np.matmul(KT[:, :, :-1], _B)
        _lane_field(y_new, rc, K[:, -1])
        self.nfev += _N_STAGES
        scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
        err = _rms(np.matmul(KT, _E) * h / scale)
        ok, zero = err < 1, err == 0
        factor = _SAFETY * _pow(np.where(zero, 1.0, err), -_ORDER_EXPONENT)
        grow = np.where(zero, _MAX_FACTOR, np.minimum(_MAX_FACTOR, factor))
        grow = np.where(self.rej, np.minimum(1, grow), grow)
        # fmax keeps MIN_FACTOR where the factor is nan, as Python's max does
        self.h = np.abs(h[:, 0]) * np.where(ok, grow, np.fmax(_MIN_FACTOR, factor))
        self.rej = ~ok
        if ok.all():
            self.t, self.y, self.f = t_new, y_new, K[:, -1].copy()
        else:
            self.t = np.where(ok, t_new, t)
            self.y = np.where(ok[:, None], y_new, y)
            self.f = np.where(ok[:, None], K[:, -1], self.f)
        self._sample(t, y)
        ends = (self.t >= t1) | (self.rej & (self.h < min_step))
        if ends.any():
            fresh, stopped = [], []
            for r in np.flatnonzero(ends).tolist():
                (fresh if self._end_chunk(r, bool(ok[r])) else stopped).append(r)
            self._restart(fresh, stopped)

    def _sample(self, t_old: np.ndarray, y_old: np.ndarray) -> None:
        """scipy's dense output on the rows that stepped past samples, from
        the step's start (t_old, y_old) and stages K: the powers of the step
        fraction as ``cumprod`` forms them, then the product with Q = K^T P,
        stacked over rows with equally many samples (rows sorted by that
        count)."""
        count = (self.te > self.t[:, None]).argmax(axis=1)  # te ends in inf
        m = count - self.i
        r = np.flatnonzero(m)
        if not len(r):
            return
        if len(r) > 1:
            r = r[np.argsort(m[r], kind="stable")]
        m = m[r]
        # each row's samples in the columns i..count-1 of te and ys; a row
        # with fewer than the most also fills columns past its count, which
        # are rewritten when reached, or the spare last one
        cols = np.minimum(self.i[r, None] + np.arange(m[-1]), self.te.shape[1] - 1)
        h = self.t[r] - t_old[r]
        x = (self.te[r[:, None], cols] - t_old[r, None]) / h[:, None]
        p = np.empty((_P.shape[1],) + x.shape)
        p[0] = x
        for q in range(1, _P.shape[1]):
            p[q] = p[q - 1] * x
        p = p.transpose(1, 0, 2)
        Q = np.matmul(self.K[r].transpose(0, 2, 1), _P)
        Qp = np.empty((len(r), 2, x.shape[1]))
        ends = [] if m[0] == m[-1] else np.flatnonzero(m[1:] != m[:-1]).tolist()
        a = 0
        for b in ends + [len(r) - 1]:
            n = int(m[b])
            Qp[a:b + 1, :, :n] = np.matmul(Q[a:b + 1], p[a:b + 1, :, :n])
            a = b + 1
        ys = h[:, None, None] * Qp
        ys += y_old[r, :, None]
        self.ys[r[:, None], cols] = ys.transpose(0, 2, 1)
        self.i = count

    def _end_chunk(self, r: int, success: bool) -> bool:
        """Scan row r's finished chunk, or take its step collapse, and open
        its next chunk unless the lane stops.  Returns whether it goes on.

        The scan is by arrays: bounds that every stopping sample meets pick
        the candidates, and only those get the exact tests, in sample order,
        blow-up (norm above ``DEFAULT_BLOWUP``) first.  A collapse with the
        last accepted state beyond ten amplitude scales is a finite-time
        blow-up and stops the lane as divergent; any other collapse raises.
        """
        lane, n = self.lane[r], self.i[r]
        ts, ys = self.te[r, :n], self.ys[r, :n]
        if not success:
            # step collapse in a polynomial field means finite-time blow-up;
            # anything else is a real failure worth surfacing
            if np.linalg.norm(self.y[r]) > 10.0 * _amplitude_scale(self.rc):
                self._keep(lane, ts, ys)
                self._stop(r, None, True)
                return False
            raise RuntimeError(f"planar integration failed: {_TOO_SMALL_STEP}")
        # norm > DEFAULT_BLOWUP implies max|y_i| > DEFAULT_BLOWUP/sqrt(2), and
        # a Euclidean distance <= radius implies a Chebyshev one <= radius
        e1, e2 = self.eq_y[lane]
        near = (np.abs(ys[:, :1] - e1) <= self.radius) & (np.abs(ys[:, 1:] - e2) <= self.radius)
        candidates = set((np.flatnonzero(near) // len(e1)).tolist())
        if np.abs(ys).max() > DEFAULT_BLOWUP / 2:
            candidates.update(np.flatnonzero(np.abs(ys).max(axis=1) > DEFAULT_BLOWUP / 2).tolist())
        for i in sorted(candidates):
            diverged = bool(np.linalg.norm(ys[i]) > DEFAULT_BLOWUP)
            terminal = None if diverged else _match_equilibrium(
                ys[i], self.rc, self.targets[lane], self.radius)
            if diverged or terminal is not None:
                self._keep(lane, ts[:i + 1], ys[:i + 1])
                self._stop(r, terminal, diverged)
                return False
        self._keep(lane, ts, ys)
        return self._next(r, float(ts[-1]), ys[-1], int(self.k[r]) + n)

    def _keep(self, lane: int, ts: np.ndarray, ys: np.ndarray) -> None:
        if self.samples:
            times, states = self.pieces[lane]
            times.append(ts.copy())
            states.append(ys.copy())

    def _stop(self, r: int, terminal: EquilibriumPoint | None, diverged: bool) -> None:
        lane = self.lane[r]
        times, states = self.pieces[lane]
        self.out[lane] = Trajectory(np.concatenate(times), np.concatenate(states), terminal,
                                    diverged)


def integrate(
    rc: ReducedCoefficients,
    y0,
    dt: float,
    t_end: float,
    equilibria_list: list[EquilibriumPoint] | None = None,
) -> Trajectory:
    """Integrate the truncated field from ``y0``, sampling every ``dt``.

    The integrator is the adaptive embedded 4(5) Runge-Kutta pair
    (Dormand-Prince) of scipy's RK45 with local tolerance ~1e-10, stepped as
    the one lane of a ``_Lanes``, restarted from the last sample of each
    chunk of at most 50 time units.
    Sample k sits at ``k*dt``; ``t_end`` is the last sample when it is off
    that grid.  Integration stops at the first sample whose norm exceeds
    ``DEFAULT_BLOWUP`` (divergent) or that is inside the capture radius of a
    known equilibrium with residual speed below tolerance, blow-up first.
    When the step size collapses with the last accepted state beyond ten
    amplitude scales (finite-time blow-up), the samples reached so far are
    returned as divergent.
    """
    if equilibria_list is None:
        equilibria_list = equilibria(rc)
    return _Lanes(rc, [y0], dt, t_end, [equilibria_list]).run()[0]


def basin_survey(
    rc: ReducedCoefficients,
    radius: float,
    n_rays: int,
    t_end: float = 5000.0,
    dt: float = 1.0,
) -> dict[float, EquilibriumPoint | None]:
    """Launch ``n_rays`` initial points on a circle and record the limit of
    each ray as an equilibrium reference (None when unresolved).

    Rays are equispaced starting at angle 0, so rays along the invariant axes
    are included exactly when n_rays is a multiple of 4.  Results are keyed by
    angle and filled in ray order, so surveys are deterministic.  The rays
    are the lanes of one ``_Lanes``.
    """
    eq_list = equilibria(rc)
    thetas = [2.0 * math.pi * j / n_rays for j in range(n_rays)]
    starts = [(radius * math.cos(theta), radius * math.sin(theta)) for theta in thetas]
    trajs = _Lanes(rc, starts, dt, t_end, [eq_list] * n_rays, samples=False).run()
    return {theta: traj.terminal_equilibrium for theta, traj in zip(thetas, trajs)}


@dataclass
class AttractorDescriptor:
    """Equilibria, saddle-to-sink connections found by shooting, and whether
    they close into a single alternating ring."""

    equilibria: list[EquilibriumPoint]
    connections: list[tuple[int, int]]
    is_circle: bool
    notes: list[str] = field(default_factory=list)


def attractor_graph(rc: ReducedCoefficients) -> AttractorDescriptor:
    """Shoot both unstable separatrices of every saddle and build the ring graph.

    ``is_circle`` is set when the eight nontrivial equilibria alternate
    saddle/sink around the origin and every saddle connects to its two
    angular neighbors, which is the finite-graph content of a circle
    attractor.  The shots are the lanes of one ``_Lanes``, each with every
    equilibrium but its own saddle as targets, so that no shot stops where it
    starts; connections and notes are listed in saddle order.
    """
    eq_list = equilibria(rc)
    nontrivial = [e for e in eq_list if e.pattern_class != "trivial"]
    notes: list[str] = []
    connections: list[tuple[int, int]] = []

    plan: list = []  # per saddle in list order: a note, or its two shots
    for i, e in enumerate(eq_list):
        if e.pattern_class == "trivial" or e.stability != "saddle":
            continue
        J = vector_field_jacobian(e.y, rc)
        eigvals, eigvecs = np.linalg.eig(J)
        unstable = [i for i in range(2) if eigvals[i].real > 0]
        if len(unstable) != 1:
            plan.append(f"saddle at {e.y} without a unique unstable direction")
            continue
        v = eigvecs[:, unstable[0]].real
        v = v / np.linalg.norm(v)
        for sgn in (+1.0, -1.0):
            plan.append((i, sgn, np.array(e.y) + sgn * SHOOT_OFFSET * v))

    shots = [s for s in plan if not isinstance(s, str)]
    starts = [y0 for _i, _sgn, y0 in shots]
    targets = [[q for q in eq_list if q is not eq_list[i]] for i, _sgn, _y0 in shots]
    trajs = iter(_Lanes(rc, starts, 1.0, SHOOT_T_END, targets, samples=False).run())
    for step in plan:
        if isinstance(step, str):
            notes.append(step)
            continue
        i, sgn, _y0 = step
        end = next(trajs).terminal_equilibrium
        if end is None or end.pattern_class == "trivial":
            notes.append(f"unstable manifold of {eq_list[i].y} (sign {sgn:+.0f}) unresolved")
            continue
        connections.append((i, next(j for j, q in enumerate(eq_list) if q is end)))

    is_circle = _is_alternating_ring(eq_list, nontrivial, connections, notes)
    return AttractorDescriptor(eq_list, connections, is_circle, notes)


def _is_alternating_ring(eq_list, nontrivial, connections, notes) -> bool:
    if len(nontrivial) != 8:
        notes.append(f"expected 8 nontrivial equilibria, found {len(nontrivial)}")
        return False
    saddles = [e for e in nontrivial if e.stability == "saddle"]
    sinks = [e for e in nontrivial if e.stability == "stable-node"]
    if len(saddles) != 4 or len(sinks) != 4:
        notes.append(f"not 4 saddles + 4 sinks ({len(saddles)} saddles, {len(sinks)} sinks)")
        return False
    if len(set(connections)) != 8:
        notes.append(f"expected 8 distinct connections, found {len(set(connections))}")
        return False
    # around the origin (equilibria lists the points in angular order) the
    # eight must alternate saddle/sink, and each saddle must connect to
    # exactly its two angular neighbors
    ring = [i for i, e in enumerate(eq_list) if e.pattern_class != "trivial"]
    for pos in range(8):
        a, b = eq_list[ring[pos]], eq_list[ring[(pos + 1) % 8]]
        if a.stability == b.stability:
            notes.append("equilibria do not alternate saddle/sink around the ring")
            return False
    conn = set(connections)
    for pos in range(8):
        i, j = ring[pos], ring[(pos + 1) % 8]
        si, sj = eq_list[i].stability, eq_list[j].stability
        edge = (i, j) if si == "saddle" else (j, i)
        if edge not in conn:
            notes.append(f"missing heteroclinic edge between ring neighbors {edge}")
            return False
    return True
