"""Time integration and phase-portrait analysis of the planar amplitude system.

Beyond plain trajectories this module answers the two global questions about
the supercritical regime: where do rays around the origin end up (basins), and
do the eight nontrivial equilibria with their connecting orbits form a closed
ring (the circle attractor).  Heteroclinic connections are found by shooting
from saddle points along their unstable eigendirections, which is robust for a
planar system with hyperbolic saddles.

Every trajectory is stepped in-package by ``_rk45``, which takes the same
steps as scipy's ``solve_ivp`` RK45 with the same floating-point results.
It holds the Dormand-Prince tableau as literals, so the module needs only
numpy and the kinds built on it start without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .parallel import map_in_order
from .reduction import (
    EquilibriumPoint,
    ReducedCoefficients,
    equilibria,
    reduced_vector_field,
    vector_field_jacobian,
    _amplitude_scale,
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


def _rms(a: float, b: float) -> float:
    """scipy's RMS norm of the 2-vector (a, b), squared through numpy's dot."""
    x = np.array((a, b))
    return math.sqrt(x.dot(x)) / _SQRT2


def _rk45(rc: ReducedCoefficients, t0: float, t1: float, y0: tuple[float, float],
          t_eval: np.ndarray):
    """The steps scipy's ``solve_ivp(method="RK45", rtol=1e-10, atol=1e-12,
    t_eval=t_eval)`` takes on the planar field from ``(t0, y0)`` to
    ``t1 > t0``, with the same floating-point results.

    Every dot product is the numpy call scipy makes, on the same shapes (BLAS
    may fuse and reorder its sums); the element-wise arithmetic runs on
    Python floats, which round as numpy's do.  The initial step follows
    Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.4, as scipy does.
    Returns ``(times, states, success, y_last)``: the samples of ``t_eval``
    reached and their states, shape (len(times), 2); whether the steps
    reached ``t1`` before the step size collapsed; the last accepted state.
    """
    K = np.empty((_N_STAGES + 1, 2))
    stages = [(s, K[:s].T, _A[s, :s]) for s in range(1, _N_STAGES)]
    K_head_T, K_T = K[:-1].T, K.T
    y1, y2 = y0
    f = reduced_vector_field((y1, y2), rc)
    f1, f2 = f.tolist()
    s1, s2 = _ATOL + abs(y1) * _RTOL, _ATOL + abs(y2) * _RTOL
    d0, d1 = _rms(y1 / s1, y2 / s2), _rms(f1 / s1, f2 / s2)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    g1, g2 = reduced_vector_field((y1 + h0 * f1, y2 + h0 * f2), rc).tolist()
    # h0 underflows to 0 only for a huge or non-finite d1, where numpy's
    # division gives inf or nan and either way h_abs = 0
    d2 = _rms((g1 - f1) / s1, (g2 - f2) / s2) / h0 if h0 > 0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXPONENT
    h_abs = min(100 * h0, h1, t1 - t0)

    te = t_eval.tolist()
    t, i, times, states = t0, 0, [], []
    while t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return (*_samples(times, states), False, (y1, y2))
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, KT, a in stages:
                dy1, dy2 = KT.dot(a).tolist()
                K[s] = reduced_vector_field((y1 + dy1 * h, y2 + dy2 * h), rc)
            b1, b2 = K_head_T.dot(_B).tolist()
            n1, n2 = y1 + h * b1, y2 + h * b2
            f_new = K[-1] = reduced_vector_field((n1, n2), rc)
            e1, e2 = K_T.dot(_E).tolist()
            # np.maximum would give nan where max() does not, but a nan
            # state has a nan or infinite error, rejected either way
            err = _rms(e1 * h / (_ATOL + max(abs(y1), abs(n1)) * _RTOL),
                       e2 * h / (_ATOL + max(abs(y2), abs(n2)) * _RTOL))
            if err < 1:
                factor = (_MAX_FACTOR if err == 0
                          else min(_MAX_FACTOR, _SAFETY * err ** -_ORDER_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** -_ORDER_EXPONENT)
            rejected = True
        t_old, o1, o2 = t, y1, y2
        t, y1, y2, f = t_new, n1, n2, f_new
        j = i
        while j < len(te) and te[j] <= t:
            j += 1
        if j > i:
            # scipy's dense output on the step, for all its samples at once:
            # the powers x, x^2, ... of the step fraction as its cumprod
            # forms them, then one product with Q = K^T P
            h = t - t_old
            x = [(te[m] - t_old) / h for m in range(i, j)]
            powers = [x]
            for _ in range(_P.shape[1] - 1):
                powers.append([a * b for a, b in zip(powers[-1], x)])
            ys = h * np.dot(K_T.dot(_P), np.array(powers))
            ys += np.array((o1, o2))[:, None]
            times.append(t_eval[i:j])
            states.append(ys)
            i = j
    return (*_samples(times, states), True, (y1, y2))


def _samples(times: list, states: list) -> tuple[np.ndarray, np.ndarray]:
    """Join ``_rk45``'s per-step sample times and (2, m) state blocks."""
    if not times:
        return np.empty(0), np.empty((0, 2))
    return np.concatenate(times), np.concatenate(states, axis=1).T


def integrate(
    rc: ReducedCoefficients,
    y0,
    dt: float,
    t_end: float,
    equilibria_list: list[EquilibriumPoint] | None = None,
) -> Trajectory:
    """Integrate the truncated field from ``y0``, sampling every ``dt``.

    The integrator is the adaptive embedded 4(5) Runge-Kutta pair
    (Dormand-Prince) of scipy's RK45 with local tolerance ~1e-10, stepped in
    ``_rk45``, restarted from the last sample of each chunk of at most 50
    time units.
    Sample k sits at ``k*dt``; ``t_end`` is the last sample when it is off
    that grid.  Integration stops at the first sample whose norm exceeds
    ``DEFAULT_BLOWUP`` (divergent) or that is inside the capture radius of a
    known equilibrium with residual speed below tolerance, blow-up first.
    Each chunk is scanned as arrays: bounds that every stopping sample meets
    pick the candidates, and only those get the exact tests, in sample order.
    When the step size collapses with the last accepted state beyond ten
    amplitude scales (finite-time blow-up), the samples reached so far are
    returned as divergent.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (2,) or not np.isfinite(y0).all():
        raise ValueError(f"y0 must be a finite point (y1, y2), got {y0!r}")
    if equilibria_list is None:
        equilibria_list = equilibria(rc)
    radius = _capture_radius(rc)
    eq_y = np.array([e.y for e in equilibria_list], dtype=float).reshape(-1, 2)

    times, states = [np.zeros(1)], [y0[None, :]]
    diverged = False
    terminal: EquilibriumPoint | None = None

    # chunked adaptive integration so capture/blow-up checks stay cheap;
    # samples on the k*dt grid add no drift at restarts, whatever dt is
    chunk = max(dt, min(t_end / 20.0, 50.0))
    t, k = 0.0, 0
    y = tuple(y0.tolist())
    while t_end - t > 1e-9 * dt:
        t1 = min(t + chunk, t_end)
        t_eval = dt * np.arange(k + 1, t1 / dt + 1)
        t_eval = t_eval[t_eval <= t1]
        if len(t_eval) == 0:
            t_eval = np.array([t1])
        ts, ys, success, y_last = _rk45(rc, t, t1, y, t_eval)
        if not success:
            # step collapse in a polynomial field means finite-time blow-up;
            # anything else is a real failure worth surfacing
            if np.linalg.norm(y_last) > 10.0 * _amplitude_scale(rc):
                times.append(ts)
                states.append(ys)
                diverged = True
                break
            raise RuntimeError(f"planar integration failed: {_TOO_SMALL_STEP}")
        # norm > DEFAULT_BLOWUP implies max|y_i| > DEFAULT_BLOWUP/sqrt(2), and
        # a Euclidean distance <= radius implies a Chebyshev one <= radius
        big = np.abs(ys).max(axis=1) > DEFAULT_BLOWUP / 2
        near = (np.abs(ys[:, None, :] - eq_y[None, :, :]).max(axis=2) <= radius).any(axis=1)
        n = len(ts)
        for i in np.flatnonzero(big | near):
            if np.linalg.norm(ys[i]) > DEFAULT_BLOWUP:
                diverged = True
            else:
                terminal = _match_equilibrium(ys[i], rc, equilibria_list, radius)
            if diverged or terminal is not None:
                n = i + 1
                break
        times.append(ts[:n])
        states.append(ys[:n])
        if diverged or terminal is not None:
            break
        t, y, k = float(ts[n - 1]), tuple(ys[n - 1].tolist()), k + n
    return Trajectory(np.concatenate(times), np.concatenate(states), terminal, diverged)


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
    angle and filled in ray order, so surveys are deterministic.  The rays are
    integrated on the usable CPUs.
    """
    eq_list = equilibria(rc)
    thetas = [2.0 * math.pi * j / n_rays for j in range(n_rays)]

    def ray(theta):
        y0 = (radius * math.cos(theta), radius * math.sin(theta))
        traj = integrate(rc, y0, dt, t_end, equilibria_list=eq_list)
        return _index_of(traj.terminal_equilibrium, eq_list)

    ends = map_in_order(ray, thetas)
    return {theta: None if i is None else eq_list[i] for theta, i in zip(thetas, ends)}


def _index_of(e: EquilibriumPoint | None, eq_list: list[EquilibriumPoint]) -> int | None:
    """Position of ``e`` in ``eq_list`` by identity: what a worker sends back
    in place of its own copy of the point."""
    return None if e is None else next(i for i, q in enumerate(eq_list) if q is e)


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
    attractor.  The shots are integrated on the usable CPUs; connections and
    notes are listed in saddle order, as if shot one after another.
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

    def shoot(shot):
        i, _sgn, y0 = shot
        targets = [q for q in eq_list if q is not eq_list[i]]  # a shoot must leave its source
        traj = integrate(rc, y0, 1.0, SHOOT_T_END, equilibria_list=targets)
        return _index_of(traj.terminal_equilibrium, eq_list)

    ends = iter(map_in_order(shoot, [s for s in plan if not isinstance(s, str)]))
    for step in plan:
        if isinstance(step, str):
            notes.append(step)
            continue
        i, sgn, _y0 = step
        j = next(ends)
        if j is None or eq_list[j].pattern_class == "trivial":
            notes.append(f"unstable manifold of {eq_list[i].y} (sign {sgn:+.0f}) unresolved")
            continue
        connections.append((i, j))

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
    # around the origin the eight points must alternate saddle/sink, and each
    # saddle must connect to exactly its two angular neighbors
    order = sorted(range(len(eq_list)),
                   key=lambda i: math.atan2(eq_list[i].y[1], eq_list[i].y[0])
                   if eq_list[i].pattern_class != "trivial" else math.inf)
    ring = [i for i in order if eq_list[i].pattern_class != "trivial"]
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
