"""Independent oracles used by the test suite.

Everything here is built from first principles (pointwise evaluation of
cosine products and plain quadrature), deliberately sharing no code with the
package's spectral machinery, so the two sides of every comparison stay
independent.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.fft import dct
from scipy.integrate import solve_ivp

from chemopattern.core import DomainGeometry, ModelParams, rho_table
from chemopattern.planar import (
    CAPTURE_RADIUS_FACTOR,
    DEFAULT_BLOWUP,
    RESIDUAL_SPEED_TOL,
)
from chemopattern.reduction import _amplitude_scale, equilibria, reduced_vector_field


def cos_mode(k1: int, k2: int, g: DomainGeometry, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.outer(np.cos(k1 * np.pi * x / g.ell1), np.cos(k2 * np.pi * y / g.ell2))


def grad_dot(ka, kb, g, x, y) -> np.ndarray:
    """grad(e_ka) . grad(e_kb) evaluated pointwise."""
    a1, a2 = ka
    b1, b2 = kb
    sxa = np.sin(a1 * np.pi * x / g.ell1) * (a1 * np.pi / g.ell1)
    sxb = np.sin(b1 * np.pi * x / g.ell1) * (b1 * np.pi / g.ell1)
    cya = np.cos(a2 * np.pi * y / g.ell2)
    cyb = np.cos(b2 * np.pi * y / g.ell2)
    cxa = np.cos(a1 * np.pi * x / g.ell1)
    cxb = np.cos(b1 * np.pi * x / g.ell1)
    sya = np.sin(a2 * np.pi * y / g.ell2) * (a2 * np.pi / g.ell2)
    syb = np.sin(b2 * np.pi * y / g.ell2) * (b2 * np.pi / g.ell2)
    return np.outer(sxa * sxb, cya * cyb) + np.outer(cxa * cxb, sya * syb)


def l2_norm(field) -> float:
    """Domain-averaged L2 norm sqrt(<u^2>/|Omega|) of a ``SpectralField``,
    from its coefficients by Parseval: each cosine factor other than the
    constant one averages to 1/2 in square."""
    c = field.coeffs
    w1 = np.where(np.arange(c.shape[0]) == 0, 1.0, 0.5)[:, None]
    w2 = np.where(np.arange(c.shape[1]) == 0, 1.0, 0.5)[None, :]
    return float(np.sqrt(np.sum(w1 * w2 * c**2)))


def trapezoid_grid(g: DomainGeometry, n: int = 512):
    """Closed trapezoid nodes with n panels per axis."""
    x = np.linspace(0.0, g.ell1, n + 1)
    y = np.linspace(0.0, g.ell2, n + 1)
    return x, y


def trapezoid_inner(f: np.ndarray, h: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """<f, h> by the 2D trapezoid rule."""
    integ = np.trapezoid(np.trapezoid(f * h, y, axis=1), x, axis=0)
    return float(integ)


def midpoint_grid(g: DomainGeometry, n: int = 512):
    x = (np.arange(n) + 0.5) * g.ell1 / n
    y = (np.arange(n) + 0.5) * g.ell2 / n
    return x, y


def nonlinear_by_quadrature(coeffs: np.ndarray, g: DomainGeometry, p: ModelParams,
                            n_quad: int = 512, out_modes: tuple[int, int] = (8, 8)) -> np.ndarray:
    """Projection of the quadratic+cubic right-hand side onto low cosine
    modes, by pointwise evaluation on a midpoint quadrature grid.

    The nonlinearity is evaluated in its literal form
    -lam*grad(u).grad(w) - lam*u*Lap(w) - 3*alpha*u^2 - alpha*u^3 with
    Lap(w) computed mode by mode, so this also cross-checks the
    Lap(w) = w - u shortcut used by the implementation.
    """
    n1, n2 = coeffs.shape
    lam, alpha = p.lam, p.alpha
    x, y = midpoint_grid(g, n_quad)
    rt = rho_table(n1, n2, g)
    U = np.zeros((n_quad, n_quad))
    W = np.zeros_like(U)
    LapW = np.zeros_like(U)
    Ux = np.zeros_like(U)
    Uy = np.zeros_like(U)
    Wx = np.zeros_like(U)
    Wy = np.zeros_like(U)
    for k1 in range(n1):
        cx = np.cos(k1 * np.pi * x / g.ell1)
        sx = np.sin(k1 * np.pi * x / g.ell1)
        for k2 in range(n2):
            c = coeffs[k1, k2]
            if c == 0.0:
                continue
            cy = np.cos(k2 * np.pi * y / g.ell2)
            sy = np.sin(k2 * np.pi * y / g.ell2)
            wc = c / (1.0 + rt[k1, k2])
            base = np.outer(cx, cy)
            U += c * base
            W += wc * base
            LapW += -rt[k1, k2] * wc * base
            d1 = k1 * np.pi / g.ell1
            d2 = k2 * np.pi / g.ell2
            Ux += -c * d1 * np.outer(sx, cy)
            Uy += -c * d2 * np.outer(cx, sy)
            Wx += -wc * d1 * np.outer(sx, cy)
            Wy += -wc * d2 * np.outer(cx, sy)
    H = (-lam * (Ux * Wx + Uy * Wy) - lam * U * LapW
         - 3.0 * alpha * U * U - alpha * U * U * U)
    out = np.zeros(out_modes)
    for k1 in range(out_modes[0]):
        cx = np.cos(k1 * np.pi * x / g.ell1)
        for k2 in range(out_modes[1]):
            cy = np.cos(k2 * np.pi * y / g.ell2)
            basis = np.outer(cx, cy)
            out[k1, k2] = np.mean(H * basis) / np.mean(basis * basis)
    return out


def pair_nonlinear_by_quadrature(cu: np.ndarray, cv: np.ndarray, g: DomainGeometry,
                                 p: ModelParams, n_quad: int = 512,
                                 out_modes: tuple[int, int] = (8, 8)) -> np.ndarray:
    """Projection of the two-field model's nonlinear cell-density term onto
    low cosine modes, by pointwise evaluation on a midpoint quadrature grid.

    The term is evaluated in its literal form
    -grad(u).grad(v) - u*Lap(v) - 3*alpha*u^2 - alpha*u^3, with every
    derivative taken mode by mode.
    """
    n1, n2 = cu.shape
    x, y = midpoint_grid(g, n_quad)
    U = np.zeros((n_quad, n_quad))
    Ux = np.zeros_like(U)
    Uy = np.zeros_like(U)
    Vx = np.zeros_like(U)
    Vy = np.zeros_like(U)
    LapV = np.zeros_like(U)
    for k1 in range(n1):
        d1 = k1 * np.pi / g.ell1
        cx, sx = np.cos(d1 * x), np.sin(d1 * x)
        for k2 in range(n2):
            a, b = cu[k1, k2], cv[k1, k2]
            if a == 0.0 and b == 0.0:
                continue
            d2 = k2 * np.pi / g.ell2
            cy, sy = np.cos(d2 * y), np.sin(d2 * y)
            base = np.outer(cx, cy)
            U += a * base
            Ux += -a * d1 * np.outer(sx, cy)
            Uy += -a * d2 * np.outer(cx, sy)
            Vx += -b * d1 * np.outer(sx, cy)
            Vy += -b * d2 * np.outer(cx, sy)
            LapV += -b * (d1 * d1 + d2 * d2) * base
    H = -(Ux * Vx + Uy * Vy) - U * LapV - 3.0 * p.alpha * U * U - p.alpha * U * U * U
    out = np.zeros(out_modes)
    for k1 in range(out_modes[0]):
        cx = np.cos(k1 * np.pi * x / g.ell1)
        for k2 in range(out_modes[1]):
            cy = np.cos(k2 * np.pi * y / g.ell2)
            basis = np.outer(cx, cy)
            out[k1, k2] = np.mean(H * basis) / np.mean(basis * basis)
    return out


def _dct_synthesis(c: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """Cosine synthesis of coefficients ``c`` on the m1 x m2 midpoint grid."""
    n1, n2 = c.shape
    a = np.zeros((m1, m2))
    a[:n1, :n2] = c
    a[1:, :] *= 0.5
    a[:, 1:] *= 0.5
    return dct(dct(a, type=3, axis=0), type=3, axis=1)


def _dct_analysis(v: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Cosine analysis of midpoint-grid values ``v``, truncated to n1 x n2."""
    m1, m2 = v.shape
    c = dct(dct(v, type=2, axis=0), type=2, axis=1)[:n1, :n2] / (4.0 * m1 * m2)
    c[1:, :] *= 2.0
    c[:, 1:] *= 2.0
    return c


def nonlinear_by_dct(c: np.ndarray, g: DomainGeometry, p: ModelParams,
                     dealias_factor: int = 2) -> np.ndarray:
    """The scalar model's nonlinear right-hand side in its unfolded form,

        (lam/2)*(w*Lap(u) - u*Lap(w)) - 3*alpha*u^2 - alpha*u^3 - (lam/2)*Lap(uw),

    with Lap(w) = w - u, each field synthesized on the padded grid by
    ``scipy.fft.dct`` one at a time and the products analysed the same way."""
    n1, n2 = c.shape
    m1, m2 = dealias_factor * n1, dealias_factor * n2
    rt = rho_table(n1, n2, g)
    U = _dct_synthesis(c, m1, m2)
    W = _dct_synthesis(c / (1.0 + rt), m1, m2)
    LapU = _dct_synthesis(-rt * c, m1, m2)
    LapW = W - U
    h = 0.5 * p.lam * (W * LapU - U * LapW) - 3.0 * p.alpha * U * U - p.alpha * U * U * U
    return _dct_analysis(h, n1, n2) + 0.5 * p.lam * rt * _dct_analysis(U * W, n1, n2)


def pair_nonlinear_by_dct(cu: np.ndarray, cv: np.ndarray, g: DomainGeometry, p: ModelParams,
                          dealias_factor: int = 2) -> np.ndarray:
    """The two-field model's nonlinear cell-density term in its unfolded form,

        (1/2)*(v*Lap(u) - u*Lap(v)) - 3*alpha*u^2 - alpha*u^3 - (1/2)*Lap(uv),

    transformed field by field with ``scipy.fft.dct`` as in
    :func:`nonlinear_by_dct`."""
    n1, n2 = cu.shape
    m1, m2 = dealias_factor * n1, dealias_factor * n2
    rt = rho_table(n1, n2, g)
    U, V = _dct_synthesis(cu, m1, m2), _dct_synthesis(cv, m1, m2)
    LapU, LapV = _dct_synthesis(-rt * cu, m1, m2), _dct_synthesis(-rt * cv, m1, m2)
    h = 0.5 * (V * LapU - U * LapV) - 3.0 * p.alpha * U * U - p.alpha * U * U * U
    return _dct_analysis(h, n1, n2) + 0.5 * rt * _dct_analysis(U * V, n1, n2)


def scalar_midpoint_step(c: np.ndarray, sig: np.ndarray, dt: float, nonlinear) -> np.ndarray:
    """One exponential-midpoint step of c' = sig*c + N(c) with diagonal sig,
    products associated as the scalar model's reference bytes have them:

        h      = exp(sig*dt/2)*c + ((dt/2)*phi1(sig*dt/2))*N(c)
        c_next = exp(sig*dt)*c + (dt*exp(sig*dt/2))*N(h)

    with phi1(z) = (exp(z) - 1)/z.  ``nonlinear`` maps coefficients to N; the
    formula pins the time scheme only, so the caller supplies the package's
    right-hand side."""
    z = sig * dt
    half = z / 2.0
    small = np.abs(half) < 1e-8
    safe = np.where(small, 1.0, half)
    phi1 = np.where(small, 1.0 + 0.5 * half, np.expm1(safe) / safe)
    exp_half = np.exp(half)
    h = exp_half * c + ((dt / 2.0) * phi1) * nonlinear(c)
    return np.exp(z) * c + (dt * exp_half) * nonlinear(h)


def _pair_phi1(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + 0.5 * z, np.expm1(safe) / safe)


def _pair_phi1_prime(s: np.ndarray) -> np.ndarray:
    """phi1'(s), evaluated as the package does for the byte comparison: the
    Taylor series through s^17 by Horner's rule for |s| < 1, else the closed
    form (exp(s)*(s - 1) + 1)/s^2."""
    series = np.zeros_like(s)
    for j in reversed(range(18)):
        series = series * s + (j + 1) / math.factorial(j + 2)
    small = np.abs(s) < 1.0
    safe = np.where(small, 1.0, s)
    return np.where(small, series, (np.exp(safe) * (safe - 1.0) + 1.0) / safe ** 2)


def phi1_prime_exact(s: float) -> float:
    """phi1'(s) = sum_j (j + 1) s^j / (j + 2)!, summed exactly in rationals
    from the binary value of ``s`` and rounded once: no cancellation at any
    s.  Summing stops past the largest term, once a term is below 1e-40 of
    the sum."""
    x, total, power, factorial, j = Fraction(s), Fraction(0), Fraction(1), 2, 0
    while True:
        term = (j + 1) * power / factorial
        total += term
        if j > 2.0 * abs(s) + 2.0 and abs(term) <= abs(total) / 10 ** 40:
            return float(total)
        j += 1
        power *= x
        factorial *= j + 2


def _pair_matrix_functions(A11, A12, A21, A22, dt: float):
    """exp(A*dt) and phi1(A*dt) for a field of 2x2 blocks with real spectrum,
    by f(A) = avg(f)|_eigs * I + divdiff(f)|_eigs * (A - mean(eigs)*I), with
    f' at the mean where the eigenvalues coincide."""
    tr = A11 + A22
    root = np.sqrt(np.maximum((A11 - A22) ** 2 + 4.0 * A12 * A21, 0.0))
    lam1 = 0.5 * (tr + root) * dt
    lam2 = 0.5 * (tr - root) * dt
    s = 0.5 * (lam1 + lam2)
    d = lam1 - lam2

    def apply(fvals1, fvals2, fprime_s):
        avg = 0.5 * (fvals1 + fvals2)
        small = np.abs(d) < 1e-9 * np.maximum(1.0, np.abs(s))
        dd = np.where(small, fprime_s, (fvals1 - fvals2) / np.where(small, 1.0, d))
        return ((avg + dd * (A11 * dt - s), dd * A12 * dt),
                (dd * A21 * dt, avg + dd * (A22 * dt - s)))

    E = apply(np.exp(lam1), np.exp(lam2), np.exp(s))
    P = apply(_pair_phi1(lam1), _pair_phi1(lam2), _pair_phi1_prime(s))
    return E, P


def pair_midpoint_step(c: np.ndarray, table: np.ndarray, p: ModelParams, dt: float,
                       nonlinear) -> np.ndarray:
    """One exponential-midpoint step of the two-field model, state ``c`` of
    shape (2, n1, n2) holding (u, v), with the 2x2 blocks
    A = ((-mu*rho - 2*alpha, rho), (lam, -(1 + rho))) of ``table`` = rho_k,
    products associated as the two-field model's reference bytes have them:

        h      = exp(A dt/2) c + ((dt/2) phi1(A dt/2) e0) N(c)
        c_next = exp(A dt) c + (dt exp(A dt/2) e0) N(h)

    ``nonlinear`` maps a state to N; the formula pins the time scheme only,
    so the caller supplies the package's right-hand side."""
    A = (-p.mu * table - 2.0 * p.alpha, table, np.full_like(table, p.lam), -(1.0 + table))
    E, _ = _pair_matrix_functions(*A, dt)
    E_half, P_half = _pair_matrix_functions(*A, dt / 2.0)
    n = nonlinear(c)
    h = np.array([E_half[i][0] * c[0] + E_half[i][1] * c[1] + ((dt / 2.0) * P_half[i][0]) * n
                  for i in range(2)])
    n = nonlinear(h)
    return np.array([E[i][0] * c[0] + E[i][1] * c[1] + (dt * E_half[i][0]) * n
                     for i in range(2)])


def count_roots_by_index(field, box: float, n: int = 401) -> int:
    """Count nontrivial roots of a planar field by the winding of the field
    around each cell of an n x n grid.

    The winding over a cell's four corners is exact for a field linear on
    the cell, and a transversal root has index +-1, so each cell holding one
    root counts once.  A scan for cells where both components change sign
    needs clustering, which splits shallow nullcline crossings in two and
    merges roots a few cells apart; the winding needs none.  ``n`` is odd so
    that the axes, where rolls lie, and the origin fall inside cells; the
    origin's cell is dropped.
    """
    xs = np.linspace(-box, box, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    F1, F2 = field((X, Y))
    th = np.arctan2(F2, F1)

    def turn(a, b):
        return (b - a + np.pi) % (2.0 * np.pi) - np.pi

    c00, c10, c11, c01 = th[:-1, :-1], th[1:, :-1], th[1:, 1:], th[:-1, 1:]
    winding = turn(c00, c10) + turn(c10, c11) + turn(c11, c01) + turn(c01, c00)
    index = np.rint(winding / (2.0 * np.pi)).astype(int)
    index[n // 2, n // 2] = 0
    return int(np.count_nonzero(index))


def exact_newton_root(rc, y, iters: int = 3) -> tuple[float, float]:
    """The stationary point of the truncated planar system next to ``y``, by
    Newton's method in rational arithmetic on the coefficients as stored,
    then rounded to floats: the reference for the accuracy of
    ``equilibria``.  The field and its Jacobian are written out again from
    the amplitude equations; each iterate is rounded to 60 digits, and three
    iterations from a point 1e-14 off reach far below double precision."""
    s1, s2, a, b1, b2 = (Fraction(v) for v in (rc.sigma1, rc.sigma2, rc.frak_a,
                                                 rc.frak_b1, rc.frak_b2))
    c1 = (b1 + 2 * b2) / 4
    y1, y2 = Fraction(y[0]), Fraction(y[1])
    for _ in range(iters):
        f1 = s1 * y1 + 4 * a * y1 * y2 + c1 * y1**3 + 2 * b2 * y1 * y2**2
        f2 = s2 * y2 + a * y1**2 + b1 * y2**3 + b2 * y2 * y1**2
        j11 = s1 + 4 * a * y2 + 3 * c1 * y1**2 + 2 * b2 * y2**2
        j12 = 4 * a * y1 + 4 * b2 * y1 * y2
        j21 = 2 * a * y1 + 2 * b2 * y1 * y2
        j22 = s2 + 3 * b1 * y2**2 + b2 * y1**2
        det = j11 * j22 - j12 * j21
        y1 = (y1 - (j22 * f1 - j12 * f2) / det).limit_denominator(10**60)
        y2 = (y2 - (j11 * f2 - j21 * f1) / det).limit_denominator(10**60)
    return float(y1), float(y2)


def hexagon_ordinates(rc) -> list[float]:
    """Real roots of sigma + 4*a_q*Y + (b1 + 4*b2)*Y^2 = 0 for sigma1 = sigma2.

    Points (+-2Y, Y) with these ordinates carry the ratio-locked branch even
    when the quadratic coefficient is nonzero: the closed-form reference for
    the hexagons of ``equilibria``.
    """
    c = rc.frak_b1 + 4.0 * rc.frak_b2
    disc = 16.0 * rc.frak_a**2 - 4.0 * c * rc.sigma2
    if disc < 0 or c == 0:
        return []
    roots = [(-4.0 * rc.frak_a + s * math.sqrt(disc)) / (2.0 * c) for s in (+1.0, -1.0)]
    return [r for r in roots if r != 0.0]


def mixed_ordinate(rc) -> float | None:
    """Closed-form ordinate y2 = 4*a_q/(b1 - 2*b2) of the mixed branch for
    sigma1 = sigma2: the reference for the mixed points of ``equilibria``."""
    d = rc.frak_b1 - 2.0 * rc.frak_b2
    if d == 0:
        return None
    return 4.0 * rc.frak_a / d


def rk45_by_scipy(rc, t0: float, t1: float, y0, t_eval):
    """Reference for ``planar._rk45``: scipy's own ``solve_ivp`` RK45 at the
    same tolerances, on a numpy-array field.

    Returns ``(times, states, success, y_last, nfev)``: the samples, with
    states of shape (len(times), 2), scipy's success flag, the last accepted
    state (from a rerun without ``t_eval``, which takes the same steps) and
    the number of field evaluations of the run with ``t_eval``.
    """
    def run(t_eval=None):
        return solve_ivp(lambda _t, y: reduced_vector_field(y, rc), (t0, t1), np.asarray(y0),
                         method="RK45", rtol=1e-10, atol=1e-12, t_eval=t_eval)

    sol = run(t_eval)
    states = np.reshape(sol.y, (2, -1)).T
    return np.asarray(sol.t, dtype=float), states, sol.success, run().y[:, -1], sol.nfev


def integrate_by_sample(rc, y0, dt: float, t_end: float, equilibria_list=None):
    """Reference for ``planar.integrate`` with the same chunked ``solve_ivp``
    calls, but the stopping tests run on every sample in turn: blow-up
    (norm above ``DEFAULT_BLOWUP``) first, then capture by the nearest
    equilibrium within the capture radius at residual speed below
    tolerance.  The field is evaluated on numpy arrays.  Sample times come
    from ``np.arange`` unfiltered, which equals ``integrate``'s ``k*dt`` grid
    for dyadic ``dt`` but can overshoot a chunk's end for other ``dt``.

    Returns ``(times, states, terminal_equilibrium, diverged)``.
    """
    y0 = np.asarray(y0, dtype=float)
    eq_list = equilibria(rc) if equilibria_list is None else equilibria_list
    scale = _amplitude_scale(rc)
    radius = CAPTURE_RADIUS_FACTOR * scale

    def match(y):
        speed = float(np.linalg.norm(reduced_vector_field(y, rc)))
        if speed > RESIDUAL_SPEED_TOL * max(rc.scale, 1.0):
            return None
        best, dist = None, math.inf
        for e in eq_list:
            d = math.hypot(y[0] - e.y[0], y[1] - e.y[1])
            if d < dist:
                best, dist = e, d
        return best if dist <= radius else None

    times, states = [0.0], [y0.copy()]
    diverged, terminal = False, None
    chunk = max(dt, min(t_end / 20.0, 50.0))
    t, y = 0.0, y0.copy()
    while t < t_end - 1e-12:
        t1 = min(t + chunk, t_end)
        t_eval = np.arange(t + dt, t1 + dt / 2, dt)
        if len(t_eval) == 0:
            t_eval = np.array([t1])
        sol = solve_ivp(lambda _t, yy: reduced_vector_field(yy, rc), (t, t1), y,
                        method="RK45", rtol=1e-10, atol=1e-12, t_eval=t_eval,
                        dense_output=False)
        if not sol.success:
            # judged by the solver's last accepted state, from a rerun
            # without t_eval, which takes the same steps
            last = solve_ivp(lambda _t, yy: reduced_vector_field(yy, rc), (t, t1), y,
                             method="RK45", rtol=1e-10, atol=1e-12).y[:, -1]
            if np.linalg.norm(last) <= 10.0 * scale:
                raise RuntimeError(f"planar integration failed: {sol.message}")
            # sol.y is an empty list when the collapse came before a sample
            times.extend(float(tk) for tk in sol.t)
            states.extend(yk.copy() for yk in np.reshape(sol.y, (2, -1)).T)
            diverged = True
            break
        for tk, yk in zip(sol.t, sol.y.T):
            times.append(float(tk))
            states.append(yk.copy())
            if np.linalg.norm(yk) > DEFAULT_BLOWUP:
                diverged = True
                break
            terminal = match(yk)
            if terminal is not None:
                break
        if diverged or terminal is not None:
            break
        t, y = times[-1], states[-1]
    return np.array(times), np.array(states), terminal, diverged
