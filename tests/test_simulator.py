import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from chemopattern import (
    ModelParams,
    SpectralField,
    lambda_critical,
    make_critical_geometry,
    nonlinear_rhs,
    simulate,
    simulate_full_system,
    step,
)
from chemopattern.core import rho, rho_table, sigma
from chemopattern.transforms import transform_inverse
from chemopattern import simulator
from chemopattern.simulator import (
    BLOWUP_NORM,
    BlowUpError,
    Diagnostics,
    InitialCondition,
    SimConfig,
    _PairStepper,
    _ScalarStepper,
)

from oracles import (
    nonlinear_by_dct,
    nonlinear_by_quadrature,
    pair_nonlinear_by_dct,
    pair_nonlinear_by_quadrature,
)

P = ModelParams(8.0, 1.0, 18.0)
G = make_critical_geometry(1, 1, P)


def single_mode(k1, k2, amp=1.0, n=32):
    c = np.zeros((n, n))
    c[k1, k2] = amp
    return SpectralField(c, G)


def random_field(rng, shape, amp):
    """Coefficients uniform in [-amp, amp] on the modes k1, k2 < 8, zero beyond."""
    c = np.zeros(shape)
    c[:8, :8] = rng.uniform(-amp, amp, size=(8, 8))
    return c


class TestNonlinearRhs:
    def test_zero(self):
        out = nonlinear_rhs(SpectralField(np.zeros((32, 32)), G), P)
        assert np.all(out.coeffs == 0.0)

    def test_constant_mode_matches_scalar_arithmetic(self):
        c0 = 0.2
        out = nonlinear_rhs(single_mode(0, 0, c0), P)
        # for a constant the gradient and chemoattraction terms cancel,
        # leaving the pure reaction part -3*alpha*c^2 - alpha*c^3
        want = -3.0 * P.alpha * c0**2 - P.alpha * c0**3
        assert out.coeffs[0, 0] == pytest.approx(want, rel=1e-12)
        out.coeffs[0, 0] = 0.0
        assert np.max(np.abs(out.coeffs)) <= 1e-14

    def test_single_mode_quadratic_content(self):
        # a small (1,1) seed populates exactly the four second-harmonic modes
        # at quadratic order; values are pinned by the quadrature oracle
        p = ModelParams(8.0, 1.0, 19.0)
        eps = 1e-3
        u = single_mode(1, 1, eps)
        out = nonlinear_rhs(u, p).coeffs
        quad_modes = {(0, 0), (2, 0), (0, 2), (2, 2)}
        for k in quad_modes:
            # the (0,2) entry carries the small quadratic-resonance
            # coefficient (1/8)(-6*alpha + lam*rho/(1+rho)) ~ 1/24 here
            assert abs(out[k]) > 1e-2 * eps**2
        mask = np.ones_like(out, dtype=bool)
        for k in quad_modes | {(1, 1), (1, 3), (3, 1), (3, 3)}:
            mask[k] = False
        assert np.max(np.abs(out[mask])) <= 1e-16
        oracle = nonlinear_by_quadrature(u.coeffs, G, p, n_quad=256, out_modes=(4, 4))
        for k in quad_modes:
            assert out[k] == pytest.approx(oracle[k], abs=1e-12)

    def test_quadrature_oracle_agreement_random_fields(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            c = np.zeros((32, 32))
            c[:5, :5] = rng.uniform(-0.1, 0.1, size=(5, 5))
            u = SpectralField(c, G)
            spec = nonlinear_rhs(u, P).coeffs[:8, :8]
            oracle = nonlinear_by_quadrature(c, G, P, n_quad=512, out_modes=(8, 8))
            assert np.max(np.abs(spec - oracle)) <= 1e-8

    def test_dealias_consistency_across_resolution(self):
        rng = np.random.default_rng(22)
        c = np.zeros((32, 32))
        c[:6, :6] = rng.uniform(-0.2, 0.2, size=(6, 6))
        lo = nonlinear_rhs(SpectralField(c, G), P).coeffs
        c_hi = np.zeros((64, 64))
        c_hi[:32, :32] = c
        hi = nonlinear_rhs(SpectralField(c_hi, G), P).coeffs[:32, :32]
        assert np.max(np.abs(lo - hi)) <= 1e-10

    def test_results_do_not_alias_the_workspace(self):
        # the padded grids are reused across calls; earlier results must not change
        rng = np.random.default_rng(24)
        fields = []
        for _ in range(3):
            c = np.zeros((32, 32))
            c[:6, :6] = rng.uniform(-0.2, 0.2, size=(6, 6))
            fields.append(SpectralField(c, G))
        pair = _PairStepper(sim_config())
        first = [nonlinear_rhs(u, P).coeffs for u in fields[:2]]
        first += [pair._nonlinear(fields[0].coeffs, fields[1].coeffs)]
        kept = [a.copy() for a in first]
        nonlinear_rhs(fields[2], P)
        pair._nonlinear(fields[2].coeffs, fields[0].coeffs)
        for a, b in zip(first, kept):
            assert np.array_equal(a, b)

    def test_threads_do_not_share_the_workspace(self):
        rng = np.random.default_rng(25)
        fields = []
        for _ in range(4):
            c = np.zeros((32, 32))
            c[:6, :6] = rng.uniform(-0.2, 0.2, size=(6, 6))
            fields.append(SpectralField(c, G))
        expected = [nonlinear_rhs(u, P).coeffs for u in fields]
        mismatches = []

        def work(i):
            for _ in range(25):
                if not np.array_equal(nonlinear_rhs(fields[i], P).coeffs, expected[i]):
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestStep:
    def test_zero_fixed_point(self):
        out = step(SpectralField(np.zeros((32, 32)), G), P, 0.5)
        assert np.all(out.coeffs == 0.0)

    def test_linear_flow_exact(self):
        u = single_mode(1, 1, 1e-3)
        dt, t_end = 0.5, 10.0
        for _ in range(int(t_end / dt)):
            u = step(u, P, dt, nonlinear=False)
        s = sigma(rho((1, 1), G), P)
        assert u.coeffs[1, 1] == pytest.approx(1e-3 * math.exp(s * t_end), rel=1e-10)

    def test_self_convergence_order(self):
        p = ModelParams(8.0, 1.0, 18.9)
        c0 = np.zeros((32, 32))
        c0[1, 1] = 0.05
        c0[0, 2] = 0.03

        def advance(dt, t=2.0):
            u = SpectralField(c0.copy(), G)
            for _ in range(int(round(t / dt))):
                u = step(u, p, dt)
            return u.coeffs

        ref = advance(0.00625)
        errs = [np.linalg.norm(advance(dt) - ref) for dt in (0.1, 0.05, 0.025)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert order >= 1.8
        assert np.mean(orders) == pytest.approx(2.0, abs=0.2)

    # one mode at the fastest growth rate, with exp(sigma*dt) overflowing on
    # the full step only (sigma*dt = 1000), or on the midpoint too (3000)
    @pytest.mark.parametrize("growth", [1000.0, 3000.0], ids=["full", "half"])
    def test_overflow_reports_the_step_not_a_time(self, growth):
        p = ModelParams(8.0, 1.0, 19.0)
        sig = sigma(rho_table(32, 32, G), p)
        k = np.unravel_index(np.argmax(sig), sig.shape)
        c = np.zeros((32, 32))
        c[k] = 1e-300
        dt = growth / sig[k]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(BlowUpError, match="step of size dt = .* non-finite") as err:
            step(SpectralField(c, G), p, dt)
        assert err.value.time is None
        assert "blew up at t" not in str(err.value)

    def test_threads_do_not_share_a_stepper(self):
        rng = np.random.default_rng(26)
        fields = [SpectralField(random_field(rng, (32, 32), 0.2), G) for _ in range(4)]
        expected = [step(u, P, 0.05).coeffs for u in fields]
        mismatches = []

        def work(i):
            for _ in range(25):
                if not np.array_equal(step(fields[i], P, 0.05).coeffs, expected[i]):
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_repeated_calls_share_one_stepper(self, monkeypatch):
        built = []
        init = _ScalarStepper.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        simulator._cached_scalar_stepper.cache_clear()
        monkeypatch.setattr(_ScalarStepper, "__init__", counting_init)
        c0 = np.zeros((32, 32))
        c0[1, 1], c0[0, 2] = 0.05, 0.03
        u = SpectralField(c0, G)
        for _ in range(20):
            u = step(u, P, 0.05)
        assert len(built) == 1
        c = c0
        for _ in range(20):
            c = _ScalarStepper((32, 32), G, P, 0.05, True).step(c)
        assert np.array_equal(u.coeffs, c)


class TestFoldedNonlinearity:
    """Both models' right-hand sides against their unfolded form on plain
    ``dct`` transforms, on padded grids on both sides of ``DENSE_MAX``.

    The exact multiplication of the analysed product by (lam/2)*rho_k (1/2*rho_k
    in the two-field model) amplifies its rounding in the high modes, where
    the exact result of these fields is zero; each difference is divided by
    that factor plus one before it is compared with the largest entry."""

    @pytest.mark.parametrize("shape", [(32, 32), (64, 64), (32, 64), (128, 128)])
    def test_scalar(self, shape):
        p = ModelParams(8.0, 1.0, 18.36)
        c = random_field(np.random.default_rng(31), shape, 0.1)
        got = _ScalarStepper(shape, G, p, 0.05, True)._nonlinear(c)
        want = nonlinear_by_dct(c, G, p)
        amplification = 1.0 + 0.5 * p.lam * rho_table(*shape, G)
        assert np.max(np.abs(got - want) / amplification) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(32, 32), (64, 64), (32, 64), (128, 128)])
    def test_pair(self, shape):
        rng = np.random.default_rng(32)
        cu, cv = random_field(rng, shape, 0.1), random_field(rng, shape, 0.5)
        got = _PairStepper(sim_config(n1=shape[0], n2=shape[1]))._nonlinear(cu, cv)
        want = pair_nonlinear_by_dct(cu, cv, G, P)
        amplification = 1.0 + 0.5 * rho_table(*shape, G)
        assert np.max(np.abs(got - want) / amplification) <= 1e-13 * np.max(np.abs(want))


class TestPlanBuffers:
    """Steppers and right-hand sides reuse their plan's workspaces, so what
    they return must be fresh, and a step allocates no grid-sized memory."""

    @staticmethod
    def buffers(*owners):
        return [a for o in owners for a in vars(o).values() if isinstance(a, np.ndarray)]

    def test_results_are_not_plan_buffers(self):
        rng = np.random.default_rng(27)
        c, cv = random_field(rng, (32, 32), 0.2), random_field(rng, (32, 32), 1.0)
        scalar = _ScalarStepper((32, 32), G, P, 0.05, True)
        pair = _PairStepper(sim_config(dt=0.05))
        results = [scalar.step(c), *pair.step((c, cv)), nonlinear_rhs(SpectralField(c, G), P).coeffs]
        plan = simulator._cached_scalar_rhs(threading.get_ident(), (32, 32), G, P)
        buffers = self.buffers(scalar, scalar._rhs, pair, pair._rhs, plan)
        for r in results:
            assert not any(np.shares_memory(r, b) for b in buffers)
        kept = [r.copy() for r in results]
        scalar.step(cv)
        pair.step((cv, c))
        nonlinear_rhs(SpectralField(cv, G), P)
        for a, b in zip(results, kept):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("model", ["scalar", "pair"])
    def test_a_step_allocates_less_than_one_padded_grid(self, model, n):
        rng = np.random.default_rng(28)
        c, cv = random_field(rng, (n, n), 0.2), random_field(rng, (n, n), 1.0)
        if model == "scalar":
            stepper, state = _ScalarStepper((n, n), G, P, 0.05, True), c
        else:
            stepper, state = _PairStepper(sim_config(n1=n, n2=n, dt=0.05)), (c, cv)
        stepper.step(state)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stepper.step(state)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < (2 * n) ** 2 * 8


def sim_config(**kw):
    defaults = dict(params=P, geometry=G, n1=32, n2=32, dt=0.02, t_end=50.0,
                    mode_m=1, mode_n=1)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestSimConfigValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="powers of two"):
            sim_config(n1=48)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="powers of two"):
            sim_config(n1=16, n2=16)

    @pytest.mark.parametrize("name, value", [
        ("dt", math.nan), ("record_interval", math.nan), ("t_end", math.inf),
        ("steady_window", 0.0), ("steady_window", -1.0)])
    def test_rejects_times_it_cannot_run(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be positive and finite, got {value}$"):
            sim_config(**{name: value})

    def test_random_ic_requires_seed(self):
        cfg = sim_config(ic=InitialCondition(kind="random", seed=None))
        with pytest.raises(ValueError, match="seed"):
            simulate(cfg)


class TestSimulate:
    def test_subcritical_decay(self):
        p = ModelParams(8.0, 1.0, 18.0 * 0.99)
        cfg = sim_config(params=p, t_end=800.0,
                         ic=InitialCondition(kind="random", seed=5, amplitude=1e-3))
        diag, final = simulate(cfg)
        assert diag.final_fingerprint == "trivial"
        # after the fast transient the norm decays monotonically
        tail = diag.l2_series[np.asarray(diag.times) >= 20.0]
        assert np.all(np.diff(tail) <= 1e-12)

    def test_invariant_axis_run_saturates_on_roll(self):
        p = ModelParams(8.0, 1.0, 18.36)
        cfg = sim_config(params=p, t_end=600.0,
                         ic=InitialCondition(kind="modes", modes=(((0, 2), 1e-3),)))
        diag, final = simulate(cfg)
        assert np.max(np.abs(diag.mode_series[(1, 1)])) <= 1e-10
        sig_c = sigma(rho((0, 2), G), p)
        b1_local = -3.2462499999999999  # cubic self-coupling at this coupling
        expect = math.sqrt(-sig_c / b1_local)
        assert abs(final.mode((0, 2))) == pytest.approx(expect, rel=0.10)
        assert diag.final_fingerprint == "roll"

    def test_x1_independent_even_subspace_is_invariant(self):
        p = ModelParams(8.0, 1.0, 18.36)
        cfg = sim_config(params=p, t_end=30.0,
                         ic=InitialCondition(kind="modes",
                                             modes=(((0, 2), 5e-3), ((0, 4), 1e-3))))
        _, final = simulate(cfg)
        c = final.coeffs
        assert np.max(np.abs(c[1:, :])) <= 1e-14
        assert np.max(np.abs(c[0, 1::2])) <= 1e-14

    def test_determinism(self):
        cfg = sim_config(t_end=20.0, ic=InitialCondition(kind="random", seed=42))
        d1, f1 = simulate(cfg)
        d2, f2 = simulate(cfg)
        assert np.array_equal(f1.coeffs, f2.coeffs)
        assert np.array_equal(d1.l2_series, d2.l2_series)
        for k in d1.mode_series:
            assert np.array_equal(d1.mode_series[k], d2.mode_series[k])

    def test_snapshots_and_series_shapes(self):
        cfg = sim_config(t_end=10.0, snapshot_times=(0.0, 5.0),
                         ic=InitialCondition(kind="modes", modes=(((1, 1), 1e-3),)))
        diag, _ = simulate(cfg)
        assert len(diag.snapshots) == 2
        assert diag.snapshots[0][1].values.shape == (32, 32)
        n = len(diag.times)
        assert len(diag.l2_series) == n
        assert all(len(v) == n for v in diag.mode_series.values())

    def test_snapshots_keep_their_values_while_the_run_continues(self):
        ic = InitialCondition(kind="random", seed=9, amplitude=0.05)
        diag, _ = simulate(sim_config(t_end=10.0, snapshot_times=(0.0, 5.0), ic=ic))
        _, at5 = simulate(sim_config(t_end=5.0, ic=ic))
        u0 = ic.build(32, 32, G)
        assert [t for t, _ in diag.snapshots] == [0.0, 5.0]
        assert np.array_equal(diag.snapshots[0][1].values, transform_inverse(u0).values)
        assert np.array_equal(diag.snapshots[1][1].values, transform_inverse(at5).values)

    def test_blow_up_reported_with_partial_diagnostics(self):
        cfg = sim_config(t_end=50.0, dt=0.5,
                         ic=InitialCondition(kind="modes", modes=(((1, 1), 50.0),)))
        with pytest.raises(BlowUpError) as err:
            simulate(cfg)
        assert err.value.diagnostics is not None
        assert len(err.value.diagnostics.times) >= 1

    @pytest.mark.parametrize("run", [simulate, simulate_full_system])
    def test_blow_up_between_records_reports_the_first_non_finite_step(self, run):
        # records at t = 0, 25, 50 only; the state is first non-finite after
        # the third step
        cfg = sim_config(t_end=50.0, dt=0.5, record_interval=25.0,
                         ic=InitialCondition(kind="modes", modes=(((1, 1), 50.0),)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(BlowUpError, match="blew up at t = 1.5") as err:
            run(cfg)
        assert err.value.time == 1.5
        diag = err.value.diagnostics
        assert diag.times.tolist() == [0.0]
        assert diag.final_fingerprint == "unresolved"
        assert not diag.steady

    @pytest.mark.parametrize("run", [simulate, simulate_full_system])
    def test_runaway_norm_reports_the_record_that_exceeded_it(self, run):
        # linear growth from l2 = 5e5 stays finite and crosses the bound at a
        # later record, not at a step
        cfg = sim_config(params=ModelParams(8.0, 1.0, 19.0), nonlinear=False, t_end=100.0,
                         dt=0.1, ic=InitialCondition(kind="modes", modes=(((1, 1), 1e6),)))
        with pytest.raises(BlowUpError) as err:
            run(cfg)
        diag = err.value.diagnostics
        assert err.value.time == diag.times[-1] > 1.0
        assert diag.l2_series[-1] > BLOWUP_NORM >= diag.l2_series[:-1].max()
        assert diag.final_fingerprint == "unresolved"
        assert not diag.steady


def test_blow_up_error_survives_pickling():
    diag = Diagnostics(times=np.array([0.0, 1.0]), mode_series={(1, 1): np.array([1.0, 2.0])},
                       l2_series=np.array([0.5, 1.0]))
    err = pickle.loads(pickle.dumps(BlowUpError(1.5, diag)))
    assert (err.time, str(err)) == (1.5, "simulation blew up at t = 1.5")
    assert err.diagnostics.times.tolist() == [0.0, 1.0]
    assert err.diagnostics.mode_series[(1, 1)].tolist() == [1.0, 2.0]
    err = pickle.loads(pickle.dumps(BlowUpError(None, message="non-finite step")))
    assert (err.time, err.diagnostics, str(err)) == (None, None, "non-finite step")


class TestStepperContract:
    """Every step makes one stepper call and two nonlinear right-hand-side
    evaluations, and every right-hand side one batched synthesis and one
    batched analysis, through the right-hand-side transforms."""

    @staticmethod
    def count_calls(monkeypatch, run, targets):
        counts = {key: 0 for _, _, key in targets}

        def count(owner, attr, key):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for target in targets:
            count(*target)
        cfg = sim_config(t_end=1.0, ic=InitialCondition(kind="random", seed=4))
        diag, _ = run(cfg)
        assert diag.times[-1] == pytest.approx(cfg.t_end)
        return counts, int(round(cfg.t_end / cfg.dt))

    @pytest.mark.parametrize("run", [simulate, simulate_full_system])
    def test_two_rhs_calls_and_one_step_call_per_step(self, monkeypatch, run):
        counts, steps = self.count_calls(monkeypatch, run, [
            (_ScalarStepper, "_nonlinear", "rhs"), (_PairStepper, "_nonlinear", "rhs"),
            (_ScalarStepper, "step", "step"), (_PairStepper, "step", "step")])
        assert counts == {"rhs": 2 * steps, "step": steps}

    @pytest.mark.parametrize("run", [simulate, simulate_full_system])
    def test_one_synthesis_and_one_analysis_per_rhs_call(self, monkeypatch, run):
        counts, steps = self.count_calls(monkeypatch, run, [
            (_ScalarStepper, "_nonlinear", "rhs"), (_PairStepper, "_nonlinear", "rhs"),
            (simulator, "rhs_coeffs_to_grid", "synthesis"),
            (simulator, "rhs_grid_to_coeffs", "analysis")])
        assert counts == {"rhs": 2 * steps, "synthesis": 2 * steps, "analysis": 2 * steps}


class TestFullSystem:
    def test_zero_stays_zero(self):
        cfg = sim_config(t_end=5.0, ic=InitialCondition(kind="modes", modes=()))
        diag, (u, v) = simulate_full_system(cfg)
        assert np.all(u.coeffs == 0.0)
        assert np.all(v.coeffs == 0.0)

    def test_subcritical_decay(self):
        p = ModelParams(8.0, 1.0, 18.0 * 0.99)
        cfg = sim_config(params=p, t_end=600.0,
                         ic=InitialCondition(kind="random", seed=9, amplitude=1e-3))
        diag, (u, v) = simulate_full_system(cfg)
        assert diag.final_fingerprint == "trivial"
        assert u.l2_norm() <= 1e-6
        assert v.l2_norm() <= 1e-5

    def test_linear_growth_rate_matches_quasi_static_model_near_threshold(self):
        # the slow eigenvalue of the coupled pair at the critical wavenumber
        # vanishes exactly at the critical coupling
        p = ModelParams(8.0, 1.0, 18.0)
        cfg = sim_config(params=p, t_end=10.0, nonlinear=False,
                         ic=InitialCondition(kind="modes",
                                             modes=(((1, 1), 1e-4), ((0, 2), 1e-4))))
        diag, (u, v) = simulate_full_system(cfg)
        for k in ((1, 1), (0, 2)):
            series = diag.mode_series[k]
            assert series[-1] == pytest.approx(series[0], rel=1e-4)

    def test_nonlinear_term_against_quadrature_oracle(self):
        stepper = _PairStepper(sim_config())
        rng = np.random.default_rng(23)
        for _ in range(3):
            cu = np.zeros((32, 32))
            cv = np.zeros((32, 32))
            cu[:5, :5] = rng.uniform(-0.1, 0.1, size=(5, 5))
            cv[:5, :5] = rng.uniform(-0.5, 0.5, size=(5, 5))
            spec = stepper._nonlinear(cu, cv)[:8, :8]
            oracle = pair_nonlinear_by_quadrature(cu, cv, G, P, n_quad=512, out_modes=(8, 8))
            assert np.max(np.abs(spec - oracle)) <= 1e-8

    def test_agrees_with_scalar_model(self):
        p = ModelParams(8.0, 1.0, 18.36)
        ic = InitialCondition(kind="random", seed=7, amplitude=1e-3)
        cfg = sim_config(params=p, t_end=500.0, ic=ic)
        diag_s, final_s = simulate(cfg)
        diag_f, (final_f, _) = simulate_full_system(cfg)
        assert diag_f.final_fingerprint == diag_s.final_fingerprint
        a = abs(final_s.mode((0, 2)))
        b = abs(final_f.mode((0, 2)))
        assert b == pytest.approx(a, rel=0.15)
