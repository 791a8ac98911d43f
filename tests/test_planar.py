import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import RK45

from chemopattern import (
    ModelParams,
    attractor_graph,
    basin_survey,
    cubic_coefficients,
    equilibria,
    integrate,
    lambda_critical,
    make_critical_geometry,
    reduced_vector_field,
)
from chemopattern import planar
from chemopattern.core import DomainGeometry
from chemopattern.planar import SHOOT_OFFSET, SHOOT_T_END, Trajectory
from chemopattern.reduction import _amplitude_scale, vector_field_jacobian

from oracles import integrate_by_sample, rk45_by_scipy


@pytest.fixture(scope="module")
def rc_super(bench):
    _, _, _, rc = bench
    return replace(rc, sigma1=0.05, sigma2=0.05)


def positive_cubic_rectangle():
    """1.02 lambda_c on the (1, 1) rectangle with both cubic coefficients
    made positive: trajectories blow up in finite time."""
    p = ModelParams(8.0, 1.0, 18.0)
    g = make_critical_geometry(1, 1, p)
    rc = cubic_coefficients(replace(p, lam=1.02 * lambda_critical(p, g).lambda_c), g, 1, 1)
    return rc.with_cubic_override(abs(rc.frak_b1), abs(rc.frak_b2))


class TestTrajectoryValidation:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(times=np.array([0.0, 1.0, 1.0]), states=np.zeros((3, 2)))

    def test_rejects_non_finite_states(self):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times=np.array([0.0, 1.0]),
                       states=np.array([[0.0, 0.0], [np.nan, 0.0]]))


class TestIntegrate:
    def test_origin_is_fixed(self, rc_super):
        traj = integrate(rc_super, (0.0, 0.0), dt=1.0, t_end=20.0)
        assert np.all(traj.states == 0.0)

    def test_subcritical_decay_to_origin(self, bench):
        _, _, _, rc = bench
        rc = replace(rc, sigma1=-0.2, sigma2=-0.2)
        traj = integrate(rc, (1e-3, -2e-3), dt=1.0, t_end=2000.0)
        assert traj.terminal_equilibrium is not None
        assert traj.terminal_equilibrium.pattern_class == "trivial"

    def test_generic_start_reaches_a_sink(self, rc_super):
        traj = integrate(rc_super, (1e-3, 1e-3), dt=1.0, t_end=5000.0)
        e = traj.terminal_equilibrium
        assert e is not None
        assert e.stability == "stable-node"
        # cross-coupling beats self-coupling here, so the single-mode roll wins
        assert e.pattern_class == "roll"
        assert np.linalg.norm(np.array(traj.states[-1]) - np.array(e.y)) <= 1e-5

    def test_ratio_locked_start_reaches_saddle_point(self, rc_super):
        # the line y1 = 2 y2 is invariant in the degenerate system, so an
        # exactly locked start lands on the ratio-locked equilibrium
        traj = integrate(rc_super, (2e-3, 1e-3), dt=1.0, t_end=5000.0)
        e = traj.terminal_equilibrium
        assert e is not None and e.pattern_class == "hexagon"
        t = math.sqrt(0.05 / 12.75)
        assert traj.states[-1][0] == pytest.approx(2.0 * t, rel=1e-5)
        assert traj.states[-1][1] == pytest.approx(t, rel=1e-5)

    def test_invariant_axis_exact(self, rc_super):
        traj = integrate(rc_super, (0.0, 1e-3), dt=1.0, t_end=500.0)
        assert np.max(np.abs(traj.states[:, 0])) <= 1e-13

    def test_mirror_symmetry_in_first_component(self, rc_super):
        a = integrate(rc_super, (1e-3, 5e-4), dt=1.0, t_end=200.0)
        b = integrate(rc_super, (-1e-3, 5e-4), dt=1.0, t_end=200.0)
        m = min(len(a.times), len(b.times))
        assert np.allclose(a.states[:m, 0], -b.states[:m, 0], atol=1e-9)
        assert np.allclose(a.states[:m, 1], b.states[:m, 1], atol=1e-9)

    def test_mirror_symmetry_in_second_component_degenerate(self, rc_super):
        a = integrate(rc_super, (1e-3, 5e-4), dt=1.0, t_end=200.0)
        c = integrate(rc_super, (1e-3, -5e-4), dt=1.0, t_end=200.0)
        m = min(len(a.times), len(c.times))
        assert np.allclose(a.states[:m, 1], -c.states[:m, 1], atol=1e-9)

    def test_divergence_report(self, rc_super):
        rc_bad = rc_super.with_cubic_override(5.0, 5.0)
        traj = integrate(rc_bad, (0.5, 0.5), dt=0.05, t_end=100.0)
        assert traj.diverged
        assert traj.terminal_equilibrium is None

    @pytest.mark.parametrize("dt", [0.25, 0.5, 1.0])
    def test_divergence_report_at_coarse_dt(self, rc_super, dt):
        # the solver fails before the first sample, so only its last
        # accepted state shows the blow-up
        traj = integrate(rc_super.with_cubic_override(5.0, 5.0), (0.5, 0.5), dt=dt, t_end=100.0)
        assert traj.diverged
        assert traj.terminal_equilibrium is None
        assert traj.times[-1] < dt

    @pytest.mark.parametrize("dt", [0.05, 0.25, 1.0])
    def test_positive_cubics_blow_up_on_the_rectangle(self, dt):
        # every sample lags far behind the solver's state
        traj = integrate(positive_cubic_rectangle(), (0.5, 0.5), dt=dt, t_end=100.0)
        assert traj.diverged
        assert traj.terminal_equilibrium is None

    @pytest.mark.parametrize("dt, t_end, last_step", [(0.1, 300.0, 0.1), (0.05, 100.0, 0.05),
                                                      (0.3, 1000.0, 0.1)])
    def test_non_dyadic_dt_samples_evenly(self, bench, dt, t_end, last_step):
        # at the critical point the decay is too slow for capture, so the
        # trajectory runs to t_end; 0.3 does not divide 1000, so the last
        # step is the remainder
        _, _, _, rc = bench
        traj = integrate(rc, (1e-3, 1e-3), dt=dt, t_end=t_end)
        assert traj.terminal_equilibrium is None and not traj.diverged
        steps = np.diff(traj.times)
        assert np.all(steps > 0)
        assert np.allclose(steps[:-1], dt, rtol=0.0, atol=1e-9)
        assert traj.times[-1] == t_end
        assert steps[-1] == pytest.approx(last_step, abs=1e-9)

    @pytest.mark.parametrize("y0", [(np.nan, 1e-3), (1e-3, np.inf), (1e-3,), (1e-3, 1e-3, 0.0),
                                    ((1e-3, 1e-3),)], ids=["nan", "inf", "short", "long", "nested"])
    def test_rejects_bad_start(self, rc_super, y0):
        with pytest.raises(ValueError, match="y0 must be a finite point"):
            integrate(rc_super, y0, dt=1.0, t_end=10.0)

    def test_adaptive_bitwise_reproducible(self, rc_super):
        a = integrate(rc_super, (1e-3, 2e-3), dt=0.5, t_end=50.0)
        b = integrate(rc_super, (1e-3, 2e-3), dt=0.5, t_end=50.0)
        assert np.array_equal(a.states, b.states)

    def test_terminal_residual_bound(self, rc_super):
        eqs = equilibria(rc_super)
        traj = integrate(rc_super, (3e-3, -1e-3), dt=1.0, t_end=5000.0,
                         equilibria_list=eqs)
        assert traj.terminal_equilibrium is not None
        speed = np.linalg.norm(reduced_vector_field(traj.states[-1], rc_super))
        assert speed <= 1e-8 * max(rc_super.scale, 1.0)


class TestBasinSurvey:
    def test_axis_rays_reach_axis_states(self, rc_super):
        survey = basin_survey(rc_super, radius=0.01, n_rays=8, t_end=4000.0)
        angles = sorted(survey)
        by_angle = {round(a, 6): e for a, e in survey.items()}
        assert by_angle[0.0].pattern_class == "rectangle"
        assert by_angle[round(math.pi / 2, 6)].pattern_class == "roll"
        assert by_angle[round(math.pi, 6)].pattern_class == "rectangle"
        assert all(e is not None for e in survey.values())

    def test_off_axis_rays_reach_sinks(self, rc_super):
        survey = basin_survey(rc_super, radius=0.01, n_rays=16, t_end=4000.0)
        for theta, e in survey.items():
            assert e is not None, f"ray {theta} unresolved"
            if abs(math.sin(2 * theta)) > 1e-12:
                assert e.stability == "stable-node"
                assert e.pattern_class in ("roll", "rectangle")

    def test_subcritical_rays_to_origin(self, bench):
        _, _, _, rc = bench
        rc = replace(rc, sigma1=-0.1, sigma2=-0.1)
        survey = basin_survey(rc, radius=0.05, n_rays=8, t_end=3000.0)
        assert all(e is not None and e.pattern_class == "trivial" for e in survey.values())


class TestAttractorGraph:
    def test_degenerate_ring(self, rc_super):
        desc = attractor_graph(rc_super)
        assert desc.is_circle
        conns = set(desc.connections)
        assert len(conns) == 8
        for i, j in conns:
            assert desc.equilibria[i].pattern_class == "hexagon"
            assert desc.equilibria[j].pattern_class in ("roll", "rectangle")
        # each saddle connects to one roll and one rectangle
        for i in {i for i, _ in conns}:
            targets = {desc.equilibria[j].pattern_class for a, j in conns if a == i}
            assert targets == {"roll", "rectangle"}

    def test_override_swaps_roles(self, rc_super):
        rc_flip = rc_super.with_cubic_override(-3.0, -0.2)
        desc = attractor_graph(rc_flip)
        assert desc.is_circle
        for i, j in set(desc.connections):
            assert desc.equilibria[i].pattern_class in ("roll", "rectangle")
            assert desc.equilibria[j].pattern_class == "hexagon"

    def test_perturbed_regime_ring(self):
        g0 = make_critical_geometry(1, 1, ModelParams(8, 1, 18))
        g = DomainGeometry(g0.ell1 * 1.01, g0.ell2 * 1.01)
        crit = lambda_critical(ModelParams(8, 1, 18), g)
        rc = cubic_coefficients(ModelParams(8, 1, crit.lambda_c * 1.01), g, 1, 1)
        desc = attractor_graph(rc)
        assert desc.is_circle
        sinks = {desc.equilibria[j].pattern_class for _, j in desc.connections}
        assert sinks == {"roll", "mixed"}


class TestMonotoneCapture:
    def test_annulus_starts_are_captured(self, rc_super):
        # every start in the annulus converges, and once a trajectory enters
        # the 0.1-amplitude neighborhood of its limit it never leaves it
        eqs = equilibria(rc_super)
        A = _amplitude_scale(rc_super)
        rng = np.random.default_rng(123)
        for _ in range(64):
            r = float(rng.uniform(0.1 * A, 3.0 * A))
            th = float(rng.uniform(0.0, 2.0 * math.pi))
            traj = integrate(rc_super, (r * math.cos(th), r * math.sin(th)),
                             dt=1.0, t_end=8000.0, equilibria_list=eqs)
            assert traj.terminal_equilibrium is not None
            target = np.array(traj.terminal_equilibrium.y)
            d = np.linalg.norm(traj.states - target[None, :], axis=1)
            inside = np.nonzero(d <= 0.1 * A)[0]
            assert len(inside) > 0
            assert np.all(d[inside[0]:] <= 0.1 * A * 1.05)


class TestScanOracle:
    """``integrate`` scans each chunk as arrays; the per-sample reference
    with the same ``solve_ivp`` calls must give the same bytes."""

    @staticmethod
    def assert_same(rc, y0, dt, t_end, equilibria_list=None):
        traj = integrate(rc, y0, dt, t_end, equilibria_list=equilibria_list)
        times, states, terminal, diverged = integrate_by_sample(rc, y0, dt, t_end, equilibria_list)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert traj.states.shape == states.shape
        assert traj.diverged is diverged
        if terminal is None:
            assert traj.terminal_equilibrium is None
        else:
            assert np.array(traj.terminal_equilibrium.y).tobytes() == np.array(terminal.y).tobytes()
        return traj

    @pytest.mark.parametrize("dt", [1.0, 0.25])
    def test_basin_rays(self, rc_super, dt):
        eqs = equilibria(rc_super)
        for j in range(16):
            theta = 2.0 * math.pi * j / 16
            traj = self.assert_same(rc_super, (0.01 * math.cos(theta), 0.01 * math.sin(theta)),
                                    dt, 4000.0, eqs)
            assert traj.terminal_equilibrium is not None

    def test_saddle_shot_with_custom_targets(self, rc_super):
        eqs = equilibria(rc_super)
        saddle = next(e for e in eqs if e.pattern_class == "hexagon")
        eigvals, eigvecs = np.linalg.eig(vector_field_jacobian(saddle.y, rc_super))
        v = eigvecs[:, int(np.argmax(eigvals.real))].real
        targets = [e for e in eqs if e is not saddle]
        for sgn in (1.0, -1.0):
            y0 = np.array(saddle.y) + sgn * SHOOT_OFFSET * v / np.linalg.norm(v)
            traj = self.assert_same(rc_super, y0, 1.0, SHOOT_T_END, targets)
            assert traj.terminal_equilibrium.pattern_class in ("roll", "rectangle")

    def test_fixed_origin(self, rc_super):
        traj = self.assert_same(rc_super, (0.0, 0.0), 1.0, 20.0)
        assert traj.terminal_equilibrium.pattern_class == "trivial"

    def test_subcritical_decay(self, bench):
        rc = replace(bench[3], sigma1=-0.2, sigma2=-0.2)
        traj = self.assert_same(rc, (1e-3, -2e-3), 1.0, 2000.0)
        assert traj.terminal_equilibrium.pattern_class == "trivial"

    def test_norm_bound_crossed_at_a_sample(self, rc_super):
        # weak positive cubics let the growth cross DEFAULT_BLOWUP smoothly
        traj = self.assert_same(rc_super.with_cubic_override(1e-10, 1e-10), (0.01, 0.01), 1.0, 1000.0)
        assert traj.diverged and np.linalg.norm(traj.states[-1]) > 1e3

    def test_divergence(self, rc_super):
        traj = self.assert_same(rc_super.with_cubic_override(5.0, 5.0), (0.5, 0.5), 0.05, 100.0)
        assert traj.diverged


class TestSolverOracle:
    """``_rk45`` takes scipy's RK45 steps in-package; every solver call of an
    ``integrate`` must give ``solve_ivp``'s bytes with as many field
    evaluations."""

    @staticmethod
    def solver_calls(monkeypatch, rc, y0, dt, t_end, equilibria_list=None):
        """Run ``integrate`` and return each ``_rk45`` call's arguments,
        result and number of field evaluations."""
        calls, count = [], [0]
        field, rk45 = planar.reduced_vector_field, planar._rk45

        def counting_field(y, rc_):
            count[0] += 1
            return field(y, rc_)

        def recording_rk45(rc_, t0, t1, y, t_eval):
            before = count[0]
            out = rk45(rc_, t0, t1, y, t_eval)
            calls.append(((rc_, t0, t1, y, t_eval.copy()), out, count[0] - before))
            return out

        monkeypatch.setattr(planar, "reduced_vector_field", counting_field)
        monkeypatch.setattr(planar, "_rk45", recording_rk45)
        integrate(rc, y0, dt, t_end, equilibria_list=equilibria_list)
        monkeypatch.undo()
        assert calls
        return calls

    @staticmethod
    def assert_same(args, out, n_field):
        times, states, success, y_last = out
        ref_times, ref_states, ref_success, ref_last, nfev = rk45_by_scipy(*args)
        assert times.tobytes() == ref_times.tobytes()
        assert states.shape == ref_states.shape
        assert states.tobytes() == ref_states.tobytes()
        assert success is ref_success
        assert np.array(y_last).tobytes() == ref_last.tobytes()
        assert n_field == nfev

    @pytest.mark.parametrize("dt", [1.0, 0.25])
    def test_basin_rays(self, monkeypatch, rc_super, dt):
        eqs = equilibria(rc_super)
        for j in range(16):
            theta = 2.0 * math.pi * j / 16
            y0 = (0.01 * math.cos(theta), 0.01 * math.sin(theta))
            for call in self.solver_calls(monkeypatch, rc_super, y0, dt, 4000.0, eqs):
                self.assert_same(*call)

    def test_saddle_shots(self, monkeypatch, rc_super):
        eqs = equilibria(rc_super)
        saddle = next(e for e in eqs if e.pattern_class == "hexagon")
        eigvals, eigvecs = np.linalg.eig(vector_field_jacobian(saddle.y, rc_super))
        v = eigvecs[:, int(np.argmax(eigvals.real))].real
        targets = [e for e in eqs if e is not saddle]
        for sgn in (1.0, -1.0):
            y0 = np.array(saddle.y) + sgn * SHOOT_OFFSET * v / np.linalg.norm(v)
            for call in self.solver_calls(monkeypatch, rc_super, y0, 1.0, SHOOT_T_END, targets):
                self.assert_same(*call)

    def test_single_sample_chunk(self, monkeypatch, rc_super):
        # t_end below dt: the one chunk samples only t_end
        calls = self.solver_calls(monkeypatch, rc_super, (1e-3, 2e-3), 1.0, 0.5)
        assert len(calls) == 1 and calls[0][0][4].tolist() == [0.5]
        self.assert_same(*calls[0])

    @pytest.mark.parametrize("dt", [0.05, 1.0])
    def test_step_collapse(self, monkeypatch, dt):
        calls = self.solver_calls(monkeypatch, positive_cubic_rectangle(), (0.5, 0.5), dt, 100.0)
        assert calls[-1][1][2] is False
        for call in calls:
            self.assert_same(*call)


class TestTableau:
    """``planar`` holds the Dormand-Prince pair as literals so that it does
    not import scipy; they must stay the bytes scipy's RK45 steps with."""

    @pytest.mark.parametrize("name", ["A", "B", "E", "P"])
    def test_arrays_are_scipys(self, name):
        ours, ref = getattr(planar, "_" + name), getattr(RK45, name)
        assert ours.dtype == ref.dtype and ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()

    def test_stage_count_and_order_exponent(self):
        assert planar._N_STAGES == RK45.n_stages
        assert planar._ORDER_EXPONENT == 1 / (RK45.error_estimator_order + 1)

    def test_step_collapse_message(self, monkeypatch, rc_super):
        # a collapse near the origin is no blow-up: integrate raises with
        # scipy's own message
        def collapsing(rc, t0, t1, y0, t_eval):
            return np.empty(0), np.empty((0, 2)), False, np.array(y0)

        monkeypatch.setattr(planar, "_rk45", collapsing)
        with pytest.raises(RuntimeError) as info:
            integrate(rc_super, (1e-3, 2e-3), 1.0, 10.0)
        assert str(info.value) == f"planar integration failed: {RK45.TOO_SMALL_STEP}"
