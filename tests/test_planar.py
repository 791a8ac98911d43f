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
from chemopattern.planar import DEFAULT_BLOWUP, SHOOT_OFFSET, SHOOT_T_END, Trajectory
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("name", ["dt", "t_end"])
    @pytest.mark.parametrize("run", [
        lambda rc, **times: integrate(rc, (1e-3, 2e-3), **{"dt": 1.0, "t_end": 10.0, **times}),
        lambda rc, **times: basin_survey(rc, 0.01, 4, **{"dt": 1.0, "t_end": 10.0, **times}),
    ], ids=["integrate", "basin_survey"])
    def test_rejects_bad_times(self, rc_super, run, name, value):
        with pytest.raises(ValueError, match="dt and t_end must be positive"):
            run(rc_super, **{name: value})

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
        starts = []
        for _ in range(64):
            r = float(rng.uniform(0.1 * A, 3.0 * A))
            th = float(rng.uniform(0.0, 2.0 * math.pi))
            starts.append((r * math.cos(th), r * math.sin(th)))
        for traj in planar._Lanes(rc_super, starts, 1.0, 8000.0, [eqs] * 64).run():
            assert traj.terminal_equilibrium is not None
            target = np.array(traj.terminal_equilibrium.y)
            d = np.linalg.norm(traj.states - target[None, :], axis=1)
            inside = np.nonzero(d <= 0.1 * A)[0]
            assert len(inside) > 0
            assert np.all(d[inside[0]:] <= 0.1 * A * 1.05)


def mixed_batch(rc_super):
    """One batch of lanes that end every way a lane can, on a coefficient set
    with a saturating roll axis and a slowly unbounded rectangle direction:
    eight basin rays (the two on the roll axis are captured by the rolls,
    the rest diverge, across the norm bound at a sample or by step
    collapse), a shot from a roll along its unstable direction with every
    other equilibrium as targets, a start far out that collapses before its
    first sample, and the fixed origin.  Returns ``(rc, starts, targets)``."""
    rc = rc_super.with_cubic_override(-3.0, 1.5 + 1e-8)
    eqs = equilibria(rc)
    roll = next(e for e in eqs if e.pattern_class == "roll")
    rays = [(0.01 * math.cos(2.0 * math.pi * j / 8), 0.01 * math.sin(2.0 * math.pi * j / 8))
            for j in range(8)]
    starts = rays + [np.array(roll.y) + (SHOOT_OFFSET, 0.0), (1e5, 0.0), (0.0, 0.0)]
    targets = [eqs] * 8 + [[e for e in eqs if e is not roll], eqs, eqs]
    return rc, starts, targets


def saddle_shots(rc):
    """The two shots along the unstable direction of the first hexagon
    saddle, and every other equilibrium as their targets."""
    eqs = equilibria(rc)
    saddle = next(e for e in eqs if e.pattern_class == "hexagon")
    eigvals, eigvecs = np.linalg.eig(vector_field_jacobian(saddle.y, rc))
    v = eigvecs[:, int(np.argmax(eigvals.real))].real
    starts = [np.array(saddle.y) + sgn * SHOOT_OFFSET * v / np.linalg.norm(v)
              for sgn in (1.0, -1.0)]
    return starts, [e for e in eqs if e is not saddle]


def basin_rays(n: int) -> list[tuple[float, float]]:
    return [(0.01 * math.cos(2.0 * math.pi * j / n), 0.01 * math.sin(2.0 * math.pi * j / n))
            for j in range(n)]


class TestScanOracle:
    """``integrate`` scans each chunk as arrays; the per-sample reference
    with the same ``solve_ivp`` calls must give the same bytes, for a lane
    alone and for every lane of a batch."""

    @staticmethod
    def assert_same(traj, rc, y0, dt, t_end, equilibria_list=None):
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

    def assert_batch(self, rc, starts, dt, t_end, targets):
        trajs = planar._Lanes(rc, starts, dt, t_end, targets).run()
        assert len(trajs) == len(starts)
        return [self.assert_same(traj, rc, y0, dt, t_end, eqs)
                for traj, y0, eqs in zip(trajs, starts, targets)]

    @pytest.mark.parametrize("dt", [1.0, 0.25])
    def test_basin_rays(self, rc_super, dt):
        eqs = equilibria(rc_super)
        for traj in self.assert_batch(rc_super, basin_rays(16), dt, 4000.0, [eqs] * 16):
            assert traj.terminal_equilibrium is not None

    def test_saddle_shot_with_custom_targets(self, rc_super):
        starts, targets = saddle_shots(rc_super)
        for traj in self.assert_batch(rc_super, starts, 1.0, SHOOT_T_END, [targets] * 2):
            assert traj.terminal_equilibrium.pattern_class in ("roll", "rectangle")

    def test_mixed_batch(self, rc_super):
        rc, starts, targets = mixed_batch(rc_super)
        trajs = planar._Lanes(rc, starts, 1.0, 2000.0, targets).run()
        ends = [None if t.terminal_equilibrium is None else t.terminal_equilibrium.pattern_class
                for t in trajs]
        assert ends == [None, None, "roll", None, None, None, "roll", None, None, None, "trivial"]
        assert all(t.diverged for t, e in zip(trajs, ends) if e is None)
        assert np.linalg.norm(trajs[0].states[-1]) > DEFAULT_BLOWUP  # across the bound at a sample
        assert len(trajs[9].times) == 1  # collapsed before its first sample
        # collapses judged by the solver's last state: before the first
        # sample, or after a last sample within ten amplitude scales
        collapsed = [j for j, t in enumerate(trajs) if len(t.times) == 1 or (
            t.diverged and np.linalg.norm(t.states[-1]) <= 10.0 * _amplitude_scale(rc))]
        assert collapsed == [1, 3, 5, 7, 9]
        for traj, y0, eqs in zip(trajs, starts, targets):
            self.assert_same(traj, rc, y0, 1.0, 2000.0, eqs)

    def test_fixed_origin(self, rc_super):
        traj = self.assert_same(integrate(rc_super, (0.0, 0.0), 1.0, 20.0), rc_super, (0.0, 0.0),
                                1.0, 20.0)
        assert traj.terminal_equilibrium.pattern_class == "trivial"

    def test_subcritical_decay(self, bench):
        rc = replace(bench[3], sigma1=-0.2, sigma2=-0.2)
        traj = self.assert_same(integrate(rc, (1e-3, -2e-3), 1.0, 2000.0), rc, (1e-3, -2e-3),
                                1.0, 2000.0)
        assert traj.terminal_equilibrium.pattern_class == "trivial"

    def test_norm_bound_crossed_at_a_sample(self, rc_super):
        # weak positive cubics let the growth cross DEFAULT_BLOWUP smoothly
        rc = rc_super.with_cubic_override(1e-10, 1e-10)
        traj = self.assert_same(integrate(rc, (0.01, 0.01), 1.0, 1000.0), rc, (0.01, 0.01),
                                1.0, 1000.0)
        assert traj.diverged and np.linalg.norm(traj.states[-1]) > 1e3

    def test_divergence(self, rc_super):
        rc = rc_super.with_cubic_override(5.0, 5.0)
        traj = self.assert_same(integrate(rc, (0.5, 0.5), 0.05, 100.0), rc, (0.5, 0.5), 0.05, 100.0)
        assert traj.diverged


class TestSolverOracle:
    """``_Lanes`` takes scipy's RK45 steps in-package; every chunk of every
    lane must give ``solve_ivp``'s bytes with as many field evaluations."""

    @staticmethod
    def chunks(monkeypatch, run):
        """Call ``run()`` and return every finished chunk of every lane:
        ``((rc, t0, t1, y0, t_eval), (times, states, success, y_last),
        field evaluations)``.  The field evaluations of all chunks must add
        up to the lanes the field was evaluated on."""
        chunks, lanes_evaluated = [], [0]
        field, end_chunk = planar._lane_field, planar._Lanes._end_chunk

        def counting_field(y, rc, out):
            lanes_evaluated[0] += len(y)
            field(y, rc, out)

        def recording_end_chunk(lanes, r, success):
            n, te = lanes.i[r], lanes.te[r]
            chunks.append((
                (lanes.rc, float(lanes.t0[r]), float(lanes.t1[r]), lanes.y0[r].copy(),
                 te[np.isfinite(te)].copy()),
                (te[:n].copy(), lanes.ys[r, :n].copy(), success, lanes.y[r].copy()),
                int(lanes.nfev[r])))
            return end_chunk(lanes, r, success)

        monkeypatch.setattr(planar, "_lane_field", counting_field)
        monkeypatch.setattr(planar._Lanes, "_end_chunk", recording_end_chunk)
        run()
        monkeypatch.undo()
        assert chunks
        assert sum(n_field for _args, _out, n_field in chunks) == lanes_evaluated[0]
        return chunks

    @staticmethod
    def assert_same(args, out, n_field):
        times, states, success, y_last = out
        ref_times, ref_states, ref_success, ref_last, nfev = rk45_by_scipy(*args)
        assert times.tobytes() == ref_times.tobytes()
        assert states.shape == ref_states.shape
        assert states.tobytes() == ref_states.tobytes()
        assert success is ref_success
        assert y_last.tobytes() == ref_last.tobytes()
        assert n_field == nfev

    @pytest.mark.parametrize("dt", [1.0, 0.25])
    def test_basin_rays(self, monkeypatch, rc_super, dt):
        # 16 rays take the array field until fewer than _FEW_LANES are left
        for chunk in self.chunks(monkeypatch, lambda: basin_survey(rc_super, 0.01, 16, 4000.0, dt)):
            self.assert_same(*chunk)

    def test_saddle_shots(self, monkeypatch, rc_super):
        starts, targets = saddle_shots(rc_super)
        run = planar._Lanes(rc_super, starts, 1.0, SHOOT_T_END, [targets] * 2).run
        for chunk in self.chunks(monkeypatch, run):
            self.assert_same(*chunk)

    def test_attractor_graph(self, monkeypatch, rc_super):
        for chunk in self.chunks(monkeypatch, lambda: attractor_graph(rc_super)):
            self.assert_same(*chunk)

    def test_mixed_batch(self, monkeypatch, rc_super):
        rc, starts, targets = mixed_batch(rc_super)
        run = planar._Lanes(rc, starts, 1.0, 2000.0, targets).run
        chunks = self.chunks(monkeypatch, run)
        assert sum(out[2] is False for _args, out, _n in chunks) == 7
        for chunk in chunks:
            self.assert_same(*chunk)

    def test_single_sample_chunk(self, monkeypatch, rc_super):
        # t_end below dt: the one chunk samples only t_end
        chunks = self.chunks(monkeypatch, lambda: integrate(rc_super, (1e-3, 2e-3), 1.0, 0.5))
        assert len(chunks) == 1 and chunks[0][0][4].tolist() == [0.5]
        self.assert_same(*chunks[0])

    @pytest.mark.parametrize("dt", [0.05, 1.0])
    def test_step_collapse(self, monkeypatch, dt):
        chunks = self.chunks(monkeypatch,
                             lambda: integrate(positive_cubic_rectangle(), (0.5, 0.5), dt, 100.0))
        assert chunks[-1][1][2] is False
        for chunk in chunks:
            self.assert_same(*chunk)


class TestBatchEqualsLanesAlone:
    """A lane's bytes do not depend on the lanes stepped beside it: a batch,
    the survey and the graph give what ``integrate`` gives lane by lane."""

    def test_mixed_batch(self, rc_super):
        rc, starts, targets = mixed_batch(rc_super)
        trajs = planar._Lanes(rc, starts, 1.0, 2000.0, targets).run()
        for traj, y0, eqs in zip(trajs, starts, targets):
            alone = integrate(rc, y0, 1.0, 2000.0, equilibria_list=eqs)
            assert traj.times.tobytes() == alone.times.tobytes()
            assert traj.states.tobytes() == alone.states.tobytes()
            assert traj.terminal_equilibrium is alone.terminal_equilibrium
            assert traj.diverged is alone.diverged

    @pytest.mark.parametrize("n_rays", [16, 5])
    def test_basin_survey(self, rc_super, n_rays):
        eqs = equilibria(rc_super)
        survey = basin_survey(rc_super, radius=0.01, n_rays=n_rays, t_end=4000.0)
        assert list(survey) == [2.0 * math.pi * j / n_rays for j in range(n_rays)]
        for e, y0 in zip(survey.values(), basin_rays(n_rays)):
            alone = integrate(rc_super, y0, 1.0, 4000.0, equilibria_list=eqs).terminal_equilibrium
            assert np.array(e.y).tobytes() == np.array(alone.y).tobytes()

    @pytest.mark.parametrize("flip", [False, True])
    def test_attractor_graph(self, rc_super, flip):
        rc = rc_super.with_cubic_override(-3.0, -0.2) if flip else rc_super
        desc = attractor_graph(rc)
        eqs, connections = desc.equilibria, []
        for i, e in enumerate(eqs):
            if e.pattern_class == "trivial" or e.stability != "saddle":
                continue
            eigvals, eigvecs = np.linalg.eig(vector_field_jacobian(e.y, rc))
            v = eigvecs[:, int(np.argmax(eigvals.real))].real
            for sgn in (1.0, -1.0):
                y0 = np.array(e.y) + sgn * SHOOT_OFFSET * v / np.linalg.norm(v)
                end = integrate(rc, y0, 1.0, SHOOT_T_END,
                                equilibria_list=[q for q in eqs if q is not e]).terminal_equilibrium
                connections.append((i, next(j for j, q in enumerate(eqs) if q is end)))
        assert desc.connections == connections
        assert desc.is_circle and not desc.notes


class TestLaneField:
    """The lanes' field is ``reduced_vector_field`` point by point, to the
    bit, on any number of lanes: its squares and cubes are ``pow``'s, which
    numpy's array power does not always give (with SIMD power kernels about
    3% of cubes differ in the last bit)."""

    def test_equals_pointwise_field(self, rc_super):
        rng = np.random.default_rng(18)
        y = rng.normal(size=(2000, 2)) * 10.0 ** rng.uniform(-4, 1, size=(2000, 1))
        ref = np.array([reduced_vector_field(p, rc_super) for p in y])
        powers = np.array([[pow(a, 2), pow(b, 2), pow(a, 3), pow(b, 3)] for a, b in y.tolist()])
        differs = (np.hstack([y ** 2, y ** 3]) != powers).any(axis=1)
        subsets = [y, y[:planar._FEW_LANES], y[:planar._FEW_LANES - 1], y[:1]]
        refs = [ref, ref[:planar._FEW_LANES], ref[:planar._FEW_LANES - 1], ref[:1]]
        if differs.any():
            subsets.append(y[differs])
            refs.append(ref[differs])
        for rows, want in zip(subsets, refs):
            out = np.empty_like(rows)
            planar._lane_field(rows, rc_super, out)
            assert out.tobytes() == want.tobytes()


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
        # scipy's own message.  A field that turns nan after the initial
        # step rejects every attempt until the step size collapses.
        field, calls = planar._lane_field, [0]

        def nan_after_start(y, rc, out):
            calls[0] += 1
            field(y, rc, out)
            if calls[0] > 2:
                out[:] = np.nan

        monkeypatch.setattr(planar, "_lane_field", nan_after_start)
        with pytest.raises(RuntimeError) as info:
            integrate(rc_super, (1e-3, 2e-3), 1.0, 10.0)
        assert str(info.value) == f"planar integration failed: {RK45.TOO_SMALL_STEP}"
