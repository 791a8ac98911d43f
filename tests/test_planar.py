import math
from dataclasses import replace

import numpy as np
import pytest

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
from chemopattern.core import DomainGeometry
from chemopattern.planar import Trajectory
from chemopattern.reduction import _amplitude_scale


@pytest.fixture(scope="module")
def rc_super(bench):
    _, _, _, rc = bench
    return replace(rc, sigma1=0.05, sigma2=0.05)


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
