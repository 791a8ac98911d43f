import math
from dataclasses import replace

import numpy as np
import pytest

from chemopattern import (
    DomainGeometry,
    ModelParams,
    RectangleRootError,
    ResonanceError,
    b_coefficients,
    classify_equilibrium,
    cubic_coefficients,
    equilibria,
    kappa_coefficients,
    lambda_critical,
    make_critical_geometry,
    quadratic_coefficient,
    reduced_vector_field,
    slaved_modes,
    transition_type,
)
from chemopattern.reduction import (
    hexagon_ordinates,
    mixed_ordinate,
    vector_field_jacobian,
    _numeric_points,
)

from oracles import cos_mode, count_root_clusters, grad_dot, trapezoid_grid, trapezoid_inner


class TestQuadraticCoefficient:
    def test_vanishes_at_reference_point(self):
        assert quadratic_coefficient(ModelParams(8, 1, 18), 0.5) == 0.0

    def test_zero_coupling_limit(self):
        assert quadratic_coefficient(ModelParams(8, 1, 1e-300), 0.7) \
            == pytest.approx(-0.75, rel=1e-12)

    def test_supercritical_value(self):
        assert quadratic_coefficient(ModelParams(8, 1, 19), 0.5) \
            == pytest.approx(1.0 / 24.0, rel=1e-12)


class TestBCoefficients:
    def test_reference_point(self):
        a, b1, b2 = b_coefficients(ModelParams(8, 1, 18), 0.5)
        assert a == pytest.approx(0.0, abs=1e-14)
        assert b1 == pytest.approx(-1.5, rel=1e-14)
        assert b2 == pytest.approx(-0.9, rel=1e-14)

    def test_zero_coupling_limit(self):
        a, b1, b2 = b_coefficients(ModelParams(8, 2.0, 1e-300), 0.9)
        assert a == pytest.approx(-12.0, rel=1e-14)
        assert b1 == pytest.approx(-3.0, rel=1e-14)
        assert b2 == pytest.approx(-3.0, rel=1e-14)

    def test_unit_wavenumber(self):
        a, b1, b2 = b_coefficients(ModelParams(8, 1, 18), 1.0)
        assert a == pytest.approx(3.0, rel=1e-14)
        assert b1 == pytest.approx(-1.95, rel=1e-13)
        assert b2 == pytest.approx(-0.9375, rel=1e-13)

    def test_two_printed_forms_agree_randomized(self):
        # the second printed form of b1/b2, written in terms of a_c, guards the
        # transcription of the first
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = ModelParams(float(rng.uniform(0.1, 20)), float(rng.uniform(0.1, 5)),
                            float(rng.uniform(0.1, 40)))
            r = float(rng.uniform(0.05, 5.0))
            a_c, b1, b2 = b_coefficients(p, r)
            b1_alt = 0.25 * (a_c - 6.0 * p.lam * r**2 / ((1.0 + r) * (1.0 + 4.0 * r)))
            b2_alt = 0.25 * (a_c - 3.0 * p.lam * r**2 / ((1.0 + r) * (1.0 + 3.0 * r)))
            scale = max(1.0, abs(a_c), abs(b1), abs(b2))
            assert abs(b1 - b1_alt) <= 1e-12 * scale
            assert abs(b2 - b2_alt) <= 1e-12 * scale


class TestKappaCoefficients:
    def test_reference_point(self, bench):
        p, g, _, _ = bench
        k1, k2 = kappa_coefficients(p, g, 1, 1)
        assert k1 == pytest.approx(3.0 / 8.0, rel=1e-13)
        assert k2 == pytest.approx(15.0 / 32.0, rel=1e-13)

    def test_zero_coupling_sign(self):
        # at vanishing coupling the gains are 6*alpha/(8*sigma_slaved) with
        # decaying slaved modes, hence negative
        p = ModelParams(8.0, 1.0, 1e-12)
        g = make_critical_geometry(1, 1, p)
        k1, k2 = kappa_coefficients(p, g, 1, 1)
        assert k1 == pytest.approx(-1.0 / 24.0, rel=1e-10)
        assert k2 == pytest.approx(6.0 / (8.0 * (-14.0)), rel=1e-10)

    def test_resonant_denominator_raises(self):
        # lambda = 27 makes the (2m, 2n) harmonic neutral (sigma(2) = 0)
        p = ModelParams(8.0, 1.0, 27.0)
        g = make_critical_geometry(1, 1, p)
        with pytest.raises(ResonanceError):
            kappa_coefficients(p, g, 1, 1)


class TestCubicCoefficients:
    def test_both_conventions_at_reference_point(self, bench):
        _, _, _, rc = bench
        assert rc.frak_b1_formula == pytest.approx(-3.0, rel=1e-13)
        assert rc.frak_b2_formula == pytest.approx(-39.0 / 16.0, rel=1e-13)
        assert rc.frak_b1_paper == pytest.approx(-21.0 / 80.0 * 8.0, rel=1e-15)
        assert rc.frak_b2_paper == pytest.approx(-57.0 / 128.0 * 8.0, rel=1e-15)
        assert rc.convention == "formula"
        assert rc.frak_b1 == rc.frak_b1_formula

    def test_convention_switch(self, bench):
        _, _, _, rc = bench
        rc_p = rc.with_convention("paper")
        assert rc_p.frak_b1 == rc.frak_b1_paper
        assert rc_p.with_convention("formula").frak_b1 == rc.frak_b1_formula

    def test_b1_minus_2b2_positive_for_both(self, bench):
        _, _, _, rc = bench
        assert rc.frak_b1_formula - 2 * rc.frak_b2_formula > 0
        assert rc.frak_b1_paper - 2 * rc.frak_b2_paper > 0

    def test_rejects_non_resonant_geometry(self):
        p = ModelParams(8, 1, 18)
        with pytest.raises(ValueError, match="resonant"):
            cubic_coefficients(p, DomainGeometry(5.0, 5.0), 1, 1)


class TestSlavedModes:
    def test_zero(self, bench):
        _, _, _, rc = bench
        assert all(v == 0.0 for v in slaved_modes(0.0, 0.0, rc).values())

    def test_first_mode_only(self, bench):
        _, _, _, rc = bench
        z = slaved_modes(1.0, 0.0, rc)
        assert z[(0, 0)] == pytest.approx(-0.375)
        assert z[(2, 0)] == pytest.approx(15.0 / 32.0, rel=1e-13)
        assert z[(1, 3)] == 0.0
        assert z[(0, 4)] == 0.0
        assert z[(2, 2)] == pytest.approx(3.0 / 8.0, rel=1e-13)

    def test_second_mode_only(self, bench):
        _, _, _, rc = bench
        z = slaved_modes(0.0, 1.0, rc)
        assert z[(0, 0)] == pytest.approx(-0.75)
        assert z[(0, 4)] == pytest.approx(0.75, rel=1e-13)
        assert z[(2, 0)] == z[(1, 3)] == z[(2, 2)] == 0.0


def _supercritical(rc, sig=1.0):
    return replace(rc, sigma1=sig, sigma2=sig)


class TestReducedVectorField:
    def test_origin_is_stationary(self, bench):
        _, _, _, rc = bench
        assert np.all(reduced_vector_field((0.0, 0.0), rc) == 0.0)

    def test_roll_points_are_stationary(self, bench):
        _, _, _, rc = bench
        rc = _supercritical(rc)
        ys = math.sqrt(-rc.sigma2 / rc.frak_b1)
        for s in (+1, -1):
            assert np.linalg.norm(reduced_vector_field((0.0, s * ys), rc)) <= 1e-14

    def test_ratio_locked_points_are_stationary(self, bench):
        _, _, _, rc = bench
        rc = _supercritical(rc)
        t = math.sqrt(-rc.sigma1 / (rc.frak_b1 + 4.0 * rc.frak_b2))
        for s1 in (+1, -1):
            for s2 in (+1, -1):
                y = (2.0 * s1 * t * s2, s2 * t)
                assert np.linalg.norm(reduced_vector_field(y, rc)) <= 1e-13

    def test_equivariance(self, bench):
        # y1 -> -y1 is a symmetry for every coefficient set (it realizes a
        # domain reflection); y2 -> -y2 only once the quadratic term vanishes
        _, _, _, rc0 = bench
        rng = np.random.default_rng(5)
        for _ in range(50):
            rc = replace(rc0, sigma1=float(rng.normal()), sigma2=float(rng.normal()),
                         frak_a=float(rng.normal()), frak_b1=float(rng.normal()),
                         frak_b2=float(rng.normal()))
            y = rng.normal(size=2)
            f = reduced_vector_field(y, rc)
            f_m = reduced_vector_field((-y[0], y[1]), rc)
            assert np.allclose([f_m[0], f_m[1]], [-f[0], f[1]], atol=1e-14)
            rc_deg = replace(rc, frak_a=0.0)
            f = reduced_vector_field(y, rc_deg)
            f_m = reduced_vector_field((y[0], -y[1]), rc_deg)
            assert np.allclose([f_m[0], f_m[1]], [f[0], -f[1]], atol=1e-14)

    def test_jacobian_matches_finite_differences(self, bench):
        _, _, _, rc0 = bench
        rng = np.random.default_rng(9)
        for _ in range(20):
            rc = replace(rc0, sigma1=float(rng.normal()), sigma2=float(rng.normal()),
                         frak_a=float(rng.normal()))
            y = rng.normal(size=2)
            J = vector_field_jacobian(y, rc)
            h = 1e-6
            for j in range(2):
                dy = np.zeros(2)
                dy[j] = h
                col = (reduced_vector_field(y + dy, rc) - reduced_vector_field(y - dy, rc)) / (2 * h)
                assert np.allclose(J[:, j], col, rtol=1e-6, atol=1e-7)


class TestEquilibria:
    def test_subcritical_only_trivial(self, bench):
        _, _, _, rc = bench
        rc = replace(rc, sigma1=-0.3, sigma2=-0.3)
        eqs = equilibria(rc)
        assert len(eqs) == 1
        assert eqs[0].pattern_class == "trivial"
        assert eqs[0].stability == "stable-node"

    def test_degenerate_catalogue(self, bench):
        _, _, _, rc = bench
        rc = _supercritical(rc)
        eqs = equilibria(rc)
        classes = sorted(e.pattern_class for e in eqs)
        assert classes.count("roll") == 2
        assert classes.count("rectangle") == 2
        assert classes.count("hexagon") == 4
        assert classes.count("trivial") == 1
        ys = math.sqrt(-rc.sigma2 / rc.frak_b1)
        yr = math.sqrt(-4.0 * rc.sigma1 / (rc.frak_b1 + 2.0 * rc.frak_b2))
        t = math.sqrt(-rc.sigma1 / (rc.frak_b1 + 4.0 * rc.frak_b2))
        for e in eqs:
            if e.pattern_class == "roll":
                assert abs(e.y[1]) == pytest.approx(ys, rel=1e-12)
            elif e.pattern_class == "rectangle":
                assert abs(e.y[0]) == pytest.approx(yr, rel=1e-12)
            elif e.pattern_class == "hexagon":
                assert abs(e.y[1]) == pytest.approx(t, rel=1e-12)
                assert abs(e.y[0]) == pytest.approx(2.0 * t, rel=1e-12)

    def test_closed_forms_match_newton(self, bench):
        _, _, _, rc = bench
        rc = _supercritical(rc, 0.7)
        closed = {e.y for e in equilibria(rc) if e.pattern_class != "trivial"}
        numeric = _numeric_points(rc)
        assert len(numeric) == len(closed)
        for y in numeric:
            assert min(math.hypot(y[0] - c[0], y[1] - c[1]) for c in closed) <= 1e-8

    def test_residuals_below_tolerance(self, bench):
        _, _, _, rc = bench
        rc = _supercritical(rc, 0.3)
        for e in equilibria(rc):
            assert np.linalg.norm(reduced_vector_field(e.y, rc)) <= 1e-10 * rc.scale

    def test_nondegenerate_catalogue_and_grid_scan(self, bench):
        p, g, crit, _ = bench
        # 1% perturbations of length and coupling switch the quadratic term on
        g2 = DomainGeometry(g.ell1 * 1.01, g.ell2 * 1.01)
        crit2 = lambda_critical(ModelParams(8, 1, 18), g2)
        p2 = ModelParams(8.0, 1.0, crit2.lambda_c * 1.01)
        rc = cubic_coefficients(p2, g2, 1, 1)
        assert rc.frak_a != 0.0
        eqs = equilibria(rc)
        classes = sorted(e.pattern_class for e in eqs if e.pattern_class != "trivial")
        assert len(classes) == 8
        assert classes.count("rectangle") == 0
        assert classes.count("mixed") == 2
        assert classes.count("hexagon") == 4
        assert classes.count("roll") == 2

        def field(y):
            return reduced_vector_field(y, rc)

        amp = max(max(abs(e.y[0]), abs(e.y[1])) for e in eqs)
        assert count_root_clusters(field, box=1.6 * amp) == 8

        # the closed-form mixed ordinate is a valid diagnostic
        ym = mixed_ordinate(rc)
        mixed = [e for e in eqs if e.pattern_class == "mixed"]
        for e in mixed:
            assert e.y[1] == pytest.approx(ym, rel=1e-9)
        # ratio-locked ordinates match the quadratic roots
        hexs = sorted({round(e.y[1], 12) for e in eqs if e.pattern_class == "hexagon"})
        assert hexs == sorted(round(v, 12) for v in hexagon_ordinates(rc))


class TestClassifyEquilibrium:
    def test_trivial_subcritical(self, bench):
        _, _, _, rc = bench
        rc = replace(rc, sigma1=-1.0, sigma2=-1.0)
        e = classify_equilibrium((0.0, 0.0), rc)
        assert e.pattern_class == "trivial"
        assert e.stability == "stable-node"

    def test_rejects_non_equilibrium(self, bench):
        _, _, _, rc = bench
        with pytest.raises(ValueError, match="not an equilibrium"):
            classify_equilibrium((0.05, 0.05), _supercritical(rc))

    def test_determinant_sign_rules(self, bench):
        # rolls/rectangles: sgn(det J) = sgn(b1 - 2 b2); ratio-locked points:
        # the opposite sign -- for both coefficient conventions
        _, _, _, rc0 = bench
        for conv in ("formula", "paper"):
            rc = _supercritical(rc0.with_convention(conv))
            want = math.copysign(1.0, rc.frak_b1 - 2.0 * rc.frak_b2)
            for e in equilibria(rc):
                if e.pattern_class == "trivial":
                    continue
                det = e.jacobian_eigenvalues[0] * e.jacobian_eigenvalues[1]
                tr = e.jacobian_eigenvalues[0] + e.jacobian_eigenvalues[1]
                assert tr < 0
                if e.pattern_class in ("roll", "rectangle"):
                    assert math.copysign(1.0, det) == want
                else:
                    assert math.copysign(1.0, det) == -want

    def test_stability_census_both_conventions(self, bench):
        # with b1 - 2 b2 > 0 the sign rules make the ratio-locked points
        # saddles and the single-mode points attracting, for either convention
        _, _, _, rc0 = bench
        for conv in ("formula", "paper"):
            rc = _supercritical(rc0.with_convention(conv))
            census = {(e.pattern_class, e.stability) for e in equilibria(rc)}
            assert ("hexagon", "saddle") in census
            assert ("roll", "stable-node") in census
            assert ("rectangle", "stable-node") in census

    def test_marginal_flag_at_threshold(self, bench):
        _, _, _, rc = bench
        rc = replace(rc, sigma1=0.0, sigma2=0.0)
        e = classify_equilibrium((0.0, 0.0), rc)
        assert e.marginal


class TestTransitionType:
    def test_reference_coefficients(self, bench):
        _, _, _, rc = bench
        assert transition_type(_supercritical(rc, 0.1)) == "type-1"
        assert transition_type(rc.with_convention("paper")) == "type-1"

    def test_destabilizing_cubic_not_classified(self, bench):
        _, _, _, rc = bench
        assert transition_type(rc.with_cubic_override(1.0, -2.0)) == "not-classified"

    def test_perturbed_point_still_type_1(self):
        g0 = make_critical_geometry(1, 1, ModelParams(8, 1, 18))
        g = DomainGeometry(g0.ell1 * 1.01, g0.ell2 * 1.01)
        crit = lambda_critical(ModelParams(8, 1, 18), g)
        rc = cubic_coefficients(ModelParams(8, 1, crit.lambda_c * 1.01), g, 1, 1)
        assert transition_type(rc) == "type-1"

    def test_large_quadratic_term_not_classified(self, bench):
        _, _, _, rc = bench
        rc = replace(_supercritical(rc, 0.01), frak_a=1.0)
        assert transition_type(rc) == "not-classified"


class TestBracketAudit:
    """Quadrature audit of the hard-coded inner-product table.

    The reduction's coefficients encode projection ratios
    <e_a e_b, e_k>/<e_k, e_k> and their gradient analogues.  Both the raw
    equal-bracket relations and the projection values used in the assembly
    are reproduced here with a 512-panel trapezoid rule.
    """

    @pytest.mark.parametrize("m,n,mu,alpha", [(1, 1, 8.0, 1.0), (2, 1, 3.0, 0.7)])
    def test_bracket_relations(self, m, n, mu, alpha):
        g = make_critical_geometry(m, n, ModelParams(mu, alpha, 1.0))
        x, y = trapezoid_grid(g, 512)

        def E(k1, k2):
            return cos_mode(k1, k2, g, x, y)

        def B(a, b, k):
            return trapezoid_inner(E(*a) * E(*b), E(*k), x, y)

        def G(a, b, k):
            return trapezoid_inner(grad_dot(a, b, g, x, y), E(*k), x, y)

        I1, I2 = (m, n), (0, 2 * n)
        area = g.ell1 * g.ell2
        tol = 1e-6 * area

        # equal-bracket relations among the mixed-harmonic interactions
        assert abs(B(I1, (2 * m, 0), I1) - B(I1, (m, 3 * n), I2)) <= tol
        assert abs(B(I1, (2 * m, 0), I1) - B(I2, (m, 3 * n), I1)) <= tol
        assert abs(G(I1, (2 * m, 0), I1) - G(I1, (m, 3 * n), I2)) <= tol * 10
        assert abs(G(I1, (2 * m, 0), I1) - G(I2, (m, 3 * n), I1)) <= tol * 10
        # the double-harmonic brackets carry a factor 4
        assert abs(B(I2, (0, 4 * n), I2) - 4.0 * B(I1, (2 * m, 2 * n), I1)) <= tol
        assert abs(G(I2, (0, 4 * n), I2) - 4.0 * G(I1, (2 * m, 2 * n), I1)) <= tol * 10
        # mean-mode normalization: <e_I2 e_00, e_I2> = 2 <e_I1 e_00, e_I1>
        assert abs(B(I2, (0, 0), I2) - 2.0 * B(I1, (0, 0), I1)) <= tol

    def test_projection_table(self, bench):
        p, g, _, _ = bench
        m, n = 1, 1
        rho = 0.5
        x, y = trapezoid_grid(g, 512)

        def E(k1, k2):
            return cos_mode(k1, k2, g, x, y)

        def proj_b(a, b, k):
            base = E(*k)
            return trapezoid_inner(E(*a) * E(*b), base, x, y) / \
                trapezoid_inner(base, base, x, y)

        def proj_g(a, b, k):
            base = E(*k)
            return trapezoid_inner(grad_dot(a, b, g, x, y), base, x, y) / \
                trapezoid_inner(base, base, x, y)

        I1, I2 = (m, n), (0, 2 * n)
        table = [
            (proj_b(I1, (0, 0), I1), 1.0),
            (proj_b(I1, (2 * m, 0), I1), 0.5),
            (proj_g(I1, (2 * m, 0), I1), 0.75 * rho),
            (proj_b(I1, (2 * m, 2 * n), I1), 0.25),
            (proj_g(I1, (2 * m, 2 * n), I1), 0.5 * rho),
            (proj_b(I2, (m, 3 * n), I1), 0.5),
            (proj_g(I2, (m, 3 * n), I1), 0.75 * rho),
            (proj_b(I2, (0, 0), I2), 1.0),
            (proj_b(I2, (0, 4 * n), I2), 0.5),
            (proj_g(I2, (0, 4 * n), I2), rho),
            (proj_b(I1, (m, 3 * n), I2), 0.25),
            (proj_g(I1, (m, 3 * n), I2), 0.375 * rho),
            (proj_b(I1, I2, I1), 0.5),
            (proj_g(I1, I2, I1), 0.25 * rho),
            (proj_b(I1, I1, I2), 0.25),
            (proj_g(I1, I1, I2), 0.125 * rho),
        ]
        for got, want in table:
            assert got == pytest.approx(want, abs=1e-6)
