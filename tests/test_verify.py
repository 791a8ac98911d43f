from dataclasses import replace

import pytest

from chemopattern.config import parse_config
from chemopattern.core import DomainGeometry, ModelParams, lambda_critical, make_critical_geometry
from chemopattern.reduction import equilibria
from chemopattern.verify import (
    _sign_rules_hold,
    resolve_setup,
    run_linear,
    run_reduce,
    run_verify_theorem1,
    run_verify_theorem2,
)


def cfg_text(kind, extra=""):
    return f"[experiment]\nkind = {kind}\nseed = 2\n{extra}"


class TestResolveSetup:
    def test_defaults_to_critical_geometry_and_coupling(self):
        cfg = parse_config(cfg_text("linear"))
        p, g, crit, m, n = resolve_setup(cfg)
        assert (m, n) == (1, 1)
        assert p.lam == pytest.approx(crit.lambda_c, rel=1e-14)

    def test_lambda_factor(self):
        cfg = parse_config(cfg_text("linear", "[model]\nlambda_factor = 1.05\n"))
        p, g, crit, _, _ = resolve_setup(cfg)
        assert p.lam == pytest.approx(1.05 * crit.lambda_c, rel=1e-14)

    def test_physical_block(self):
        extra = ("[physical]\nd1 = 8\nd2 = 1\nchi = 1\nr1 = 18\nr2 = 1\n"
                 "alpha1 = 1\nalpha2 = 1\n")
        cfg = parse_config(cfg_text("linear", extra))
        p, _, crit, _, _ = resolve_setup(cfg)
        assert (p.mu, p.alpha, p.lam) == (8.0, 1.0, 18.0)

    def test_explicit_geometry(self):
        cfg = parse_config(cfg_text("linear", "[geometry]\nell1 = 4.0\nell2 = 7.0\n"))
        _, g, _, _, _ = resolve_setup(cfg)
        assert (g.ell1, g.ell2) == (4.0, 7.0)

    def test_overrides_give_the_perturbed_working_point_bitwise(self):
        # the perturbed working point, written out without resolve_setup
        cfg = parse_config(cfg_text("verify-theorem2"))
        p, g, crit, m, n = resolve_setup(cfg, 1.01, 1.01)
        base = make_critical_geometry(1, 1, ModelParams(8.0, 1.0, 1.0))
        s = 1.0 + 0.01
        g_want = DomainGeometry(base.ell1 * s, base.ell2 * s)
        crit_want = lambda_critical(ModelParams(8.0, 1.0, 1.0), g_want, 32)
        lam_want = crit_want.lambda_c * (1.0 + 0.01)
        assert (g.ell1, g.ell2) == (g_want.ell1, g_want.ell2)
        assert crit.lambda_c == crit_want.lambda_c
        assert (p.mu, p.alpha, p.lam, m, n) == (8.0, 1.0, lam_want, 1, 1)

    def test_overrides_replace_the_configured_factors_only(self):
        cfg = parse_config(cfg_text(
            "linear", "[model]\nlambda_factor = 1.5\n[geometry]\nell2_factor = 2\n"))
        p, g, crit, _, _ = resolve_setup(cfg, 1.0, 1.0)
        assert p.lam == crit.lambda_c
        g0 = make_critical_geometry(1, 1, ModelParams(8.0, 1.0, 1.0))
        assert (g.ell1, g.ell2) == (g0.ell1, g0.ell2)
        # an explicit coupling is not a factor and stays
        cfg = parse_config(cfg_text("linear", "[model]\nlambda = 18.5\n"))
        assert resolve_setup(cfg, 1.0, 1.02)[0].lam == 18.5


class TestVerifyTheorem1Paths:
    def test_violated_diffusion_hypothesis_short_circuits(self, tmp_path):
        cfg = parse_config(cfg_text("verify-theorem1", "[model]\nmu = 7\nalpha = 1\n"))
        cfg.set("experiment", "out", str(tmp_path))
        rep = run_verify_theorem1(cfg)
        assert not rep.overall
        assert len(rep.checks) == 1
        assert "mu = 8*alpha" in rep.checks[0].name
        assert "violated" in rep.checks[0].note

    def test_subcritical_coupling_skips_supercritical_checks(self, tmp_path):
        cfg = parse_config(cfg_text(
            "verify-theorem1", "[verify]\nlambda_factor = 0.98\nskip_pde = true\n"))
        cfg.set("experiment", "out", str(tmp_path))
        rep = run_verify_theorem1(cfg)
        names = [c.name for c in rep.checks]
        assert "subcritical: all growth rates negative" in names
        assert not any("equilibria" in n for n in names)
        assert any("skipped" in p for p in rep.provenance)
        # the analytic checks all pass on this path
        assert rep.overall

    def test_physical_block_sets_the_working_coupling(self, tmp_path):
        # r1*chi = 17.64 below lambda_c = 18: the suite must run at that
        # coupling, not at [verify] lambda_factor times lambda_c
        extra = ("[physical]\nd1 = 8\nd2 = 1\nchi = 1\nr1 = 17.64\nr2 = 1\n"
                 "alpha1 = 1\nalpha2 = 1\n"
                 "[verify]\nsigma_list =\nsigma_list_hex =\nskip_pde = true\n"
                 "slaving_t_end = 10\nslaving_n1 = 32\nslaving_n2 = 32\nslaving_dt = 0.05\n")
        cfg = parse_config(cfg_text("verify-theorem1", extra))
        cfg.set("experiment", "out", str(tmp_path))
        rep = run_verify_theorem1(cfg)
        names = [c.name for c in rep.checks]
        assert "coupling at or below critical: supercritical checks skipped by design" \
            in rep.provenance
        assert not any("equilibria" in n for n in names)
        assert rep.overall

    def test_stage_failures_are_recorded_not_raised(self, tmp_path):
        # a one-entry sigma list is too short for the saturation fit; the
        # stage must record the failure and the run must continue
        cfg = parse_config(cfg_text(
            "verify-theorem1",
            "[verify]\nsigma_list = 0.05\nsigma_list_hex = 0.05\nskip_pde = true\n"
            "slaving_t_end = 60\nslaving_n1 = 32\nslaving_n2 = 32\nslaving_dt = 0.05\n"))
        cfg.set("experiment", "out", str(tmp_path))
        rep = run_verify_theorem1(cfg)
        stage_checks = [c for c in rep.checks if c.name.startswith("stage:")]
        assert stage_checks and not stage_checks[0].passed
        assert (tmp_path / "verify_theorem1_report.tsv").exists()

    def test_no_off_axis_ray_fails_the_basin_row(self, tmp_path):
        # with four rays every ray lies on an axis, so the off-axis claim
        # has nothing to hold on and must not pass
        cfg = parse_config(cfg_text(
            "verify-theorem1",
            "[verify]\nn_rays = 4\nsigma_list =\nsigma_list_hex =\nskip_pde = true\n"
            "slaving_t_end = 10\nslaving_n1 = 32\nslaving_n2 = 32\nslaving_dt = 0.05\n"))
        cfg.set("experiment", "out", str(tmp_path))
        rep = run_verify_theorem1(cfg)
        row, = [c for c in rep.checks if c.name.startswith("basin survey")]
        assert not row.passed
        assert row.note == "no off-axis ray among 4: every ray lies on an axis"

    def test_report_files_match_report(self, tmp_path):
        cfg = parse_config(cfg_text(
            "verify-theorem1", "[verify]\nlambda_factor = 0.98\nskip_pde = true\n"))
        cfg.set("experiment", "out", str(tmp_path))
        rep = run_verify_theorem1(cfg)
        tsv = (tmp_path / "verify_theorem1_report.tsv").read_text()
        assert tsv == rep.to_tsv()
        txt = (tmp_path / "verify_theorem1_report.txt").read_text()
        assert txt == rep.to_table()
        assert tsv.splitlines()[0] == "check\texpected\tobserved\ttolerance\tpass"


class TestVerifyTheorem2Paths:
    def test_zero_perturbation_degenerates(self, tmp_path):
        cfg = parse_config(cfg_text(
            "verify-theorem2", "[verify]\nell2_perturb = 0\nlambda_perturb = 0\n"))
        cfg.set("experiment", "out", str(tmp_path))
        rep = run_verify_theorem2(cfg)
        by_name = {c.name: c for c in rep.checks}
        # exactly at the degenerate point the quadratic coefficient vanishes
        assert not by_name["quadratic coefficient nonzero"].passed
        assert any("zero perturbation" in p for p in rep.provenance)

    def test_structural_checks_pass(self, tmp_path):
        cfg = parse_config(cfg_text("verify-theorem2"))
        cfg.set("experiment", "out", str(tmp_path))
        rep = run_verify_theorem2(cfg)
        by_name = {c.name: c for c in rep.checks}
        for name in ("no pure-rectangle equilibrium", "nontrivial equilibria",
                     "mixed-pattern equilibria", "ring attractor",
                     "classification flips with the sign of 2*b2-b1"):
            assert by_name[name].passed, name


class TestSignRules:
    @pytest.mark.parametrize("cls, sign_of", [("hexagon", "roll"), ("roll", "hexagon")])
    def test_a_point_with_the_other_class_determinant_sign_violates_them(self, bench, cls,
                                                                         sign_of):
        _, _, _, rc0 = bench
        rc = replace(rc0, sigma1=0.05, sigma2=0.05)
        eqs = list(equilibria(rc))
        assert _sign_rules_hold(rc, eqs)
        donor = next(e for e in eqs if e.pattern_class == sign_of)
        i = next(i for i, e in enumerate(eqs) if e.pattern_class == cls)
        eqs[i] = replace(eqs[i], jacobian_eigenvalues=donor.jacobian_eigenvalues)
        assert not _sign_rules_hold(rc, eqs)


class TestDriverOutputs:
    def test_linear_tables(self, tmp_path):
        cfg = parse_config(cfg_text("linear", "[geometry]\nk_max = 4\n"))
        cfg.set("experiment", "out", str(tmp_path))
        paths = run_linear(cfg)
        sigma_rows = (tmp_path / "linear_sigma.tsv").read_text().strip().splitlines()
        assert sigma_rows[0].startswith("k1\tk2\trho")
        assert len(sigma_rows) == 1 + 5 * 5 - 1  # all modes but (0, 0)

    def test_reduce_carries_both_conventions(self, tmp_path):
        cfg = parse_config(cfg_text("reduce", "[model]\nlambda_factor = 1.02\n"))
        cfg.set("experiment", "out", str(tmp_path))
        run_reduce(cfg)
        text = (tmp_path / "reduce_coefficients.tsv").read_text()
        assert "b1_formula\t-3.2462" in text
        assert "b1_paper\t-2.1" in text
        eq_text = (tmp_path / "reduce_equilibria.tsv").read_text()
        assert eq_text.count("hexagon") == 4
        assert eq_text.count("mixed") == 2
