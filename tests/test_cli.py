import os
import subprocess
import sys

import numpy as np
import pytest

from chemopattern.cli import main
from chemopattern.config import EXPERIMENT_KINDS, parse_config, serialize_config

RUN = [sys.executable, "-m", "chemopattern.cli"]


def write(path, text):
    path.write_text(text)
    return str(path)


LINEAR_CFG = """
[experiment]
kind = linear

[geometry]
k_max = 6

[model]
mu = 8
alpha = 1
"""

SIM_CFG = """
[experiment]
kind = simulate
seed = 3

[model]
lambda_factor = 1.02

[simulation]
n1 = 32
n2 = 32
dt = 0.05
t_end = 40
record_interval = 2
snapshot_times = 0
"""


class TestCliBasics:
    def test_linear_writes_outputs(self, tmp_path):
        cfg = write(tmp_path / "lin.cfg", LINEAR_CFG)
        rc = main(["linear", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        critical = (tmp_path / "out" / "linear_critical.tsv").read_text()
        assert "lambda_c\t18" in critical
        assert (tmp_path / "out" / "linear_sigma.tsv").exists()

    def test_dump_config_roundtrips(self, tmp_path, capsys):
        cfg = write(tmp_path / "lin.cfg", LINEAR_CFG)
        rc = main(["linear", "--config", cfg, "--dump-config"])
        assert rc == 0
        dumped = capsys.readouterr().out
        assert "kind = linear" in dumped
        assert "k_max = 6" in dumped

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_dumped_config_parses_again(self, tmp_path, capsys, kind):
        cfg = write(tmp_path / "k.cfg", f"[experiment]\nkind = {kind}\nseed = 5\n"
                    "[geometry]\nm = 2\nk_max = 12\n")
        assert main([kind, "--config", cfg, "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        assert serialize_config(parse_config(dumped)) == dumped
        assert "k_max = 12" in dumped

    def test_kind_mismatch_fails(self, tmp_path, capsys):
        cfg = write(tmp_path / "lin.cfg", LINEAR_CFG)
        rc = main(["reduce", "--config", cfg])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["linear", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_config_error_reports_line(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", "[experiment]\nkind = linear\n[model]\nmew = 1\n")
        rc = main(["linear", "--config", cfg])
        assert rc == 2
        assert "line 4" in capsys.readouterr().err

    def test_non_coprime_modes_are_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "mn.cfg", "[experiment]\nkind = linear\n[geometry]\nm = 2\nn = 2\n")
        assert main(["linear", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line 4: [geometry] (m, n) = (2, 2) must be coprime" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ode_range_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "ode.cfg", "[experiment]\nkind = ode\n[ode]\ndt = 0\n")
        assert main(["ode", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "line 4: [ode] dt must be positive, got 0.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, entry, message", [
        ("simulate", "[simulation]\nt_end = inf", "line 5: [simulation] t_end must be positive, got inf"),
        ("ode", "[ode]\ny0_1 = nan", "line 5: [ode] y0_1 must be finite, got nan"),
        ("reduce", "[model]\nlambda = inf", "line 5: [model] lambda must be positive, got inf"),
        ("linear", "[geometry]\nell2_factor = inf",
         "line 5: [geometry] ell2_factor must be positive, got inf"),
        ("simulate", "[simulation]\nsteady_window = nan",
         "line 5: [simulation] steady_window must be positive, got nan"),
        ("linear", "[linear]\nlambda_factors = 1;nan",
         "line 5: [linear] lambda_factors must be positive, got nan")],
        ids=["simulate", "ode", "reduce", "linear", "simulate-steady_window",
             "linear-lambda_factors"])
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys, kind, entry, message):
        cfg = write(tmp_path / "nf.cfg", f"[experiment]\nkind = {kind}\nseed = 1\n{entry}\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, section", [("simulate", "simulation"), ("sweep", "sweep")])
    def test_grid_range_is_a_config_error(self, tmp_path, capsys, kind, section):
        cfg = write(tmp_path / "grid.cfg", f"[experiment]\nkind = {kind}\nseed = 1\n"
                                           f"[{section}]\nn1 = 16\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"line 5: [{section}] n1 must be a power of two >= 32, got 16" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["40,1", "-1,1"])
    def test_seed_mode_outside_grid_is_a_config_error(self, tmp_path, capsys, mode):
        cfg = write(tmp_path / "ic.cfg", "[experiment]\nkind = simulate\n[simulation]\nn1 = 32\n"
                                         f"n2 = 32\nic_kind = modes\nic_modes = {mode}:0.001\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"line 7: [simulation] ic_modes entry {mode} lies outside the 32x32 grid" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("amp", ["nan", "inf", "-inf"])
    def test_non_finite_seed_amplitude_is_a_config_error(self, tmp_path, capsys, amp):
        cfg = write(tmp_path / "ic.cfg", "[experiment]\nkind = simulate\n[simulation]\nn1 = 32\n"
                                         f"n2 = 32\nic_kind = modes\nic_modes = 0,1:0.001;1,1:{amp}\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"line 7: [simulation] ic_modes entry 1,1 has a non-finite amplitude {amp}" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_k_max_below_the_minimizer_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "k.cfg", "[experiment]\nkind = linear\n[geometry]\nk_max = 1\n")
        assert main(["linear", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k_max" in err

    @pytest.mark.parametrize("kind", ["reduce", "ode", "verify-theorem1"])
    def test_non_resonant_geometry_is_a_config_error(self, tmp_path, capsys, kind):
        cfg = write(tmp_path / "g.cfg", f"[experiment]\nkind = {kind}\nseed = 1\n"
                    "[geometry]\nell1 = 4\nell2 = 5\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "not a resonant rectangle" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["simulate", "simulate-full"])
    def test_blow_up_is_an_error_not_a_traceback(self, tmp_path, capsys, kind):
        cfg = write(tmp_path / "blow.cfg", f"[experiment]\nkind = {kind}\nseed = 3\n"
                    "[model]\nlambda_factor = 3\n[simulation]\nn1 = 32\nn2 = 32\n"
                    "dt = 0.5\nt_end = 40\nic_amplitude = 0.5\n")
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: simulation blew up at t = 1\n"

    @pytest.mark.parametrize("kind, time", [("simulate", "1.5"), ("simulate-full", "2")])
    def test_blow_up_between_records_prints_no_warnings(self, tmp_path, kind, time):
        # the state overflows between two records; numpy's warnings on the
        # way there would precede the one error line
        cfg = write(tmp_path / "blow.cfg", f"[experiment]\nkind = {kind}\nseed = 3\n"
                    "[model]\nlambda_factor = 3\n[simulation]\nn1 = 32\nn2 = 32\n"
                    "dt = 0.5\nt_end = 40\nic_amplitude = 0.5\nrecord_interval = 2\n")
        proc = subprocess.run(RUN + [kind, "--config", cfg, "--out", str(tmp_path / "o")],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == f"error: simulation blew up at t = {time}\n"

    def test_convention_override(self, tmp_path):
        cfg = write(tmp_path / "red.cfg",
                    "[experiment]\nkind = reduce\n[model]\nlambda_factor = 1.02\n")
        rc = main(["reduce", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--coefficient-convention", "paper"])
        assert rc == 0
        text = (tmp_path / "o" / "reduce_coefficients.tsv").read_text()
        assert "convention\tpaper" in text
        assert "b1_active\t-2.1" in text


class TestDeterministicOutputs:
    def test_simulate_outputs_byte_stable(self, tmp_path):
        cfg = write(tmp_path / "sim.cfg", SIM_CFG)
        for d in ("a", "b"):
            rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / d)])
            assert rc == 0
        for name in ("series.tsv", "summary.tsv", "snapshot_t0.txt", "snapshot_final.txt"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write(tmp_path / "sim.cfg", SIM_CFG)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "4"])
        assert (tmp_path / "a" / "series.tsv").read_bytes() \
            != (tmp_path / "b" / "series.tsv").read_bytes()

    def test_seed_flag_supplies_a_missing_seed(self, tmp_path):
        sweep = ("[sweep]\nlambda_factors = 1.02\ngeometry_factors = 1.0\n"
                 "t_end = 30\ndt = 0.05\n")
        flagged = write(tmp_path / "flag.cfg", "[experiment]\nkind = sweep\n" + sweep)
        seeded = write(tmp_path / "seed.cfg", "[experiment]\nkind = sweep\nseed = 5\n" + sweep)
        assert main(["sweep", "--config", flagged, "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
        assert main(["sweep", "--config", seeded, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "sweep_atlas.tsv").read_bytes() \
            == (tmp_path / "b" / "sweep_atlas.tsv").read_bytes()

    @pytest.mark.parametrize("seed_line, flags", [("seed = -2\n", []), ("", ["--seed", "-2"])])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, seed_line, flags):
        cfg = write(tmp_path / "neg.cfg", "[experiment]\nkind = sweep\n" + seed_line)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")] + flags) == 2
        assert "[experiment] seed must be >= 0, got -2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_byte_stable_and_empty_grid(self, tmp_path):
        sweep = ("[experiment]\nkind = sweep\nseed = 5\n"
                 "[sweep]\nlambda_factors = 1.02\ngeometry_factors = 1.0\n"
                 "t_end = 30\ndt = 0.05\n")
        cfg = write(tmp_path / "sw.cfg", sweep)
        for d in ("a", "b"):
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / d)]) == 0
        assert (tmp_path / "a" / "sweep_atlas.tsv").read_bytes() \
            == (tmp_path / "b" / "sweep_atlas.tsv").read_bytes()
        empty = ("[experiment]\nkind = sweep\nseed = 5\n"
                 "[sweep]\nlambda_factors =\ngeometry_factors = 1.0\n")
        cfg2 = write(tmp_path / "sw2.cfg", empty)
        assert main(["sweep", "--config", cfg2, "--out", str(tmp_path / "c")]) == 0
        lines = (tmp_path / "c" / "sweep_atlas.tsv").read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("geometry_factor")


class TestOdeCli:
    def test_ode_at_non_dyadic_dt(self, tmp_path):
        cfg = write(tmp_path / "ode.cfg", "[experiment]\nkind = ode\n[model]\nlambda_factor = 1.02\n"
                    "[ode]\ndt = 0.1\nt_end = 300\nn_rays = 4\n")
        assert main(["ode", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "ode_trajectory.tsv").read_text().strip().splitlines()
        times = np.array([float(r.split("\t")[0]) for r in rows[1:]])
        assert times[0] == 0.0 and times[-1] <= 300.0
        assert np.allclose(np.diff(times), 0.1, rtol=0.0, atol=1e-9)


    @pytest.mark.parametrize("model, note", [
        ("", "note\tsigma1 = 0, sigma2 = 0 <= 0: no nontrivial equilibria exist at this coupling"),
        ("[model]\nlambda_factor = 1.02\n", None)], ids=["critical", "supercritical"])
    def test_attractor_notes_when_sigma_is_not_positive(self, tmp_path, model, note):
        cfg = write(tmp_path / "ode.cfg", "[experiment]\nkind = ode\n" + model +
                    "[ode]\nt_end = 50\nn_rays = 4\n")
        assert main(["ode", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "ode_attractor.tsv").read_text().splitlines()
        sigma_notes = [r for r in rows if r.startswith("note\tsigma")]
        assert sigma_notes == ([note] if note else [])


class TestVerifyCli:
    def test_verify_theorem2_reports_and_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path / "v2.cfg", "[experiment]\nkind = verify-theorem2\nseed = 1\n")
        rc = main(["verify-theorem2", "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        # structural checks pass; the stated stability association does not,
        # so the overall verdict (and exit code) reflect the discrepancy
        assert "no pure-rectangle equilibrium" in out
        assert rc == 1
        tsv = (tmp_path / "o" / "verify_theorem2_report.tsv").read_text()
        assert tsv.splitlines()[0] == "check\texpected\tobserved\ttolerance\tpass"
        assert "overall" in tsv.splitlines()[-1]

    def test_verify_theorem2_needs_no_seed(self, tmp_path):
        cfg = write(tmp_path / "v2.cfg", "[experiment]\nkind = verify-theorem2\n")
        reports = []
        for i, flags in enumerate([[], ["--seed", "7"]]):
            out = tmp_path / f"o{i}"
            assert main(["verify-theorem2", "--config", cfg, "--out", str(out)] + flags) == 1
            reports.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(reports[0]) == 2 and reports[0] == reports[1]

    def test_entry_point_runs(self, tmp_path):
        cfg = write(tmp_path / "lin.cfg", LINEAR_CFG)
        proc = subprocess.run(RUN + ["linear", "--config", cfg, "--out", str(tmp_path / "o")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout


class TestImportGraph:
    """No kind loads scipy: the package needs only numpy and the standard
    library at run time."""

    @staticmethod
    def run_fresh(code: str, tmp_path) -> list[str]:
        """Run ``code`` in a fresh interpreter that imports this package;
        returns the scipy modules it had loaded at the end."""
        import chemopattern
        src = os.path.dirname(os.path.dirname(os.path.abspath(chemopattern.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        script = ("import sys\nimport chemopattern\nfrom chemopattern import cli\n" + code +
                  "\nprint(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    def test_linear_and_reduce_load_no_scipy(self, tmp_path):
        write(tmp_path / "lin.cfg", LINEAR_CFG)
        write(tmp_path / "red.cfg", "[experiment]\nkind = reduce\n[model]\nlambda_factor = 1.02\n")
        loaded = self.run_fresh(
            "assert cli.main(['linear', '--config', 'lin.cfg', '--out', 'o']) == 0\n"
            "assert cli.main(['reduce', '--config', 'red.cfg', '--out', 'o']) == 0", tmp_path)
        assert (tmp_path / "o" / "reduce_coefficients.tsv").exists()
        assert not {"scipy", "scipy.fft", "scipy.integrate"} & set(loaded), loaded

    def test_ode_and_verify_theorem2_load_no_scipy(self, tmp_path):
        # every trajectory, survey and ring of these kinds is stepped in-package
        write(tmp_path / "ode.cfg", "[experiment]\nkind = ode\n[model]\nlambda_factor = 1.02\n"
              "[ode]\nt_end = 300\nn_rays = 16\n")
        write(tmp_path / "v2.cfg", "[experiment]\nkind = verify-theorem2\n")
        loaded = self.run_fresh(
            "assert cli.main(['ode', '--config', 'ode.cfg', '--out', 'o']) == 0\n"
            "assert cli.main(['verify-theorem2', '--config', 'v2.cfg', '--out', 'v']) == 1",
            tmp_path)
        assert (tmp_path / "o" / "ode_attractor.tsv").read_text().startswith("is_circle\ttrue")
        assert (tmp_path / "v" / "verify_theorem2_report.tsv").exists()
        assert not {"scipy", "scipy.fft", "scipy.integrate"} & set(loaded), loaded

    def test_simulations_and_sweep_load_no_scipy(self, tmp_path):
        # grid snapshots go through the same dense transforms as the steps
        cfg = write(tmp_path / "sim.cfg", SIM_CFG.replace("t_end = 40", "t_end = 2"))
        write(tmp_path / "full.cfg", SIM_CFG.replace("t_end = 40", "t_end = 2")
              .replace("kind = simulate", "kind = simulate-full"))
        write(tmp_path / "sweep.cfg", "[experiment]\nkind = sweep\nseed = 5\n[sweep]\n"
              "lambda_factors = 0.98;1.02\ngeometry_factors = 0.99;1.01\nt_end = 2\n")
        loaded = self.run_fresh(
            "assert cli.main(['simulate', '--config', 'sim.cfg', '--out', 'fresh']) == 0\n"
            "assert cli.main(['simulate-full', '--config', 'full.cfg', '--out', 'full']) == 0\n"
            "assert cli.main(['sweep', '--config', 'sweep.cfg', '--out', 'sweep']) == 0",
            tmp_path)
        assert loaded == []
        assert (tmp_path / "full" / "snapshot_t0.txt").exists()
        assert (tmp_path / "sweep" / "sweep_atlas.tsv").exists()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "here")]) == 0
        assert (tmp_path / "fresh" / "snapshot_t0.txt").read_bytes() \
            == (tmp_path / "here" / "snapshot_t0.txt").read_bytes()

    def test_no_module_imports_scipy(self):
        import ast
        import pathlib

        import chemopattern
        paths = sorted(pathlib.Path(chemopattern.__file__).parent.glob("*.py"))
        assert len(paths) > 10
        found = []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}: {m}" for m in names if m.split(".")[0] == "scipy"]
        assert found == []
