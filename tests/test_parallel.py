"""The ordered parallel map and its callers: every result is the same on one
worker as on several, no worker outlives a call, and worker errors surface."""

import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from chemopattern import attractor_graph, basin_survey, parallel, planar, verify
from chemopattern.cli import main
from chemopattern.config import parse_config
from chemopattern.parallel import map_in_order


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert multiprocessing.active_children() == []


def set_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: n)


def on_each(monkeypatch, fn, counts=(1, 2)):
    """``fn()`` once per forced worker count."""
    results = []
    for n in counts:
        set_workers(monkeypatch, n)
        results.append(fn())
        assert multiprocessing.active_children() == []
    return results


@pytest.fixture(scope="module")
def rc_super(bench):
    _, _, _, rc = bench
    return replace(rc, sigma1=0.05, sigma2=0.05)


class TestMapInOrder:
    @pytest.mark.parametrize("n_items", [0, 1, 2, 7])
    def test_results_in_input_order(self, monkeypatch, n_items):
        set_workers(monkeypatch, 3)
        out = map_in_order(lambda x: (x, os.getpid()), range(n_items))
        assert [x for x, _pid in out] == list(range(n_items))
        # one item runs in the caller; with more than one worker, every item
        # runs in a forked worker and none in the caller
        assert [pid == os.getpid() for _x, pid in out] == [n_items == 1] * n_items

    @pytest.mark.parametrize("case", ["one item", "one cpu", "no fork"])
    def test_in_process_paths_fork_nothing(self, monkeypatch, case):
        set_workers(monkeypatch, 1 if case == "one cpu" else 2)
        items = [3] if case == "one item" else [3, 4, 5]
        if case == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert map_in_order(lambda x: (x * x, os.getpid()), items) \
            == [(x * x, os.getpid()) for x in items]

    def test_nested_map_runs_in_its_worker(self, monkeypatch):
        set_workers(monkeypatch, 2)
        out = map_in_order(lambda x: map_in_order(lambda y: (x * y, os.getpid()), range(3)),
                           range(4))
        assert [[v for v, _pid in row] for row in out] == [[x * y for y in range(3)]
                                                          for x in range(4)]
        assert all(len({pid for _v, pid in row}) == 1 for row in out)

    def test_a_free_worker_takes_the_next_item(self, monkeypatch, tmp_path):
        # item 0 waits (at most 10 s) for a file that item 2 writes, so it
        # sees the file only if the worker that ran item 1 goes on to item 2
        set_workers(monkeypatch, 2)
        marker = tmp_path / "item 2 ran"

        def run(x):
            if x == 2:
                marker.touch()
            deadline = time.monotonic() + 10
            while x == 0 and not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return marker.exists()

        assert map_in_order(run, range(3))[0]

    def test_worker_error_surfaces(self, monkeypatch):
        set_workers(monkeypatch, 2)
        parent = os.getpid()

        def failing(x):
            if os.getpid() != parent:
                raise RuntimeError("planar integration failed: in a worker")
            return x

        with pytest.raises(RuntimeError, match="in a worker"):
            map_in_order(failing, range(4))


class TestPlanarCallers:
    def test_basin_survey(self, monkeypatch, rc_super):
        one, two = on_each(monkeypatch, lambda: basin_survey(rc_super, 0.01, 16, t_end=4000.0))
        assert list(one) == list(two)
        assert [(e.y, e.pattern_class) for e in one.values()] \
            == [(e.y, e.pattern_class) for e in two.values()]
        assert all(e is not None for e in two.values())

    @pytest.mark.parametrize("short_shots", [False, True])
    def test_attractor_graph(self, monkeypatch, rc_super, short_shots):
        if short_shots:
            # shots leaving towards negative y1 have no targets and end
            # unresolved, so notes and connections interleave
            real = planar._Lanes

            def short(rc, starts, dt, t_end, targets, samples):
                return real(rc, starts, dt, t_end,
                            [[] if y0[0] < 0 else q for y0, q in zip(starts, targets)], samples)

            monkeypatch.setattr(planar, "_Lanes", short)
        one, two = on_each(monkeypatch, lambda: attractor_graph(rc_super))
        assert (one.connections, one.notes, one.is_circle) \
            == (two.connections, two.notes, two.is_circle)
        assert [e.y for e in one.equilibria] == [e.y for e in two.equilibria]
        if short_shots:
            assert one.connections and any("unresolved" in s for s in one.notes)
        else:
            assert one.is_circle and len(one.connections) == 8


#: theorem1 without its PDE stage, with short arbitration and slaving runs
THEOREM1_SHORT = ("[experiment]\nkind = verify-theorem1\n[verify]\nskip_pde = true\nn_rays = 16\n"
                  "sigma_list = 0.2;0.3;0.4\nsigma_list_hex = 0.2;0.3;0.4\nfit_dt = 0.1\n"
                  "slaving_t_end = 60\nslaving_n1 = 32\nslaving_n2 = 32\nslaving_dt = 0.05\n")

#: the same with a short PDE stage, whose run draws its initial data from the seed
THEOREM1_PDE = THEOREM1_SHORT.replace("[verify]\nskip_pde = true\n",
                                      "seed = 3\n[verify]\npde_t_end = 40\npde_dt = 0.05\n")


def run_cli(kind, text, path):
    path.mkdir()
    (path / "in.cfg").write_text(text)
    code = main([kind, "--config", str(path / "in.cfg"), "--out", str(path / "out")])
    return code, {p.name: p.read_bytes() for p in sorted((path / "out").iterdir())}


class TestExperimentFiles:
    @pytest.mark.parametrize("kind, text", [
        ("ode", "[experiment]\nkind = ode\n[model]\nlambda_factor = 1.02\n"
                "[ode]\nn_rays = 16\nt_end = 2000\n"),
        ("verify-theorem2", "[experiment]\nkind = verify-theorem2\nseed = 1\n"),
        ("verify-theorem1", THEOREM1_SHORT),
        ("verify-theorem1", THEOREM1_PDE),
        ("sweep", "[experiment]\nkind = sweep\nseed = 5\n"
                  "[sweep]\nlambda_factors = 1.02;-1\ngeometry_factors = 1.0;1.01\n"
                  "t_end = 30\ndt = 0.05\n"),
    ])
    def test_files_do_not_depend_on_workers(self, monkeypatch, tmp_path, capsys, kind, text):
        one, two = on_each(monkeypatch, lambda: run_cli(kind, text, tmp_path / str(
            parallel._cpu_count())))
        assert one == two
        code, files = one
        assert code in (0, 1) and files
        if kind == "sweep":
            rows = files["sweep_atlas.tsv"].decode().splitlines()[1:]
            assert [r.split("\t")[:2] for r in rows] == [["1", "1.02"], ["1", "-1"],
                                                         ["1.01", "1.02"], ["1.01", "-1"]]
            assert [r.split("\t")[-1].split(":")[0] for r in rows] == ["ok", "error"] * 2
        if kind == "verify-theorem1":
            # the arbitration stage ran both sigma lists to the end
            assert b"hexagon-branch arbitration" in files["verify_theorem1_report.tsv"]
            assert (b"simulation fingerprint" in files["verify_theorem1_report.tsv"]) \
                == (text == THEOREM1_PDE)

    def test_worker_error_is_the_stage_failure_row(self, monkeypatch, tmp_path):
        set_workers(monkeypatch, 2)
        parent, real = os.getpid(), verify.simulate

        def simulate(sim_cfg):
            if os.getpid() != parent:
                raise RuntimeError("simulation failed: in a worker")
            return real(sim_cfg)

        monkeypatch.setattr(verify, "simulate", simulate)
        cfg = parse_config(THEOREM1_SHORT)
        cfg.set("experiment", "out", str(tmp_path))
        rep = verify.run_verify_theorem1(cfg)
        row, = [c for c in rep.checks if c.name == "stage: coefficient arbitration"]
        assert (row.observed, row.passed) == ("RuntimeError: simulation failed: in a worker", False)
        assert (tmp_path / "verify_theorem1_report.tsv").read_text() == rep.to_tsv()

    def test_failed_run_fails_only_its_stage(self, monkeypatch, tmp_path):
        set_workers(monkeypatch, 2)
        cfg = parse_config(THEOREM1_PDE)
        cfg.set("experiment", "out", str(tmp_path))
        clean = verify.run_verify_theorem1(cfg).checks
        parent, real = os.getpid(), verify.simulate

        def simulate(sim_cfg):
            # the fingerprint run is the one run from random initial data
            if os.getpid() != parent and sim_cfg.ic.kind == "random":
                raise RuntimeError("simulation failed: the fingerprint run")
            return real(sim_cfg)

        monkeypatch.setattr(verify, "simulate", simulate)
        failed = verify.run_verify_theorem1(cfg).checks
        assert clean[-2].name == "simulation fingerprint is hexagon (as stated)"
        assert clean[-1].name.startswith("amplitude match to nearest equilibrium")
        assert (failed[-1].name, failed[-1].observed, failed[-1].passed) \
            == ("stage: simulation fingerprint",
                "RuntimeError: simulation failed: the fingerprint run", False)
        # the arbitration and slaving rows, and all before them, are the unpatched run's
        assert failed[:-1] == clean[:-2]
        assert any(c.name == "hexagon-branch arbitration" for c in failed)
        assert any(c.name == "slaving gain kappa2" for c in failed)
