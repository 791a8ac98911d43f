"""The three benchmark workloads.

Each workload is closed loop with one client: operations run one after the
other in this process, each starting when the previous one returns.  Inputs
come only from the workload seed; the package receives the generated inputs.
A workload object builds its inputs in ``__init__``, fills the caches the
timed path uses in ``warm``, and runs its fixed work in ``run``, which times
every operation and checks its output.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
from dataclasses import dataclass, replace

import oracles
from speed import PULSES, since

# criterion-9 shape: balanced point mu = 8*alpha on the (1,1) resonant
# rectangle, 2% above the critical coupling
MU, ALPHA, LAMBDA_FACTOR = 8.0, 1.0, 1.02


@dataclass
class Op:
    """One timed operation and the verdict of its output check."""

    name: str
    seconds: float          # wall time, pulses taken out
    ok: bool
    note: str = ""
    ref_seconds: float = 0.0   # at the reference machine speed (speed.py)
    digest: bytes = b""
    # model time advanced, or 1 per portrait; None for an operation that is
    # not part of the workload's throughput
    work: float | None = None


def _timed(name: str, fn, check) -> Op:
    """Run ``fn``; ``check(result)`` returns (ok, note, digest, work).  An
    exception from the package counts as a failed operation."""
    mark = PULSES.mark()
    try:
        result = fn()
    except Exception as exc:  # a crash is a failed operation, the run goes on
        seconds, ref = since(PULSES, mark)
        return Op(name, seconds, False, f"{type(exc).__name__}: {exc}", ref)
    seconds, ref = since(PULSES, mark)
    try:
        ok, note, digest, work = check(result)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return Op(name, seconds, False, f"check: {type(exc).__name__}: {exc}", ref)
    return Op(name, seconds, ok, note, ref, digest, work if ok or work is None else 0.0)


def _quiet_cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _working_point(cp):
    core = cp["core"]
    base = core.ModelParams(MU, ALPHA, 1.0)
    g = core.make_critical_geometry(1, 1, base)
    crit = core.lambda_critical(base, g)
    return core.ModelParams(MU, ALPHA, LAMBDA_FACTOR * crit.lambda_c), g


class Ensemble32:
    """Scalar-model seed ensemble at criterion-9 shape: 32^2, dt = 0.02,
    random initial data of amplitude 1e-3, steady-state exit."""

    name = "ensemble32"
    work_name, work_unit = "model_time_per_s", "model_time/s"
    members = 2
    min_rounds = 1
    # Members exit at t = 150..415 depending on the seed (rolls early,
    # rectangles late), so the raw ensemble time spreads by a factor of two
    # across seeds; wall_s is scaled to this nominal model time instead.
    nominal_work = 400.0

    def __init__(self, cp, seed: int, out_dir: str, traced: bool = False):
        rng = random.Random(f"{self.name}-{seed}")
        sim, red = cp["simulator"], cp["reduction"]
        self.sim = sim
        p, g = _working_point(cp)
        self.configs = [
            sim.SimConfig(params=p, geometry=g, n1=32, n2=32, dt=0.02, t_end=2000.0,
                          mode_m=1, mode_n=1,
                          ic=sim.InitialCondition(kind="random", seed=rng.randrange(2**31),
                                                  amplitude=1e-3))
            for _ in range(self.members)]
        if traced:
            # a traced run does the round twice; one member keeps it well
            # inside the time limit when both members settle late
            del self.configs[1:]
        # criterion 9's passing sub-check: the terminal amplitudes sit near a
        # nontrivial equilibrium of the reduction at the working coupling
        self.points = [e.y for e in red.equilibria(red.cubic_coefficients(p, g, 1, 1))
                       if e.pattern_class != "trivial"]

    def warm(self) -> None:
        self.sim.simulate(replace(self.configs[0], t_end=0.2))

    def run(self, tag: str) -> list[Op]:
        return [_timed(f"simulate[{i}]", lambda c=c: self.sim.simulate(c), self._check)
                for i, c in enumerate(self.configs)]

    def _check(self, result):
        diag, final = result
        y1, y2 = float(final.coeffs[1, 1]), float(final.coeffs[0, 2])
        miss = oracles.nearest_mismatch(y1, y2, self.points)
        problems = []
        if not diag.steady:
            problems.append("no steady exit")
        if diag.final_fingerprint in ("unresolved", "trivial"):
            problems.append(f"fingerprint {diag.final_fingerprint}")
        if not miss <= 0.15:
            problems.append(f"terminal amplitudes {miss:.3f} from the nearest equilibrium")
        return (not problems, "; ".join(problems), final.coeffs.tobytes(),
                float(diag.times[-1]))


class Cli64:
    """``chemopattern simulate`` and ``simulate-full`` through ``cli.main`` on a
    README-shaped config at 64^2, started near the reduced roll branch and
    stopped at a fixed ``t_end`` below the steady-state window."""

    name = "cli64"
    work_name, work_unit = "model_time_per_s", "model_time/s"
    nominal_work = None
    t_end = 10.0
    record_interval = 1.0
    snapshot_times = (0.0, 5.0, 10.0)
    min_rounds = 3
    kinds = ("simulate", "simulate-full")

    def __init__(self, cp, seed: int, out_dir: str, traced: bool = False):
        rng = random.Random(f"{self.name}-{seed}")
        self.cli = cp["cli"]
        red = cp["reduction"]
        p, g = _working_point(cp)
        rc = red.cubic_coefficients(p, g, 1, 1)
        self.roll = math.sqrt(-rc.sigma2 / rc.frak_b1)
        amp2 = rng.uniform(1.0, 1.1) * self.roll
        amp11, amp20 = rng.uniform(-5e-3, 5e-3), rng.uniform(-5e-3, 5e-3)
        self.out_dir = out_dir
        self.configs = {}
        for kind in self.kinds:
            path = os.path.join(out_dir, f"{kind}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self._config(kind, seed, amp2, amp11, amp20, self.t_end,
                                      self.snapshot_times))
            self.configs[kind] = path
            # the warm-up config differs only in its length
            warm = os.path.join(out_dir, f"{kind}-warm.cfg")
            with open(warm, "w", encoding="utf-8") as fh:
                fh.write(self._config(kind, seed, amp2, amp11, amp20, 0.05, (0.0,)))
            self.configs[kind + "-warm"] = warm

    @staticmethod
    def _config(kind, seed, amp2, amp11, amp20, t_end, snaps) -> str:
        return "\n".join([
            "[experiment]", f"kind = {kind}", f"seed = {seed}", "",
            "[model]", f"mu = {MU!r}", f"alpha = {ALPHA!r}",
            f"lambda_factor = {LAMBDA_FACTOR!r}", "",
            "[simulation]", "n1 = 64", "n2 = 64", "dt = 0.01", f"t_end = {t_end!r}",
            f"record_interval = {Cli64.record_interval!r}", "ic_kind = modes",
            f"ic_modes = 0,2:{amp2!r};1,1:{amp11!r};2,0:{amp20!r}",
            "snapshot_times = " + ";".join(repr(t) for t in snaps), ""])

    def _argv(self, kind: str, cfg_key: str, out: str) -> list[str]:
        return [kind, "--config", self.configs[cfg_key], "--out", out]

    def warm(self) -> None:
        for kind in self.kinds:
            out = os.path.join(self.out_dir, "warm", kind)
            _quiet_cli(self.cli, self._argv(kind, kind + "-warm", out))

    def run(self, tag: str) -> list[Op]:
        ops = []
        for kind in self.kinds:
            out = os.path.join(self.out_dir, tag, kind)
            shutil.rmtree(out, ignore_errors=True)
            ops.append(_timed(kind, lambda k=kind, o=out: _quiet_cli(self.cli, self._argv(k, k, o)),
                              lambda rc, o=out: self._check(rc, o)))
        return ops

    def _check(self, exit_code: int, out: str):
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        names = set(os.listdir(out))
        snaps = [n for n in names if n.startswith("snapshot_t")]
        for need in ("series.tsv", "summary.tsv", "snapshot_final.txt"):
            if need not in names:
                problems.append(f"missing {need}")
        if len(snaps) != len(self.snapshot_times):
            problems.append(f"{len(snaps)} snapshots, want {len(self.snapshot_times)}")
        rows = len(oracles.read_table(os.path.join(out, "series.tsv"))) - 1
        want_rows = int(round(self.t_end / self.record_interval)) + 1
        if rows != want_rows:
            problems.append(f"{rows} series rows, want {want_rows}")
        y2 = float(oracles.summary_value(out, "y2_final"))
        if not abs(abs(y2) - self.roll) <= 0.15 * self.roll:
            problems.append(f"y2_final {y2:.6g} not within 15% of roll amplitude {self.roll:.6g}")
        t_final = float(oracles.summary_value(out, "t_final"))
        return not problems, "; ".join(problems), oracles.dir_digest(out), t_final


class PlanarRing:
    """Phase portraits of the reduced system: coefficients, equilibria, a
    64-ray basin survey and the ring attractor at parameter points drawn from
    the seed, then one ``chemopattern ode`` and one ``verify-theorem2``."""

    name = "planar_ring"
    work_name, work_unit = "portraits_per_s", "1/s"
    nominal_work = None
    # one point per convention/geometry pair, at a sigma near a fixed grid
    # value: a portrait's cost grows like 1/sigma, so a wider draw would make
    # the work per round depend on the seed
    sigmas = (0.035, 0.05, 0.07, 0.09)
    min_rounds = 3

    def __init__(self, cp, seed: int, out_dir: str, traced: bool = False):
        rng = random.Random(f"{self.name}-{seed}")
        core = cp["core"]
        self.red, self.pl, self.cli = cp["reduction"], cp["planar"], cp["cli"]
        base = core.ModelParams(MU, ALPHA, 1.0)
        g0 = core.make_critical_geometry(1, 1, base)
        self.inputs = []
        for j, sig0 in enumerate(self.sigmas):
            convention = ("formula", "paper")[j % 2]
            scale = 1.01 if (j // 2) % 2 else 1.0   # half degenerate, half perturbed
            g = core.DomainGeometry(g0.ell1 * scale, g0.ell2 * scale)
            crit = core.lambda_critical(base, g)
            sig = sig0 * rng.uniform(0.95, 1.05)
            lam = crit.lambda_c + sig * (1.0 + crit.rho_star) / crit.rho_star
            self.inputs.append((core.ModelParams(MU, ALPHA, lam), g, convention))
        self.out_dir = out_dir
        # the ode run's cost depends on the coupling, so only its starting
        # point comes from the seed
        y0 = [rng.choice((-1, 1)) * rng.uniform(5e-4, 2e-3) for _ in range(2)]
        self.configs = {}
        for kind, body in (
                ("ode", ["[experiment]", "kind = ode", "", "[model]", f"mu = {MU!r}",
                         f"alpha = {ALPHA!r}", "lambda_factor = 1.01", "",
                         "[ode]", f"y0_1 = {y0[0]!r}", f"y0_2 = {y0[1]!r}", "n_rays = 16"]),
                ("verify-theorem2", ["[experiment]", "kind = verify-theorem2", f"seed = {seed}",
                                     "", "[model]", f"mu = {MU!r}", f"alpha = {ALPHA!r}"])):
            path = os.path.join(out_dir, f"{kind}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(body) + "\n")
            self.configs[kind] = path

    def warm(self) -> None:
        p, g, convention = self.inputs[0]
        rc = self.red.cubic_coefficients(p, g, 1, 1, convention=convention)
        self.pl.integrate(rc, (1e-3, 1e-3), 1.0, 20.0)

    def _portrait(self, p, g, convention):
        rc = self.red.cubic_coefficients(p, g, 1, 1, convention=convention)
        eqs = self.red.equilibria(rc)
        survey = self.pl.basin_survey(rc, 0.01, 64)
        desc = self.pl.attractor_graph(rc)
        return rc, eqs, survey, desc

    @staticmethod
    def _check_portrait(result):
        rc, eqs, survey, desc = result
        nontrivial = [e for e in eqs if e.pattern_class != "trivial"]
        unresolved = sum(1 for v in survey.values() if v is None)
        problems = []
        if len(nontrivial) != 8:
            problems.append(f"{len(nontrivial)} nontrivial equilibria")
        if not desc.is_circle:
            problems.append("no ring: " + "; ".join(desc.notes))
        if unresolved:
            problems.append(f"{unresolved} unresolved rays")
        if not oracles.sign_rules_hold(rc, eqs):
            problems.append("determinant sign rules violated")
        digest = repr((
            [(e.y, e.pattern_class, e.stability) for e in eqs],
            sorted((theta, None if e is None else e.y) for theta, e in survey.items()),
            sorted(set(desc.connections)), desc.is_circle)).encode()
        return not problems, "; ".join(problems), digest, 1.0

    def _check_ode(self, exit_code: int, out: str):
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        traj = oracles.read_table(os.path.join(out, "ode_trajectory.tsv"))
        basins = oracles.read_table(os.path.join(out, "ode_basins.tsv"))
        graph = oracles.read_table(os.path.join(out, "ode_attractor.tsv"))
        if len(traj) < 3:
            problems.append("trajectory has no steps")
        if len(basins) != 17 or any(r[1] == "unresolved" for r in basins[1:]):
            problems.append("basin survey incomplete or unresolved")
        if graph[0] != ["is_circle", "true"]:
            problems.append("no ring attractor")
        return not problems, "; ".join(problems), oracles.dir_digest(out), None

    def _check_theorem2(self, exit_code: int, out: str):
        # the suite exits 1 by design (its "(as stated)" rows fail); 2 means
        # it could not run
        ok, bad = oracles.structural_rows_pass(os.path.join(out, "verify_theorem2_report.tsv"))
        problems = [] if exit_code in (0, 1) else [f"exit code {exit_code}"]
        if not ok:
            problems.append("structural rows fail: " + ", ".join(bad))
        return not problems, "; ".join(problems), oracles.dir_digest(out), None

    def run(self, tag: str) -> list[Op]:
        ops = [_timed(f"portrait[{j}]", lambda a=a: self._portrait(*a), self._check_portrait)
               for j, a in enumerate(self.inputs)]
        for kind, check in (("ode", self._check_ode), ("verify-theorem2", self._check_theorem2)):
            out = os.path.join(self.out_dir, tag, kind)
            shutil.rmtree(out, ignore_errors=True)
            argv = [kind, "--config", self.configs[kind], "--out", out]
            ops.append(_timed(kind, lambda a=argv: _quiet_cli(self.cli, a),
                              lambda rc, o=out, c=check: c(rc, o)))
        return ops


WORKLOADS = {w.name: w for w in (Ensemble32, Cli64, PlanarRing)}
