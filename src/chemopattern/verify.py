"""Experiment drivers: linear analysis, reduction, planar ODE work, full
simulations, parameter sweeps, and the two end-to-end verification suites.

The verification suites check every claim that can be checked at desk scale.
Checks labeled ``(as stated)`` assert the classically claimed stability
assignment for this transition (hexagonal patterns attracting near the
degenerate point); structural checks (equilibrium counts, Jacobian sign
rules, ring topology, simulation agreement) assert what the mathematics and
the simulation oracle actually give.  The two disagree about which pattern is
stable (see README), so reports keep both visible instead of silently
repairing either side.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import fields as dataclass_fields, replace

from .config import ExperimentConfig
from .core import (
    CriticalData,
    DomainGeometry,
    ModelParams,
    lambda_critical,
    make_critical_geometry,
    nondimensionalize,
    pes_classification,
    rho,
    sigma,
    PhysicalParams,
)
from .fitting import fit_saturation, fit_slaving, branch_steady_amplitude
from .output import fmt, series_text, snapshot_text, trajectory_text, tsv, write_text
from .parallel import map_in_order
from .planar import attractor_graph, basin_survey, integrate
from .reduction import (
    RectangleRootError,
    cubic_coefficients,
    equilibria,
    transition_type,
)
from .reports import VerificationReport
from .simulator import InitialCondition, SimConfig, simulate, simulate_full_system
from .transforms import transform_inverse

#: A fitted coefficient matches a convention's candidate within this relative distance.
ARBITRATION_RTOL = 0.10

#: verify-theorem1's coupling relative to the critical one where none is configured.
THEOREM1_LAMBDA_FACTOR = 1.02

# ----------------------------------------------------------------------------
# configuration resolution
# ----------------------------------------------------------------------------

def resolve_setup(cfg: ExperimentConfig, ell2_factor: float | None = None,
                  lambda_factor: float | None = None,
                  ) -> tuple[ModelParams, DomainGeometry, CriticalData, int, int]:
    """Build (params, geometry, critical data, m, n) from a configuration;
    every experiment kind resolves its working point here.

    The geometry is ``[geometry] ell1``/``ell2``, or else the resonant
    rectangle of (m, n) scaled by ``ell2_factor`` (ratio preserved).  The
    coupling is ``[model] lambda`` or the ``[physical]`` block's, or else
    ``lambda_factor`` times the critical coupling of that geometry.  Either
    factor, when given as an argument, replaces the configured one.
    """
    phys = cfg.data["physical"]
    model = cfg.data["model"]
    geo = cfg.data["geometry"]
    m, n = geo["m"], geo["n"]
    if phys["d1"] is not None:
        p_model = nondimensionalize(PhysicalParams(**{k: float(v) for k, v in phys.items()}))
        mu, alpha, lam_explicit = p_model.mu, p_model.alpha, p_model.lam
    else:
        mu, alpha = model["mu"], model["alpha"]
        lam_explicit = model["lambda"]
    base = ModelParams(mu=mu, alpha=alpha, lam=1.0)  # lam placeholder for geometry
    if geo["ell1"] is not None:
        geometry = DomainGeometry(geo["ell1"], geo["ell2"])
    else:
        g0 = make_critical_geometry(m, n, base)
        s = geo["ell2_factor"] if ell2_factor is None else ell2_factor
        geometry = DomainGeometry(g0.ell1 * s, g0.ell2 * s)
    crit = lambda_critical(base, geometry, geo["k_max"])
    if lambda_factor is None:
        lambda_factor = model["lambda_factor"] if model["lambda_factor"] is not None else 1.0
    lam = lam_explicit if lam_explicit is not None else crit.lambda_c * lambda_factor
    return ModelParams(mu=mu, alpha=alpha, lam=lam), geometry, crit, m, n


def _write(cfg: ExperimentConfig, files: dict[str, str]) -> dict[str, str]:
    """Write each ``name: text`` in order under ``[experiment] out`` (default
    the working directory); returns ``name: path`` in the same order."""
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(cfg.out_dir or ".", name)
        write_text(paths[name], text)
    return paths


def _lambda_for_sigma(crit: CriticalData, sig: float) -> float:
    """Coupling at which the critical modes grow at rate ``sig``."""
    r = crit.rho_star
    return crit.lambda_c + sig * (1.0 + r) / r


# ----------------------------------------------------------------------------
# plain experiment drivers
# ----------------------------------------------------------------------------

def run_linear(cfg: ExperimentConfig) -> dict[str, str]:
    """Critical-coupling search and growth-rate tables; writes two files."""
    p, g, crit, m, n = resolve_setup(cfg)
    k_max = cfg.get("geometry", "k_max")
    crit_rows = [
        ("quantity", "value"),
        ("lambda_c", crit.lambda_c),
        ("critical_modes", _modes_str(crit.critical_modes)),
        ("rho_star", crit.rho_star),
        ("rho_star_continuum", crit.rho_star_continuum),
        ("lambda_c_continuum", crit.lambda_c_continuum),
        ("lambda", p.lam),
    ]

    factors = cfg.get("linear", "lambda_factors")
    rows = [["k1", "k2", "rho"]
            + [c for f in factors for c in (f"sigma@{fmt(f)}x", f"sign@{fmt(f)}x")]]
    for k1 in range(k_max + 1):
        for k2 in range(k_max + 1):
            if k1 == 0 and k2 == 0:
                continue
            r = rho((k1, k2), g)
            row = [k1, k2, r]
            for f in factors:
                pf = ModelParams(p.mu, p.alpha, crit.lambda_c * f)
                s = sigma(r, pf)
                row += [s, "0" if abs(s) <= 1e-10 * max(1.0, pf.lam) else ("+" if s > 0 else "-")]
            rows.append(row)

    return _write(cfg, {"linear_critical.tsv": tsv(crit_rows), "linear_sigma.tsv": tsv(rows)})


def run_reduce(cfg: ExperimentConfig) -> dict[str, str]:
    """Reduced coefficients (both conventions), equilibria, transition verdict."""
    p, g, crit, m, n = resolve_setup(cfg)
    rc = cubic_coefficients(p, g, m, n, convention=cfg.convention)
    coeff_rows = [
        ("quantity", "value"),
        ("sigma1", rc.sigma1), ("sigma2", rc.sigma2), ("a_q", rc.frak_a),
        ("a_c", rc.a_c), ("b1_q", rc.b1_q), ("b2_q", rc.b2_q),
        ("kappa1", rc.kappa1), ("kappa2", rc.kappa2), ("rho_star", rc.rho_star),
        ("b1_formula", rc.frak_b1_formula), ("b2_formula", rc.frak_b2_formula),
        ("b1_paper", rc.frak_b1_paper), ("b2_paper", rc.frak_b2_paper),
        ("b1_active", rc.frak_b1), ("b2_active", rc.frak_b2),
        ("convention", rc.convention), ("transition", transition_type(rc)),
    ]
    eq_rows = [("y1", "y2", "pattern", "stability", "eig1", "eig2", "marginal")]
    eq_rows += [(*e.y, e.pattern_class, e.stability, *e.jacobian_eigenvalues, e.marginal)
                for e in equilibria(rc)]

    return _write(cfg, {"reduce_coefficients.tsv": tsv(coeff_rows),
                        "reduce_equilibria.tsv": tsv(eq_rows)})


def run_ode(cfg: ExperimentConfig) -> dict[str, str]:
    """Planar trajectory, basin survey, and attractor graph for the reduced system."""
    p, g, crit, m, n = resolve_setup(cfg)
    rc = cubic_coefficients(p, g, m, n, convention=cfg.convention)
    o = cfg.data["ode"]
    traj = integrate(rc, (o["y0_1"], o["y0_2"]), o["dt"], o["t_end"])
    survey = basin_survey(rc, o["ray_radius"], o["n_rays"], t_end=o["t_end"], dt=o["dt"])
    desc = attractor_graph(rc)

    basin_rows = [("angle", "label", "y1", "y2")]
    for theta in sorted(survey):
        e = survey[theta]
        basin_rows.append((theta, "unresolved", "", "") if e is None else
                          (theta, e.pattern_class, *e.y))

    graph_rows = [("is_circle", desc.is_circle),
                  ("from_y1", "from_y2", "from_class", "to_y1", "to_y2", "to_class")]
    for i, j in sorted(set(desc.connections)):
        a, b = desc.equilibria[i], desc.equilibria[j]
        graph_rows.append((*a.y, a.pattern_class, *b.y, b.pattern_class))
    graph_rows += [("note", note) for note in desc.notes]
    if max(rc.sigma1, rc.sigma2) <= 0 and all(e.pattern_class == "trivial" for e in desc.equilibria):
        graph_rows.append(("note", f"sigma1 = {fmt(rc.sigma1)}, sigma2 = {fmt(rc.sigma2)} <= 0: "
                                   "no nontrivial equilibria exist at this coupling"))

    return _write(cfg, {"ode_trajectory.tsv": trajectory_text(traj),
                        "ode_basins.tsv": tsv(basin_rows),
                        "ode_attractor.tsv": tsv(graph_rows)})


def _run_config(cfg: ExperimentConfig, section: str, prefix: str, p: ModelParams,
                g: DomainGeometry, m: int, n: int, ic: dict, **fields) -> SimConfig:
    """The run of working point (p, g, m, n), the one place a driver builds a
    ``SimConfig``.  ``[section]`` gives every field it has a ``<prefix><field>``
    key for (``n1``, ``n2``, ``dt``, ...) and every initial-data field it has a
    ``<prefix>ic_<field>`` key for; ``ic`` and ``fields`` give the others."""
    s = cfg.data[section]

    def given(cls, pre):
        return {f.name: s[pre + f.name] for f in dataclass_fields(cls) if pre + f.name in s}

    return SimConfig(params=p, geometry=g, mode_m=m, mode_n=n,
                     ic=InitialCondition(**given(InitialCondition, prefix + "ic_"), **ic),
                     **given(SimConfig, prefix), **fields)


def _tried(fn, *args):
    """``fn(*args)``, or the exception it raised, which ``_ok`` raises where
    the result is read."""
    try:
        return fn(*args)
    except Exception as exc:  # handed on as the result
        return exc


def _ok(result):
    """A result of ``_tried``, raising it where the call failed."""
    if isinstance(result, Exception):
        raise result
    return result


def run_simulate(cfg: ExperimentConfig) -> dict[str, str]:
    """One full simulation of the kind's model (``simulate-full``: the
    two-field system); writes the mode series, snapshots, and a summary."""
    p, g, crit, m, n = resolve_setup(cfg)
    sim_cfg = _run_config(cfg, "simulation", "", p, g, m, n, {"seed": cfg.seed})
    if cfg.kind == "simulate-full":
        diag, (final, _v) = simulate_full_system(sim_cfg)
    else:
        diag, final = simulate(sim_cfg)
    files = {"series.tsv": series_text(diag)}
    for t, snap in diag.snapshots:
        files[f"snapshot_t{fmt(t)}.txt"] = snapshot_text(snap, t)
    # the terminal state is always available, even when steady-state exit
    # ends the run before later requested snapshot times
    files["snapshot_final.txt"] = snapshot_text(transform_inverse(final), diag.times[-1])
    files["summary.tsv"] = tsv([
        ("quantity", "value"),
        ("fingerprint", diag.final_fingerprint),
        ("steady", diag.steady),
        ("t_final", diag.times[-1]),
        ("l2_final", diag.l2_series[-1]),
        ("y1_final", final.mode((m, n))),
        ("y2_final", final.mode((0, 2 * n))),
        ("lambda", p.lam),
        ("lambda_c", crit.lambda_c),
    ])
    return _write(cfg, files)


def run_sweep(cfg: ExperimentConfig) -> dict[str, str]:
    """Atlas over (geometry scale, coupling factor); one row per cell.

    Cell order is geometry-major, then coupling; per-cell failures are
    recorded in the status column and do not stop the sweep.  The cells run
    on the usable CPUs.  Reruns with the same configuration and seed are
    byte-identical, whatever the number of CPUs.
    """
    sw = cfg.data["sweep"]
    header = ("geometry_factor", "lambda_factor", "lambda_c", "critical_modes", "rho_star",
              "a_q", "b1_formula", "b2_formula", "b1_paper", "b2_paper", "n_equilibria",
              "fingerprint", "status")
    cells = [(gf, lf) for gf in sw["geometry_factors"] for lf in sw["lambda_factors"]]
    rows = map_in_order(lambda c: _sweep_cell(cfg, *c), enumerate(cells, start=1))
    return _write(cfg, {"sweep_atlas.tsv": tsv([header, *rows])})


def _sweep_cell(cfg: ExperimentConfig, cell: int, factors: tuple[float, float]) -> tuple:
    """The atlas row of sweep cell number ``cell`` (from 1, which offsets
    the seed) at (geometry factor, coupling factor) ``factors``."""
    gf, lf = factors
    try:
        p, g, crit, m, n = resolve_setup(cfg, gf, lf)
        rc = cubic_coefficients(p, g, m, n, convention=cfg.convention)
        try:
            n_eq = len([e for e in equilibria(rc) if e.pattern_class != "trivial"])
        except RectangleRootError:
            n_eq = -1
        diag, _ = simulate(_run_config(cfg, "sweep", "", p, g, m, n, {"seed": cfg.seed + cell}))
        return (gf, lf, crit.lambda_c, _modes_str(crit.critical_modes), crit.rho_star,
                rc.frak_a, rc.frak_b1_formula, rc.frak_b2_formula,
                rc.frak_b1_paper, rc.frak_b2_paper, n_eq, diag.final_fingerprint, "ok")
    except Exception as exc:  # per-cell failures recorded, sweep continues
        return (gf, lf, *[""] * 10, f"error:{type(exc).__name__}:{exc}")


def _modes_str(modes) -> str:
    return "|".join(f"{k1},{k2}" for k1, k2 in sorted(modes))


# ----------------------------------------------------------------------------
# verification suites
# ----------------------------------------------------------------------------

def _stability_census(eqs) -> Counter:
    return Counter((e.pattern_class, e.stability) for e in eqs if e.pattern_class != "trivial")


def _sign_rules_hold(rc, eqs) -> bool:
    """Determinant sign rules: sgn(det J) = sgn(b1 - 2*b2) at every nontrivial
    point but the ratio-locked (hexagon) ones, which have the opposite sign."""
    want = math.copysign(1.0, rc.frak_b1 - 2.0 * rc.frak_b2)
    return all(math.copysign(1.0, e.jacobian_eigenvalues[0] * e.jacobian_eigenvalues[1])
               == (-want if e.pattern_class == "hexagon" else want)
               for e in eqs if e.pattern_class != "trivial")


def _ring_rows(rep: VerificationReport, rc, eqs, ring_name: str) -> None:
    """The determinant sign-rule row and the ring-attractor row of ``rc``."""
    hold = _sign_rules_hold(rc, eqs)
    rep.add("Jacobian determinant sign rules", "hold", "hold" if hold else "violated",
            "sign", hold)
    desc = attractor_graph(rc)
    rep.add(ring_name, True, desc.is_circle, "graph", desc.is_circle, note="; ".join(desc.notes))


def _nearest_amplitude_mismatch(y1: float, y2: float, eqs) -> tuple[float, str]:
    """Relative distance from (|y1|, |y2|) to the closest nontrivial
    equilibrium, using the sign symmetry of the catalogue."""
    best, cls = math.inf, "none"
    for e in eqs:
        if e.pattern_class == "trivial":
            continue
        d = math.hypot(abs(y1) - abs(e.y[0]), abs(y2) - abs(e.y[1]))
        scale = math.hypot(e.y[0], e.y[1])
        if scale > 0 and d / scale < best:
            best, cls = d / scale, e.pattern_class
    return best, cls


def _arbitrate(value: float, candidate_formula: float, candidate_paper: float) -> str:
    hit_f = abs(value - candidate_formula) <= ARBITRATION_RTOL * abs(candidate_formula)
    hit_p = abs(value - candidate_paper) <= ARBITRATION_RTOL * abs(candidate_paper)
    if hit_f and not hit_p:
        return "formula"
    if hit_p and not hit_f:
        return "paper"
    return "indecisive"


def run_verify_theorem1(cfg: ExperimentConfig) -> VerificationReport:
    """End-to-end verification at the degenerate critical point (balanced
    diffusion mu = 8*alpha on the resonant rectangle).

    Checklist: critical coupling 9*mu/4 with critical pair {(m,n),(0,2n)};
    vanishing quadratic coefficient; eight nontrivial equilibria; stability
    classification (both as stated and via the determinant sign rules); ring
    attractor; simulation fingerprint and amplitude agreement; and the cubic
    coefficient arbitration by saturation fits.
    """
    rep = VerificationReport("verification: degenerate critical point")
    _theorem1_checks(cfg, rep)
    return _write_report(cfg, rep, "theorem1")


def _theorem1_checks(cfg: ExperimentConfig, rep: VerificationReport) -> None:
    """Add theorem1's rows to ``rep``; returns early where a hypothesis or
    the coupling leaves the remaining checks nothing to check."""
    v = cfg.data["verify"]
    p, g, crit, m, n = resolve_setup(
        cfg, lambda_factor=cfg.get("model", "lambda_factor") or THEOREM1_LAMBDA_FACTOR)

    if abs(p.mu - 8.0 * p.alpha) > 1e-12 * p.mu:
        rep.add("hypothesis mu = 8*alpha", 8.0 * p.alpha, p.mu, "abs 1e-12", False,
                note="the balanced-diffusion hypothesis mu = 8*alpha is violated; "
                     "remaining checks skipped")
        return
    rep.add("hypothesis mu = 8*alpha", 8.0 * p.alpha, p.mu, "abs 1e-12", True)

    rep.add_numeric("lambda_c = 9*mu/4", 2.25 * p.mu, crit.lambda_c, 1e-10)
    rep.add("critical modes", _modes_str({(m, n), (0, 2 * n)}),
            _modes_str(crit.critical_modes), "set equality",
            crit.critical_modes == frozenset({(m, n), (0, 2 * n)}))

    lam_factor = p.lam / crit.lambda_c
    p_c = ModelParams(p.mu, p.alpha, crit.lambda_c)
    rc_c = cubic_coefficients(p_c, g, m, n, convention=cfg.convention)
    rep.add("quadratic coefficient a_q = 0", "0", rc_c.frak_a, "abs 1e-12",
            abs(rc_c.frak_a) <= 1e-12)
    rep.add("transition type", "type-1", transition_type(rc_c), "exact",
            transition_type(rc_c) == "type-1")

    # subcritical side: the uniform state is the only attractor
    p_sub = ModelParams(p.mu, p.alpha, crit.lambda_c * v["subcritical_factor"])
    signs = pes_classification(p_sub, g, cfg.get("geometry", "k_max"))
    rep.add("subcritical: all growth rates negative", "all -",
            "all -" if all(s < 0 for s in signs.values()) else "some >= 0",
            "sign", all(s < 0 for s in signs.values()))

    if lam_factor <= 1.0:
        rep.provenance.append("coupling at or below critical: supercritical checks skipped by design")
        return

    # supercritical reduced system: coefficients frozen at the critical
    # coupling (where a_q = 0 exactly), growth rate taken at the working
    # coupling -- this is the system whose catalogue the analysis describes
    sig_work = sigma(crit.rho_star, p)
    rc = replace(rc_c, sigma1=sig_work, sigma2=sig_work)
    eqs = equilibria(rc)
    nontrivial = [e for e in eqs if e.pattern_class != "trivial"]
    rep.add("nontrivial equilibria", "8", len(nontrivial), "count",
            len(nontrivial) == 8)
    census = _stability_census(eqs)
    stated = census.get(("hexagon", "stable-node"), 0) == 4 and \
        census.get(("roll", "saddle"), 0) == 2 and census.get(("rectangle", "saddle"), 0) == 2
    rep.add("stability as stated (hexagons stable, rolls/rectangles saddles)",
            "hexagon:stable-node x4, roll:saddle x2, rectangle:saddle x2",
            ", ".join(f"{c}:{s} x{k}" for (c, s), k in sorted(census.items())),
            "exact", stated,
            note="the determinant sign rules with b1 - 2*b2 > 0 give the opposite "
                 "assignment; see the sign-rule check")
    _ring_rows(rep, rc, eqs, "ring attractor (8 equilibria + heteroclinic ring)")

    survey = basin_survey(rc, v["ray_radius"], v["n_rays"])
    labels = Counter("unresolved" if e is None else e.pattern_class for e in survey.values())
    off_axis = [e for theta, e in survey.items() if abs(math.sin(2.0 * theta)) > 1e-9]
    rep.add("basin survey: off-axis rays end at hexagons (as stated)",
            "hexagon", ", ".join(f"{k} x{c}" for k, c in sorted(labels.items())),
            "label", bool(off_axis) and all(
                e is not None and e.pattern_class == "hexagon" for e in off_axis),
            note=("rays converge to the sinks of the ring; with b1 - 2*b2 > 0 "
                  "those are the rolls and rectangles") if off_axis else
                 f"no off-axis ray among {len(survey)}: every ray lies on an axis")

    # The PDE stages.  Each states its runs as data, and a reader turns their
    # results into rows; the runs of all stages go through one map, in order.
    seed_modes = {"roll": (((0, 2 * n), 1e-3),), "hexagon": (((m, n), 2e-3), ((0, 2 * n), 1e-3))}
    branch_runs = ([("roll", sig) for sig in v["sigma_list"]]
                   + [("hexagon", sig) for sig in v["sigma_list_hex"]])

    def read_arbitration(results):
        def fit(branch):
            return fit_saturation([(sig, branch_steady_amplitude(_ok(r)[0], m, n, branch))
                                   for (b, sig), r in zip(branch_runs, results) if b == branch],
                                  branch)

        fit_roll = fit("roll")
        cand_f, cand_p = rc.frak_b1_formula, rc.frak_b1_paper
        verdict = _arbitrate(fit_roll.combination_value, cand_f, cand_p)
        gap = abs(cand_f - cand_p) / min(abs(cand_f), abs(cand_p))
        rep.add("roll-branch b1 candidates differ by > 30%", "> 0.3", gap, "rel",
                gap > 0.3)
        rep.add("roll-branch arbitration decisive", "formula or paper", verdict,
                "rel 0.1", verdict != "indecisive",
                note=f"fitted b1 = {fmt(fit_roll.combination_value)}; candidates "
                     f"formula {fmt(cand_f)}, paper {fmt(cand_p)}")
        fit_hex = fit("hexagon")
        hx_f = rc.frak_b1_formula + 4.0 * rc.frak_b2_formula
        hx_p = rc.frak_b1_paper + 4.0 * rc.frak_b2_paper
        hex_verdict = _arbitrate(fit_hex.combination_value, hx_f, hx_p)
        rep.add("hexagon-branch arbitration", "formula or paper", hex_verdict, "rel 0.1",
                hex_verdict != "indecisive",
                note=f"fitted b1+4*b2 = {fmt(fit_hex.combination_value)}; candidates "
                     f"formula {fmt(hx_f)}, paper {fmt(hx_p)} "
                     f"(only {fmt(abs(hx_f - hx_p) / abs(hx_f))} apart)")
        rep.provenance.append(
            f"coefficient convention in use: {cfg.convention}; roll-branch arbitration "
            f"selects: {verdict}; hexagon-branch: {hex_verdict}")

    def read_slaving(results):
        fit = fit_slaving(_ok(results[0])[0], m, n)
        for name, got, want in [("mean-mode slaving vs y1^2", fit.coeff_00_1, -0.375),
                                ("mean-mode slaving vs y2^2", fit.coeff_00_2, -0.75),
                                ("slaving gain kappa1", fit.kappa1_hat, rc_c.kappa1),
                                ("slaving gain kappa2", fit.kappa2_hat, rc_c.kappa2)]:
            if got is None:
                rep.add(name, want, "degenerate", "rel 0.1", False,
                        note="; ".join(fit.degenerate))
            else:
                rep.add_numeric(name, want, got, 0.10, relative=True)

    def read_fingerprint(results):
        diag, final = _ok(results[0])
        rep.add("simulation fingerprint is hexagon (as stated)", "hexagon",
                diag.final_fingerprint, "label", diag.final_fingerprint == "hexagon",
                note="the simulation selects the stable patterns of the ring")
        y1, y2 = final.mode((m, n)), final.mode((0, 2 * n))
        # amplitudes are compared against the coefficients evaluated at the
        # working coupling, the best prediction the reduction offers
        eqs_local = equilibria(cubic_coefficients(p, g, m, n, convention=cfg.convention))
        mism, cls = _nearest_amplitude_mismatch(y1, y2, eqs_local)
        rep.add_numeric(f"amplitude match to nearest equilibrium ({cls})", 0.0, mism,
                        0.15, note=f"terminal (y1, y2) = ({fmt(y1)}, {fmt(y2)})")

    stages = [
        ("coefficient arbitration", lambda: [_run_config(
            cfg, "verify", "fit_", ModelParams(p.mu, p.alpha, _lambda_for_sigma(crit, sig)),
            g, m, n, {"kind": "modes", "modes": seed_modes[branch]}, t_end=max(80.0 / sig, 400.0))
            for branch, sig in branch_runs], read_arbitration),
        ("slaving fits", lambda: [_run_config(
            cfg, "verify", "slaving_", p, g, m, n,
            {"kind": "modes", "modes": (((m, n), 1.3e-3), ((0, 2 * n), 1e-3))})], read_slaving),
        ("simulation fingerprint", lambda: [_run_config(
            cfg, "verify", "pde_", p, g, m, n, {"seed": cfg.seed, "amplitude": 1e-3})],
         read_fingerprint)]
    if v["skip_pde"]:
        stages.pop()
    # a stage that cannot state its runs, or whose run failed, fails alone
    batches = [_tried(runs) for _name, runs, _read in stages]
    results = iter(map_in_order(lambda c: _tried(simulate, c), [
        c for batch in batches if not isinstance(batch, Exception) for c in batch]))
    for (stage_name, _runs, read), batch in zip(stages, batches):
        try:
            read([next(results) for _ in _ok(batch)])
        except Exception as exc:  # a failed stage is recorded; the run continues
            rep.add(f"stage: {stage_name}", "completes", f"{type(exc).__name__}: {exc}",
                    "no error", False)


def run_verify_theorem2(cfg: ExperimentConfig) -> VerificationReport:
    """Verification under small perturbations of domain length and coupling.

    The quadratic coefficient becomes nonzero: rectangles must disappear,
    replaced by two mixed points, with eight nontrivial equilibria in total;
    the ring survives; and the stability assignment must flip with the sign
    of 2*b2 - b1 (probed by a coefficient override).
    """
    rep = VerificationReport("verification: perturbed critical point")
    v = cfg.data["verify"]
    p, g, _crit, m, n = resolve_setup(cfg, 1.0 + v["ell2_perturb"], 1.0 + v["lambda_perturb"])
    rc = cubic_coefficients(p, g, m, n, convention=cfg.convention)

    rep.add("quadratic coefficient nonzero", "a_q != 0", rc.frak_a, "nonzero",
            rc.frak_a != 0.0)
    rep.add("transition type", "type-1", transition_type(rc), "exact",
            transition_type(rc) == "type-1")

    if v["ell2_perturb"] == 0.0 and v["lambda_perturb"] == 0.0:
        rep.provenance.append("zero perturbation degenerates to the unperturbed catalogue")

    try:
        eqs = equilibria(rc)
    except RectangleRootError as exc:
        rep.add("no pure-rectangle equilibrium", "absent", f"present ({exc})", "exact", False)
    else:
        nontrivial = [e for e in eqs if e.pattern_class != "trivial"]
        census = _stability_census(eqs)
        rect = any(c == "rectangle" for c, _s in census)
        rep.add("no pure-rectangle equilibrium", "absent", "present" if rect else "absent",
                "exact", not rect)
        rep.add("nontrivial equilibria", "8", len(nontrivial), "count",
                len(nontrivial) == 8)
        n_mixed = sum(k for (c, _s2), k in census.items() if c == "mixed")
        rep.add("mixed-pattern equilibria", "2", n_mixed, "count", n_mixed == 2)
        _ring_rows(rep, rc, eqs, "ring attractor")

        disc = 2.0 * rc.frak_b2 - rc.frak_b1
        hex_stable = census.get(("hexagon", "stable-node"), 0)
        stated_assoc = (disc < 0 and hex_stable == 4) or (disc > 0 and hex_stable == 0)
        rep.add("classification vs sign of 2*b2-b1 (as stated)",
                "hexagons stable when 2*b2-b1 < 0",
                f"2*b2-b1 = {fmt(disc)}; hexagons stable: {hex_stable}",
                "exact", stated_assoc,
                note="the sign rules give hexagons det(J) = -sgn(b1-2*b2); the stated "
                     "association is inverted relative to them")

        # the flip itself: override the cubic pair to the opposite sign of 2*b2-b1
        rc_flip = rc.with_cubic_override(rc.frak_b1, 0.2 * rc.frak_b1)
        flip_sign = 2.0 * rc_flip.frak_b2 - rc_flip.frak_b1
        eqs_flip = equilibria(rc_flip)
        census_flip = _stability_census(eqs_flip)
        flipped = (census.get(("hexagon", "stable-node"), 0),
                   census_flip.get(("hexagon", "stable-node"), 0))
        ok_flip = (math.copysign(1.0, disc) != math.copysign(1.0, flip_sign)
                   and {flipped[0], flipped[1]} == {0, 4}
                   and census.get(("roll", "saddle"), 0) + census_flip.get(("roll", "saddle"), 0) == 2)
        rep.add("classification flips with the sign of 2*b2-b1", "flip",
                f"hexagons stable: {flipped[0]} -> {flipped[1]} as 2*b2-b1 goes "
                f"{fmt(disc)} -> {fmt(flip_sign)}", "exact", ok_flip)
        rep.provenance.append(f"coefficient convention in use: {cfg.convention}")
    return _write_report(cfg, rep, "theorem2")


def _write_report(cfg: ExperimentConfig, rep: VerificationReport, tag: str) -> VerificationReport:
    """Write ``rep`` as ``verify_<tag>_report.txt`` and ``.tsv``; returns it."""
    _write(cfg, {f"verify_{tag}_report.txt": rep.to_table(),
                 f"verify_{tag}_report.tsv": rep.to_tsv()})
    return rep
