"""Where the traced run hooks into each layer, and the per-layer metrics.

Every hook names the namespace the package looks the function up in at call
time.  ``from .transforms import coeffs_to_grid`` in ``simulator`` binds its
own name, so the simulator's transforms are wrapped in
``chemopattern.simulator`` and the ones ``transform_inverse`` uses in
``chemopattern.transforms``.  The benchmark's own calls go through module
attributes (``simulator.simulate``, ``planar.basin_survey``, ...), so the
same hooks see them.

Metric naming: ``*_ms``/``*_us`` are per-call medians (``simulator.step_us``
is simulate time per step), ``*_s`` are totals over the traced run, plain
names are exact counts.
"""

from __future__ import annotations

import statistics

SYNTH = "transforms.synth"
ANALYSIS = "transforms.analysis"
RHS = "simulator.rhs"
SIMULATE = ("simulator.simulate", "simulator.simulate_full_system")


def _nbytes(args, kwargs):
    # one 1-D transform pass reads its input and writes an equally sized output
    return 2 * args[0].nbytes


def _text_bytes(args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


def _run_end(result):
    diag = result[0]
    return float(diag.times[-1]), bool(diag.steady)


def _unresolved(survey):
    return sum(1 for v in survey.values() if v is None)


def install(tracer, cp) -> None:
    """Wrap the package's layer boundaries; ``cp`` maps short module names
    to the imported ``chemopattern`` modules."""
    sim, tr, red, pl = cp["simulator"], cp["transforms"], cp["reduction"], cp["planar"]
    core, ver, cli, rep = cp["core"], cp["verify"], cp["cli"], cp["reports"]

    for mod in (sim, tr):
        for attr in ("coeffs_to_grid", "coeffs_to_grid_dx", "coeffs_to_grid_dy"):
            tracer.span(mod, attr, SYNTH)
        tracer.span(mod, "grid_to_coeffs", ANALYSIS)
    tracer.count(tr, "dct", "transforms.pass", weigh=_nbytes)
    tracer.count(tr, "dst", "transforms.pass", weigh=_nbytes)

    tracer.span(sim, "nonlinear_rhs", RHS, context="rhs")
    pair = getattr(sim, "_PairStepper", None)
    if pair is not None:
        tracer.span(pair, "_nonlinear", RHS, context="rhs")
    for cls_name in ("_ScalarStepper", "_PairStepper"):
        cls = getattr(sim, cls_name, None)
        if cls is not None:
            tracer.count(cls, "step", "simulator.step")
    for mod in (sim, ver):
        tracer.span(mod, "simulate", SIMULATE[0], on_return=_run_end)
        tracer.span(mod, "simulate_full_system", SIMULATE[1], on_return=_run_end)
    tracer.count(sim, "pattern_fingerprint", "fitting.fingerprint")

    for mod in (red, ver):
        tracer.span(mod, "cubic_coefficients", "reduction.cubic_coefficients")
    for mod in (red, pl, ver):
        tracer.span(mod, "equilibria", "reduction.equilibria")
    for mod in (red, pl):
        tracer.count(mod, "reduced_vector_field", "reduction.field_eval")

    for mod in (pl, ver):
        tracer.span(mod, "integrate", "planar.integrate", context="integrate")
        tracer.span(mod, "basin_survey", "planar.basin_survey", on_return=_unresolved)
        tracer.span(mod, "attractor_graph", "planar.attractor_graph")
    tracer.span(pl, "solve_ivp", "planar.solve_ivp")

    for mod in (core, ver):
        tracer.span(mod, "lambda_critical", "core.lambda_critical")
    tracer.span(cli, "parse_config", "config.parse")
    tracer.span(ver, "write_text", "output.write", on_call=_text_bytes)
    for attr in ("series_text", "snapshot_text", "trajectory_text"):
        tracer.span(ver, attr, "output.format")
    for attr in ("to_table", "to_tsv"):
        tracer.span(rep.VerificationReport, attr, "reports.render")
    for attr in ("run_linear", "run_reduce", "run_ode", "run_simulate", "run_sweep",
                 "run_verify_theorem1", "run_verify_theorem2"):
        tracer.span(cli, attr, "verify.run")
    tracer.span(cli, "main", "cli.main")


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "transforms.synth_calls_per_step": "count",
    "transforms.analysis_calls_per_step": "count",
    "transforms.passes_per_step": "count",
    "transforms.bytes_per_step": "B",
    "transforms.synth_us_p50": "us",
    "transforms.analysis_us_p50": "us",
    "transforms.busy_s": "s",
    "transforms.share": "ratio",
    "simulator.steps": "count",
    "simulator.rhs_calls_per_step": "count",
    "simulator.step_us": "us",
    "simulator.model_time": "model_time",
    "simulator.rhs_self_us": "us",
    "simulator.stepper_self_s": "s",
    "simulator.steady_exits": "count",
    "simulator.blowups": "count",
    "reduction.cubic_coefficients_ms": "ms",
    "reduction.equilibria_ms": "ms",
    "reduction.equilibria_calls": "count",
    "reduction.field_evals": "count",
    "planar.integrate_calls": "count",
    "planar.field_evals_per_traj": "count",
    "planar.integrate_ms_p50": "ms",
    "planar.integrate_ms_p90": "ms",
    "planar.solve_ivp_s": "s",
    "planar.basin_survey_s": "s",
    "planar.attractor_graph_s": "s",
    "planar.unresolved": "count",
    "core.lambda_critical_ms": "ms",
    "config.parse_ms": "ms",
    "output.write_ms": "ms",
    "output.bytes": "B",
    "output.format_s": "s",
    "reports.render_ms": "ms",
    "verify.driver_self_s": "s",
    "fitting.fingerprint_calls": "count",
    "trace.overhead": "ratio",
}


def _p(values, q: int) -> float:
    """Percentile ``q`` (1..99) of ``values``; 0 for no samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(t, traced_wall: float, overhead: float) -> dict[str, float]:
    """Per-layer metrics from one traced run of the workload.  ``traced_wall``
    leaves out the speed pulses, as the spans do; ``overhead`` is the traced
    over the untraced round in reference seconds."""
    c = t.counts.get
    steps = c("simulator.step", 0)
    transform_names = {SYNTH, ANALYSIS}
    # transforms inside a right-hand side, counted once even if one transform
    # helper calls another
    in_rhs = [s for s in t.under(transform_names, {RHS})
              if t.spans[s[3]][0] not in transform_names]
    synth = [s[2] - s[1] for s in in_rhs if s[0] == SYNTH]
    analysis = [s[2] - s[1] for s in in_rhs if s[0] == ANALYSIS]
    busy = sum(s[2] - s[1] for s in t.spans
               if s[0] in transform_names
               and (s[3] < 0 or t.spans[s[3]][0] not in transform_names))
    sim_spans = [d for name in SIMULATE for d in t.durations(name)]
    runs = [r for name in SIMULATE for r in t.returns.get(name, [])]
    blowups = sum(v for k, v in t.counts.items()
                  if k.startswith(SIMULATE) and "!" in k and "@" not in k)
    integrate = t.durations("planar.integrate")
    ms, us = 1e3, 1e6
    return {
        "transforms.synth_calls_per_step": _ratio(len(synth), steps),
        "transforms.analysis_calls_per_step": _ratio(len(analysis), steps),
        "transforms.passes_per_step": _ratio(c("transforms.pass@rhs", 0), steps),
        "transforms.bytes_per_step": _ratio(c("transforms.pass.bytes@rhs", 0), steps),
        "transforms.synth_us_p50": _p(synth, 50) * us,
        "transforms.analysis_us_p50": _p(analysis, 50) * us,
        "transforms.busy_s": busy,
        "transforms.share": _ratio(busy, traced_wall),
        "simulator.steps": steps,
        "simulator.rhs_calls_per_step": _ratio(len(t.durations(RHS)), steps),
        "simulator.step_us": _ratio(sum(sim_spans), steps) * us,
        "simulator.model_time": sum(r[0] for r in runs),
        "simulator.rhs_self_us": _p(t.self_times(RHS), 50) * us,
        "simulator.stepper_self_s": sum(d for name in SIMULATE for d in t.self_times(name)),
        "simulator.steady_exits": sum(1 for r in runs if r[1]),
        "simulator.blowups": blowups,
        "reduction.cubic_coefficients_ms": _p(t.durations("reduction.cubic_coefficients"), 50) * ms,
        "reduction.equilibria_ms": _p(t.durations("reduction.equilibria"), 50) * ms,
        "reduction.equilibria_calls": len(t.durations("reduction.equilibria")),
        "reduction.field_evals": c("reduction.field_eval", 0),
        "planar.integrate_calls": len(integrate),
        "planar.field_evals_per_traj": _ratio(c("reduction.field_eval@integrate", 0), len(integrate)),
        "planar.integrate_ms_p50": _p(integrate, 50) * ms,
        "planar.integrate_ms_p90": _p(integrate, 90) * ms,
        "planar.solve_ivp_s": sum(t.durations("planar.solve_ivp")),
        "planar.basin_survey_s": sum(t.durations("planar.basin_survey")),
        "planar.attractor_graph_s": sum(t.durations("planar.attractor_graph")),
        "planar.unresolved": sum(t.returns.get("planar.basin_survey", [])),
        "core.lambda_critical_ms": _p(t.durations("core.lambda_critical"), 50) * ms,
        "config.parse_ms": _p(t.durations("config.parse"), 50) * ms,
        "output.write_ms": _p(t.durations("output.write"), 50) * ms,
        "output.bytes": sum(t.returns.get("output.write", [])),
        "output.format_s": sum(t.durations("output.format")),
        "reports.render_ms": _p(t.durations("reports.render"), 50) * ms,
        "verify.driver_self_s": sum(t.self_times("verify.run")),
        "fitting.fingerprint_calls": c("fitting.fingerprint", 0),
        "trace.overhead": overhead,
    }
