"""chemopattern benchmark: one workload per invocation.

    python3 perfbench/run.py --workload ensemble32|cli64|planar_ring \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs the workload untraced and reports the end-to-end metrics.
Their times are reference seconds: wall time corrected for the host's
changing speed by the pulses in ``speed.py``.
``--trace 1`` runs it untraced, then again with spans around the package's
layer boundaries (see ``layers.py``), checks that both runs produced
bitwise-identical outputs, and reports the per-layer metrics.  Run outputs,
the result record and the span file go to ``.perfbench_out/`` in the
checkout.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import NOMINAL_PULSE_S, PULSES, since

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("core", "transforms", "simulator", "reduction", "planar", "fitting",
           "config", "output", "reports", "verify", "cli")
SETUP_REPEATS = 3


def _import_package() -> dict:
    if not os.path.isfile(os.path.join(SRC, "chemopattern", "__init__.py")):
        raise SystemExit(f"error: no chemopattern package under {SRC}")
    sys.path.insert(0, SRC)
    cp = {name: importlib.import_module(f"chemopattern.{name}") for name in MODULES}
    where = os.path.dirname(os.path.abspath(cp["core"].__file__))
    if where != os.path.join(SRC, "chemopattern"):
        raise SystemExit(f"error: chemopattern imported from {where}, not from {SRC}")
    return cp


def _prepare(args, cp, out_dir: str):
    from workloads import WORKLOADS
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](cp, args.seed, out_dir, traced=bool(args.trace))
    workload.warm()
    return workload


def _measure_setup(args) -> tuple[list[float], list[float]]:
    """Fresh processes that import the package, build the inputs and warm
    the caches, then exit.  Returns their set-up times, pulses taken out,
    and the same in reference seconds.  A set-up time starts once numpy
    and scipy.fft are imported, which the pulses need; the package cannot
    change that part."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
                              timeout=120)
        net, ref = json.loads(proc.stdout.splitlines()[-1])
        walls.append(net)
        refs.append(ref)
    return walls, refs


def _environment() -> dict:
    import numpy as np
    import scipy
    from scipy.fft import dct

    x = np.random.default_rng(0).standard_normal((128, 128))
    reps = []
    for _ in range(41):
        t0 = time.perf_counter()
        dct(dct(x, type=2, axis=0), type=2, axis=1)
        reps.append(time.perf_counter() - t0)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "dct_pair_128_us": statistics.median(reps) * 1e6,
    }


def _round(workload, tag: str):
    """Run one round; returns its ops, wall time and reference seconds."""
    mark = PULSES.mark()
    ops = workload.run(tag)
    return (ops, *since(PULSES, mark))


def _rounds(workload, seconds: float):
    """Run the workload's minimum number of rounds, then more while another
    round fits in ``seconds``.  Returns the rounds as _round gives them."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(_round(workload, f"timed{len(rounds)}"))
        walls = [r[1] for r in rounds]
        if (len(rounds) >= workload.min_rounds
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            return rounds


def _work_rate(ops, attr: str) -> float:
    work = [op for op in ops if op.work is not None]
    seconds = sum(getattr(op, attr) for op in work)
    return sum(op.work for op in work) / seconds if seconds else 0.0


def _wall(workload, ops, wall: float) -> float:
    """Round wall time, scaled to the workload's nominal work if it has one."""
    if workload.nominal_work is None:
        return wall
    done = sum(op.work for op in ops if op.work is not None)
    return wall * workload.nominal_work / done if done else wall


def _report_ops(label: str, ops) -> None:
    for op in ops:
        status = "ok" if op.ok else "FAIL " + op.note
        print(f"  {label} {op.name:<18} {op.seconds:9.3f} s  {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble32", "cli64", "planar_ring"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)

    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.setup_only:
        with PULSES:
            mark = PULSES.mark()
            _prepare(args, _import_package(), out_dir + "-setup")
            net, ref = since(PULSES, mark)
        print(json.dumps([net, ref]))
        return 0

    shutil.rmtree(out_dir, ignore_errors=True)
    cp = _import_package()
    setup_walls, setup = ([], []) if args.trace else _measure_setup(args)
    shutil.rmtree(out_dir + "-setup", ignore_errors=True)
    workload = _prepare(args, cp, out_dir)
    env = _environment()

    if args.trace:
        from layers import PER_LAYER, install, per_layer
        from spans import Tracer
        with PULSES:
            ops, _, untraced_ref = _round(workload, "timed")
            with Tracer() as tracer:
                install(tracer, cp)
                traced_ops, traced_wall, traced_ref = _round(workload, "traced")
        for a, b in zip(ops, traced_ops):
            if b.ok and a.digest != b.digest:
                b.ok, b.note = False, "traced rerun differs from the timed run"
        all_ops = ops + traced_ops
        metrics = per_layer(tracer, traced_wall, traced_ref / untraced_ref)
        units = PER_LAYER
        diagnostics = {}
        tracer.write(os.path.join(out_dir, "spans.tsv.gz"))
        _report_ops("timed ", ops)
        _report_ops("traced", traced_ops)
        if tracer.missing:
            print("  hooks not found (counted as zero): " + ", ".join(tracer.missing))
    else:
        with PULSES:
            rounds = _rounds(workload, args.seconds)
        all_ops = [op for r in rounds for op in r[0]]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(_wall(workload, ops, ref) for ops, _, ref in rounds),
            "work_per_s": statistics.median(_work_rate(ops, "ref_seconds") for ops, _, _ in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
        # the same times before the speed correction, for reading only
        diagnostics = {
            "raw_setup_s": statistics.median(setup_walls),
            "raw_wall_s": statistics.median(_wall(workload, ops, w) for ops, w, _ in rounds),
            "raw_work_per_s": statistics.median(_work_rate(ops, "seconds") for ops, _, _ in rounds),
        }
        for i, (ops, _, _) in enumerate(rounds):
            _report_ops(f"round{i}", ops)

    failed = sum(1 for op in all_ops if not op.ok)
    attempted = len(all_ops)
    env["pulses"] = PULSES.count
    env["pulse_us"] = PULSES.sample() * 1e6
    env["speed"] = NOMINAL_PULSE_S / PULSES.sample()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    for name, value in metrics.items():
        label = workload.work_name if name == "work_per_s" else name
        unit = workload.work_unit if name == "work_per_s" else units[name]
        print(f"{args.workload:<12} {label:<38} {value:14.6g} {unit}")
    for name, value in diagnostics.items():
        print(f"{args.workload:<12} {name:<38} {value:14.6g} {units[name[4:]]}")
    print(f"{args.workload:<12} {'fail_frac':<38} {failed / attempted:14.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": env, "setup_runs_s": setup, **diagnostics, **result,
                   "ops": [{"name": op.name, "seconds": op.seconds,
                            "ref_seconds": op.ref_seconds, "work": op.work, "ok": op.ok,
                            "note": op.note} for op in all_ops]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
