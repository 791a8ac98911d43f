"""Alternating A/B timing of the transform and stepper layers of two checkouts.

    python3 tools/ab_layers.py BEFORE AFTER [--pairs N]

Each pair runs one fresh process per checkout, with that checkout's ``src/``
first on ``sys.path``; the side that runs first alternates from pair to pair
(BEFORE first on the first pair).  A process times, as the best of 9 repeats,
in microseconds per call:

* the first product of a padded synthesis, ``(3n x n) @ (n x 2n)``, and of a
  padded analysis, ``(4n x 2n) @ (2n x n)``, with the right factor as a
  transposed view and as a C-contiguous copy (plain numpy, the same on both
  sides, so it also shows how the host's speed moved between processes);
* one ``coeffs_to_grid`` of 3 fields and one ``grid_to_coeffs`` of 2, the
  batches of a scalar right-hand side, into reused workspaces;
* one step of each model.

All at n = 32 and 64.  The arrays BLAS writes are 64-byte aligned in both
processes: numpy aligns to 16 bytes, and a product stores its result up to
a fifth slower off a cache line, so unaligned workspaces would time each
process's allocation history rather than the code.  It prints one JSON
object: per metric, each side's samples, median and quartiles, and the
pairs in which AFTER was faster.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import timeit

REPEAT = 9


def _aligned(shape):
    import numpy as np
    buf = np.empty(int(np.prod(shape)) + 8)
    return buf[-buf.ctypes.data % 64 // 8:][:int(np.prod(shape))].reshape(shape)


def _best_us(fn, number: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=REPEAT)) / number * 1e6


def measure(src: str) -> dict[str, float]:
    """The timings of one process, with ``src``'s package."""
    sys.path.insert(0, src)
    import numpy as np

    from chemopattern import simulator
    from chemopattern.core import ModelParams, make_critical_geometry
    from chemopattern.transforms import coeffs_to_grid, grid_to_coeffs

    p = ModelParams(8.0, 1.0, 18.36)
    g = make_critical_geometry(1, 1, p)
    rng = np.random.default_rng(5)
    out = {}
    for n in (32, 64):
        m = 2 * n
        i, k = np.arange(m)[:, None], np.arange(n)[None, :]
        C = np.cos(np.pi * (((2 * i + 1) * k) % (4 * m)) / (2 * m))
        AT = C * (np.where(k == 0, 1.0, 2.0) / m)
        A = np.ascontiguousarray(AT.T)
        coeffs, grid = rng.normal(size=(3 * n, n)), rng.normal(size=(2 * m, m))
        rows_s, rows_a = _aligned((3 * n, m)), _aligned((2 * m, n))
        for name, left, right, rows in (
                ("synthesis", coeffs, (C.T, np.ascontiguousarray(C.T)), rows_s),
                ("analysis", grid, (A.T, np.ascontiguousarray(A.T)), rows_a)):
            for layout, factor in zip(("view", "contiguous"), right):
                out[f"matmul_{name}_first_{n}_{layout}_us"] = _best_us(
                    lambda: np.matmul(left, factor, out=rows), 2000)

        c = rng.normal(size=(3, n, n))
        grid_out, grid_rows = _aligned((3, m, m)), _aligned((3, n, m))
        out[f"synthesis_{n}_us"] = _best_us(
            lambda: coeffs_to_grid(c, (m, m), grid_out, grid_rows), 1000)
        values = rng.normal(size=(2, m, m))
        prod_rows, coeffs_out = _aligned((2, m, n)), _aligned((2, n, n))
        out[f"analysis_{n}_us"] = _best_us(
            lambda: grid_to_coeffs(values, (n, n), prod_rows, coeffs_out), 1000)

        cu = np.zeros((n, n))
        cu[:8, :8] = rng.uniform(-0.1, 0.1, size=(8, 8))
        cfg = simulator.SimConfig(params=p, geometry=g, n1=n, n2=n, dt=0.02, t_end=1.0)
        steppers = (("scalar", simulator._ScalarStepper((n, n), g, p, 0.02, True), cu[None]),
                    ("pair", simulator._PairStepper(cfg), np.array([cu, 0.5 * cu])))
        with np.errstate(over="ignore", invalid="ignore"):
            for model, stepper, state in steppers:
                out[f"step_{model}_{n}_us"] = _best_us(lambda: stepper.step(state), 200)
    return out


def _quartiles(xs: list[float]) -> list[float]:
    return [round(q, 2) for q in statistics.quantiles(xs, n=4, method="inclusive")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", nargs="?", help="checkout timed first on the first pair")
    parser.add_argument("after", nargs="?", help="the other checkout")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of processes (default 10)")
    parser.add_argument("--measure", metavar="SRC",
                        help="(used by the tool itself) time one process with SRC's package")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.before is None or args.after is None:
        parser.error("BEFORE and AFTER checkouts are required")
    sides = {"before": args.before, "after": args.after}
    samples: dict[str, dict[str, list[float]]] = {"before": {}, "after": {}}
    for pair in range(args.pairs):
        order = ("before", "after") if pair % 2 == 0 else ("after", "before")
        for side in order:
            src = os.path.join(os.path.abspath(sides[side]), "src")
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure", src],
                                  check=True, capture_output=True, text=True, timeout=600)
            for key, value in json.loads(proc.stdout.splitlines()[-1]).items():
                samples[side].setdefault(key, []).append(value)
        print(f"pair {pair + 1} of {args.pairs} done", file=sys.stderr)
    result = {}
    for key, before in samples["before"].items():
        after = samples["after"][key]
        result[key] = {
            "before": {"median": round(statistics.median(before), 2),
                       "quartiles": _quartiles(before), "samples": [round(x, 2) for x in before]},
            "after": {"median": round(statistics.median(after), 2),
                      "quartiles": _quartiles(after), "samples": [round(x, 2) for x in after]},
            "ratio_of_medians": round(statistics.median(before) / statistics.median(after), 3),
            "after_faster_pairs": f"{sum(a < b for a, b in zip(after, before))}/{len(after)}",
        }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
