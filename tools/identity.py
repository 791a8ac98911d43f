"""Output-identity check: hash every output of a fixed set of short runs.

    python3 tools/identity.py [--out DIR] [--against CHECKOUT]

Runs, from the ``src/`` of this checkout:

* one short configuration of each of the eight experiment kinds through the
  command line, keeping every file it writes, its standard output and error
  and its exit code, and the ``--dump-config`` output of each;
* ``step``, ``nonlinear_rhs``, ``simulate`` and ``simulate_full_system`` (and
  the two transforms they are built on) at 32^2 and 64^2, with alpha = 1 and
  0.5, several step sizes and record grids and a ``t_end`` off the step grid,
  one ``.npy`` file per array.

It writes one SHA-256 per file to ``DIR/this/identity.tsv`` (default
``DIR``: ``.identity_out`` in this checkout) and prints a summary.  With
``--against``, it runs the same set from the ``src/`` of a second checkout
into ``DIR/against/`` and lists every output that differs or exists on one
side only, with the largest relative change, |a - b| / max(|a|, |b|), of the
numbers in each numeric file that differs; it exits 1 if any does.

The first side runs on every usable CPU, the second (its child processes
too) pinned to one, so each comparison also sets forked maps and threaded
BLAS against in-process maps and one BLAS thread; the summary prints each
side's CPU count, which shows when the host had only one CPU to begin with.

The bytes depend on the host (OpenBLAS picks its kernel per CPU type), so
compare two checkouts on one host, and commit no hash as a test oracle.
``--against .`` runs the set twice on this checkout, which must agree.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# runs the package's command line with the given src/ first on sys.path
CLI = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
       "from chemopattern.cli import main; sys.exit(main(sys.argv[1:]))")

# one short configuration per experiment kind, and a second simulate of each
# model on the other grid, alpha and step; the sweep's factor -1 fails, so its
# error rows are compared too
CONFIGS = {
    "linear": """
[experiment]
kind = linear
[geometry]
ell2_factor = 1.03
k_max = 12
[linear]
lambda_factors = 0.95;1.0;1.05
""",
    "reduce": """
[experiment]
kind = reduce
coefficient_convention = paper
[model]
lambda_factor = 1.02
""",
    "ode": """
[experiment]
kind = ode
[model]
lambda_factor = 1.02
[ode]
dt = 0.1
t_end = 300
n_rays = 8
""",
    "simulate": """
[experiment]
kind = simulate
seed = 7
[model]
alpha = 0.5
lambda_factor = 1.02
[simulation]
n1 = 32
n2 = 32
dt = 0.05
t_end = 20.03
record_interval = 0.7
snapshot_times = 0;10
ic_amplitude = 0.01
""",
    "simulate-64": """
[experiment]
kind = simulate
seed = 8
[model]
lambda_factor = 1.02
[simulation]
n1 = 64
n2 = 64
dt = 0.01
t_end = 3
snapshot_times = 1.5
ic_kind = modes
ic_modes = 1,1:0.02;0,2:0.01
""",
    "simulate-full": """
[experiment]
kind = simulate-full
seed = 9
[model]
lambda_factor = 1.02
[simulation]
n1 = 64
n2 = 64
dt = 0.01
t_end = 3.004
record_interval = 0.5
snapshot_times = 0;1.5
ic_kind = modes
ic_modes = 1,1:0.02;0,2:0.01
""",
    "simulate-full-32": """
[experiment]
kind = simulate-full
seed = 10
[model]
alpha = 0.5
lambda_factor = 1.02
[simulation]
n1 = 32
n2 = 32
dt = 0.05
t_end = 20
record_interval = 0.7
ic_amplitude = 0.01
""",
    "sweep": """
[experiment]
kind = sweep
seed = 5
[sweep]
lambda_factors = 1.02;0.98;-1
geometry_factors = 1.0;1.01
t_end = 30
dt = 0.05
""",
    "verify-theorem1": """
[experiment]
kind = verify-theorem1
seed = 3
[verify]
pde_t_end = 40
pde_dt = 0.05
n_rays = 16
sigma_list = 0.2;0.3;0.4
sigma_list_hex = 0.2;0.3;0.4
fit_dt = 0.1
slaving_t_end = 60
slaving_n1 = 32
slaving_n2 = 32
slaving_dt = 0.05
""",
    "verify-theorem2": """
[experiment]
kind = verify-theorem2
seed = 3
""",
}


def _arrays(out_dir: str) -> None:
    """Write the arrays of the package's Python interface, one ``.npy`` each."""
    import numpy as np

    from chemopattern import simulator
    from chemopattern.core import ModelParams, lambda_critical, make_critical_geometry
    from chemopattern.transforms import SpectralField, coeffs_to_grid, grid_to_coeffs

    os.makedirs(out_dir)

    def save(name, a):
        np.save(os.path.join(out_dir, name + ".npy"), np.asarray(a))

    def working_point(alpha):
        # the resonant (1, 1) rectangle at 1.02 times the critical coupling
        unit = ModelParams(8.0, alpha, 1.0)
        geometry = make_critical_geometry(1, 1, unit)
        lam = 1.02 * lambda_critical(unit, geometry).lambda_c
        return ModelParams(8.0, alpha, lam), geometry

    rng = np.random.default_rng(2024)
    for n in (32, 64):
        c = rng.normal(size=(3, n, n))
        save(f"synthesis_{n}", coeffs_to_grid(c, (2 * n, 2 * n)))
        save(f"analysis_{n}", grid_to_coeffs(rng.normal(size=(2, 2 * n, 2 * n)), (n, n)))
        for alpha in (1.0, 0.5):
            p, geometry = working_point(alpha)
            tag = f"{n}_alpha{alpha:g}"
            c0 = np.zeros((n, n))
            c0[:9, :9] = rng.uniform(-0.05, 0.05, size=(9, 9))
            u = SpectralField(c0, geometry)
            save(f"nonlinear_rhs_{tag}", simulator.nonlinear_rhs(u, p).coeffs)
            for dt, nonlinear in ((0.02, True), (0.05, True), (0.05, False)):
                v = u
                for _ in range(10):
                    v = simulator.step(v, p, dt, nonlinear)
                save(f"step_{tag}_dt{dt:g}_{'nonlinear' if nonlinear else 'linear'}", v.coeffs)
            for run in (simulator.simulate, simulator.simulate_full_system):
                for dt, record_interval, t_end in ((0.02, 1.0, 4.0), (0.05, 0.7, 4.03)):
                    cfg = simulator.SimConfig(
                        params=p, geometry=geometry, n1=n, n2=n, dt=dt, t_end=t_end,
                        record_interval=record_interval, snapshot_times=(0.0, 2.0),
                        ic=simulator.InitialCondition(kind="random", seed=n, amplitude=0.01))
                    diag, final = run(cfg)
                    name = f"{run.__name__}_{tag}_dt{dt:g}_every{record_interval:g}"
                    _save_run(save, name, diag, final)
    # a criterion-9-shaped run to its steady exit
    p, geometry = working_point(1.0)
    cfg = simulator.SimConfig(params=p, geometry=geometry, n1=32, n2=32, dt=0.02, t_end=1500.0,
                              ic=simulator.InitialCondition(kind="random", seed=0))
    _save_run(save, "simulate_steady_32", *simulator.simulate(cfg))


def _save_run(save, name, diag, final) -> None:
    fields = final if isinstance(final, tuple) else (final,)
    for i, f in enumerate(fields):
        save(f"{name}_final{i}", f.coeffs)
    save(f"{name}_times", diag.times)
    save(f"{name}_l2", diag.l2_series)
    for (k1, k2), series in diag.mode_series.items():
        save(f"{name}_mode_{k1}_{k2}", series)
    for t, snap in diag.snapshots:
        save(f"{name}_snapshot_t{t:g}", snap.values)
    save(f"{name}_exit", [float(diag.steady), len(diag.times)])
    save(f"{name}_fingerprint", [ord(ch) for ch in diag.final_fingerprint])


def collect(root: str, out_dir: str) -> dict[str, str]:
    """Run the set from ``root``'s ``src/`` into ``out_dir``; returns
    {path: sha256} and writes it to ``out_dir/identity.tsv``."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chemopattern", "__init__.py")):
        raise SystemExit(f"error: no chemopattern package under {src}")
    shutil.rmtree(out_dir, ignore_errors=True)
    configs = os.path.join(out_dir, "configs")
    os.makedirs(configs)
    for name, text in CONFIGS.items():
        path = os.path.join(configs, name + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.lstrip())
        kind = re.search(r"^kind = (\S+)$", text, re.M).group(1)
        for what, extra in (("run", ["--out", os.path.join("cli", name)]),
                            ("dump", ["--dump-config"])):
            proc = subprocess.run([sys.executable, "-c", CLI, src, kind, "--config", path, *extra],
                                  cwd=out_dir, capture_output=True, text=True, timeout=600)
            record = os.path.join(out_dir, what, name)
            os.makedirs(record, exist_ok=True)
            for part, content in (("stdout", proc.stdout), ("stderr", proc.stderr),
                                  ("exit", f"{proc.returncode}\n")):
                with open(os.path.join(record, part + ".txt"), "w", encoding="utf-8") as fh:
                    fh.write(content)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--arrays", src,
                    os.path.join(out_dir, "arrays")], check=True, timeout=1200)
    hashes = {}
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out_dir)
            if rel.startswith("configs" + os.sep) or rel == "identity.tsv":
                continue
            with open(path, "rb") as fh:
                hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "identity.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{h}\t{rel}\n" for rel, h in hashes.items())
    return hashes


def _relative_change(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|) of two unequal values, inf if one is not finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _numbers(path: str) -> list:
    """The values of an ``.npy`` array, or the whitespace-separated tokens of
    a text file, to be compared one by one."""
    if path.endswith(".npy"):
        import numpy as np
        return np.load(path).ravel().tolist()
    with open(path, encoding="utf-8") as fh:
        return re.split(r"\s+", fh.read().strip())


def describe(rel: str, mine: str, theirs: str) -> str:
    """How output ``rel`` differs between two run directories: the largest
    relative change of one value, and the largest change of one value as a
    share of the largest magnitude in the file (which near-zero values,
    rounding noise included, cannot inflate)."""
    a, b = _numbers(os.path.join(mine, rel)), _numbers(os.path.join(theirs, rel))
    if len(a) != len(b):
        return f"{rel}: {len(a)} against {len(b)} values or tokens"
    worst = change = scale = 0.0
    text = 0
    for x, y in zip(a, b):
        try:
            x, y = float(x), float(y)
        except ValueError:
            text += x != y
            continue
        scale = max(scale, *(abs(v) for v in (x, y) if math.isfinite(v)))
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, _relative_change(x, y))
            if math.isfinite(x - y):
                change = max(change, abs(x - y))
    share = change / scale if scale > 0 else change
    parts = [f"largest relative change {worst:.3g}, {share:.3g} of the largest magnitude"]
    if text:
        parts.append(f"{text} text tokens differ")
    return f"{rel}: " + ", ".join(parts)


def compare(mine: dict[str, str], theirs: dict[str, str], mine_dir: str,
            theirs_dir: str) -> list[str]:
    lines = []
    for rel in sorted(mine.keys() | theirs.keys()):
        if rel not in theirs:
            lines.append(f"{rel}: only in this checkout")
        elif rel not in mine:
            lines.append(f"{rel}: only in the other checkout")
        elif mine[rel] != theirs[rel]:
            lines.append(describe(rel, mine_dir, theirs_dir))
    return lines


def _digest(hashes: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{h}\t{rel}\n" for rel, h in hashes.items())
                          .encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(ROOT, ".identity_out"),
                        help="where the runs go (default: .identity_out in this checkout)")
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="also run the set from this checkout and list every difference")
    parser.add_argument("--arrays", nargs=2, metavar=("SRC", "DIR"),
                        help="(used by the tool itself) write the arrays with SRC's package")
    args = parser.parse_args(argv)
    if args.arrays:
        src, out_dir = args.arrays
        sys.path.insert(0, src)
        _arrays(out_dir)
        return 0
    mine_dir = os.path.join(os.path.abspath(args.out), "this")
    mine = collect(ROOT, mine_dir)
    print(f"identity: {len(mine)} outputs of {ROOT}, usable CPUs: "
          f"{len(os.sched_getaffinity(0))}, manifest sha256 {_digest(mine)}")
    if args.against is None:
        return 0
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    theirs_dir = os.path.join(os.path.abspath(args.out), "against")
    theirs = collect(os.path.abspath(args.against), theirs_dir)
    print(f"against {os.path.abspath(args.against)}: {len(theirs)} outputs, usable CPUs: "
          f"{len(os.sched_getaffinity(0))}, manifest sha256 {_digest(theirs)}")
    lines = compare(mine, theirs, mine_dir, theirs_dir)
    for line in lines:
        print("  " + line)
    print(f"{len(lines)} of {len(mine.keys() | theirs.keys())} outputs differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
