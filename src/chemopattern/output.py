"""Plain-text output writers.

All numeric output uses 17 significant digits so files are bit-stable across
reruns and sufficient to reconstruct the float64 values exactly.  Files are
always rewritten whole; nothing appends.
"""

from __future__ import annotations

import os

from .transforms import GridField


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def snapshot_text(field: GridField, t: float) -> str:
    """Grid snapshot: header '# N1 N2 ell1 ell2 t', then row-major values,
    one x1-row per line."""
    n1, n2 = field.values.shape
    g = field.geometry
    lines = [f"# {n1} {n2} {fmt(g.ell1)} {fmt(g.ell2)} {fmt(t)}"]
    for i in range(n1):
        lines.append(" ".join(fmt(v) for v in field.values[i]))
    return "\n".join(lines) + "\n"


def series_text(diag) -> str:
    """Mode series as tab-separated values with named columns."""
    cols = ["t", "l2"] + [f"y_{k1}_{k2}" for (k1, k2) in diag.mode_series]
    lines = ["\t".join(cols)]
    series = list(diag.mode_series.values())
    for i, t in enumerate(diag.times):
        row = [fmt(t), fmt(diag.l2_series[i])] + [fmt(s[i]) for s in series]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def trajectory_text(traj) -> str:
    """Planar trajectory as tab-separated values."""
    lines = ["t\ty1\ty2"]
    for t, (y1, y2) in zip(traj.times, traj.states):
        lines.append(f"{fmt(t)}\t{fmt(y1)}\t{fmt(y2)}")
    return "\n".join(lines) + "\n"
