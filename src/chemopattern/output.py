"""Plain-text output: the one text format of every table the package writes.

A table cell is written by :func:`cell` and a table by :func:`tsv`.  Every
float uses 17 significant digits (:func:`fmt`), so files are bit-stable
across reruns and sufficient to reconstruct the float64 values exactly.
Files are always rewritten whole; nothing appends.
"""

from __future__ import annotations

import os

import numpy as np

from .transforms import GridField


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def cell(v) -> str:
    """One value as table text: a str as it is, a bool (numpy's too) as
    ``true``/``false``, an int through ``str`` (every digit kept), and
    any other number through :func:`fmt`."""
    if isinstance(v, float):  # first: the bulk of every table
        return fmt(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return fmt(v)


def tsv(rows) -> str:
    """Rows of values as tab-separated lines of :func:`cell` text, each
    ending in a newline."""
    return "".join(["\t".join(map(cell, row)) + "\n" for row in rows])


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
    return tsv([cols, *zip(diag.times, diag.l2_series, *diag.mode_series.values())])


def trajectory_text(traj) -> str:
    """Planar trajectory as tab-separated values."""
    return tsv([("t", "y1", "y2"), *zip(traj.times, *traj.states.T)])
