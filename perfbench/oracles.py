"""Output checks that share no code with the timed path.

The planar vector field and its Jacobian are written out again here from the
amplitude equations in the README, so the determinant sign rules are checked
against an implementation the timed code never calls.  Report files are
read back as text.
"""

from __future__ import annotations

import math
import os


def jacobian_det(y1: float, y2: float, rc) -> float:
    """det J of

        y1' = s1*y1 + 4*a*y1*y2 + (b1 + 2*b2)/4 * y1^3 + 2*b2*y1*y2^2
        y2' = s2*y2 +   a*y1^2  +  b1*y2^3            +   b2*y2*y1^2
    """
    a, b1, b2 = rc.frak_a, rc.frak_b1, rc.frak_b2
    j11 = rc.sigma1 + 4 * a * y2 + 0.75 * (b1 + 2 * b2) * y1 * y1 + 2 * b2 * y2 * y2
    j12 = 4 * a * y1 + 4 * b2 * y1 * y2
    j21 = 2 * a * y1 + 2 * b2 * y1 * y2
    j22 = rc.sigma2 + 3 * b1 * y2 * y2 + b2 * y1 * y1
    return j11 * j22 - j12 * j21


def sign_rules_hold(rc, eqs) -> bool:
    """sgn det J = sgn(b1 - 2*b2) at roll, rectangle and mixed points and the
    opposite sign at ratio-locked (hexagon) points."""
    want = math.copysign(1.0, rc.frak_b1 - 2.0 * rc.frak_b2)
    for e in eqs:
        if e.pattern_class == "trivial":
            continue
        got = math.copysign(1.0, jacobian_det(e.y[0], e.y[1], rc))
        if got != (-want if e.pattern_class == "hexagon" else want):
            return False
    return True


def nearest_mismatch(y1: float, y2: float, points) -> float:
    """Relative distance from (|y1|, |y2|) to the closest of ``points``."""
    best = math.inf
    for p1, p2 in points:
        scale = math.hypot(p1, p2)
        if scale > 0:
            best = min(best, math.hypot(abs(y1) - abs(p1), abs(y2) - abs(p2)) / scale)
    return best


def read_table(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def summary_value(out_dir: str, key: str) -> str:
    for row in read_table(os.path.join(out_dir, "summary.tsv")):
        if row[0] == key:
            return row[1]
    raise KeyError(key)


def structural_rows_pass(report_tsv: str) -> tuple[bool, list[str]]:
    """Every check row except the "(as stated)" ones passes; returns the
    names of the rows that do not."""
    rows = read_table(report_tsv)
    if rows[0][:5] != ["check", "expected", "observed", "tolerance", "pass"]:
        return False, ["header"]
    bad = [r[0] for r in rows[1:]
           if r[0] != "overall" and "(as stated)" not in r[0] and r[-1] != "true"]
    return not bad and len(rows) > 2, bad


def dir_digest(out_dir: str) -> bytes:
    """All files of ``out_dir``, by name, as one byte string."""
    parts = []
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            parts.append(name.encode() + b"\0" + fh.read())
    return b"\1".join(parts)
