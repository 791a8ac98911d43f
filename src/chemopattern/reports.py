"""Verification reports: named checks with expected/observed/tolerance.

A report renders both as a human-readable table and as machine-readable TSV.
The TSV schema is one header line

    check<TAB>expected<TAB>observed<TAB>tolerance<TAB>pass

followed by one line per check, whose pass cell is ``true`` or ``false``,
and a final line ``overall<TAB><TAB><TAB><TAB>true|false``.  Values become
text through :func:`output.cell` (floats with 17 significant digits); no
timestamps, so files are byte-stable across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .output import cell, fmt, tsv


@dataclass
class Check:
    name: str
    expected: str
    observed: str
    tolerance: str
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    title: str
    checks: list[Check] = field(default_factory=list)
    provenance: list[str] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, expected, observed, tolerance, passed: bool, note: str = "") -> Check:
        c = Check(name, cell(expected), cell(observed), cell(tolerance), bool(passed), note)
        self.checks.append(c)
        return c

    def add_numeric(self, name: str, expected: float, observed: float,
                    tol: float, relative: bool = False, note: str = "") -> Check:
        err = abs(observed - expected)
        bound = tol * abs(expected) if relative else tol
        return self.add(name, expected, observed,
                        f"{'rel ' if relative else 'abs '}{fmt(tol)}", err <= bound, note)

    def to_table(self) -> str:
        rows = [("check", "expected", "observed", "tolerance", "status")]
        for c in self.checks:
            rows.append((c.name, c.expected, c.observed, c.tolerance,
                         "pass" if c.passed else "FAIL"))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = [self.title, "=" * len(self.title)]
        for j, r in enumerate(rows):
            lines.append("  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip())
            if j == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append("")
        lines.append(f"overall: {'pass' if self.overall else 'FAIL'}")
        for c in self.checks:
            if c.note:
                lines.append(f"note [{c.name}]: {c.note}")
        for p in self.provenance:
            lines.append(f"provenance: {p}")
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        return tsv([("check", "expected", "observed", "tolerance", "pass"),
                    *((c.name, c.expected, c.observed, c.tolerance, c.passed)
                      for c in self.checks),
                    ("overall", "", "", "", self.overall)])
