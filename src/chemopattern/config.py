"""Line-oriented experiment configuration.

The format is deliberately small: ``[section]`` headers, ``key = value``
lines, ``#``/``;`` comments, nothing nested.  Every key has one row in the
schema below: its type, its default, and the requirement that each of its
values, set or defaulted, must meet.  Unknown sections or keys and values
that miss their requirement are errors (with line numbers), so typos cannot
silently change an experiment; only the rules that involve more than one key
are written out, in ``_validate``.  Parsing fills defaults, and serialization
writes the fully resolved configuration in canonical order with 17
significant digits, so ``serialize(parse(x))`` is a normal form: parsing it
again reproduces the same configuration byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .output import cell, fmt
from .reduction import CONVENTIONS
from .simulator import grid_size_ok, record_modes

EXPERIMENT_KINDS = (
    "linear",
    "reduce",
    "ode",
    "simulate",
    "simulate-full",
    "sweep",
    "verify-theorem1",
    "verify-theorem2",
)


class ConfigError(ValueError):
    """A malformed configuration; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [s.strip() for s in text.split(";") if s.strip()]
    return tuple(float(s) for s in items)


def _parse_mode_list(text: str) -> tuple[tuple[tuple[int, int], float], ...]:
    """Mode seeds: 'k1,k2:amp;k1,k2:amp;...'."""
    out = []
    for item in (s.strip() for s in text.split(";")):
        if not item:
            continue
        mode_part, _, amp_part = item.partition(":")
        if not amp_part:
            raise ValueError(f"mode seed {item!r} is missing ':amplitude'")
        k1_s, _, k2_s = mode_part.partition(",")
        out.append(((int(k1_s), int(k2_s)), float(amp_part)))
    return tuple(out)


def _fmt_float_list(xs) -> str:
    return ";".join(map(fmt, xs))


def _fmt_mode_list(ms) -> str:
    return ";".join(f"{k1},{k2}:{fmt(a)}" for (k1, k2), a in ms)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# type tag -> (parser, formatter)
_TYPES = {
    "int": (int, str),
    "float": (float, fmt),
    "str": (str.strip, str),
    "bool": (_parse_bool, cell),
    "float_list": (_parse_float_list, _fmt_float_list),
    "mode_list": (_parse_mode_list, _fmt_mode_list),
}

#: requirement, in the words of the error message -> test.  An unset (None)
#: value meets every requirement, a list meets one when each of its entries
#: does, and inf and nan meet no numeric requirement.
_REQUIREMENTS = {
    "positive": lambda x: 0 < x < math.inf,
    "finite": math.isfinite,
    "> -1": lambda x: -1 < x < math.inf,
    ">= 0": lambda x: 0 <= x < math.inf,
    ">= 1": lambda n: n >= 1,
    "a power of two >= 32": grid_size_ok,
    "'random' or 'modes'": lambda s: s in ("random", "modes"),
    "'formula' or 'paper'": lambda s: s in CONVENTIONS,
}

# section -> key -> (type tag, default, requirement); None default means
# "absent unless set", None requirement that any value of the type will do
SCHEMA: dict[str, dict[str, tuple[str, object, str | None]]] = {
    "experiment": {
        "kind": ("str", None, None),
        "seed": ("int", None, ">= 0"),
        "out": ("str", None, None),
        "coefficient_convention": ("str", "formula", "'formula' or 'paper'"),
    },
    "physical": {
        "d1": ("float", None, None),
        "d2": ("float", None, None),
        "chi": ("float", None, None),
        "r1": ("float", None, None),
        "r2": ("float", None, None),
        "alpha1": ("float", None, None),
        "alpha2": ("float", None, None),
    },
    "model": {
        "mu": ("float", 8.0, "positive"),
        "alpha": ("float", 1.0, "positive"),
        "lambda": ("float", None, "positive"),
        "lambda_factor": ("float", None, "positive"),
    },
    "geometry": {
        "m": ("int", 1, ">= 1"),
        "n": ("int", 1, ">= 1"),
        "ell1": ("float", None, "positive"),
        "ell2": ("float", None, "positive"),
        "ell2_factor": ("float", 1.0, "positive"),
        "k_max": ("int", 32, ">= 1"),
    },
    "linear": {
        "lambda_factors": ("float_list", (0.9, 1.0, 1.1), "positive"),
    },
    "ode": {
        "y0_1": ("float", 1e-3, "finite"),
        "y0_2": ("float", 1e-3, "finite"),
        "dt": ("float", 0.25, "positive"),
        "t_end": ("float", 5000.0, "positive"),
        "n_rays": ("int", 64, ">= 1"),
    },
    "simulation": {
        "n1": ("int", 64, "a power of two >= 32"),
        "n2": ("int", 64, "a power of two >= 32"),
        "dt": ("float", 0.01, "positive"),
        "t_end": ("float", 2000.0, "positive"),
        "record_interval": ("float", 1.0, "positive"),
        "ic_kind": ("str", "random", "'random' or 'modes'"),
        "ic_amplitude": ("float", 1e-3, "positive"),
        "ic_modes": ("mode_list", (), None),
        "snapshot_times": ("float_list", (), ">= 0"),
    },
    "verify": {
        "sigma_list": ("float_list", (0.02, 0.05, 0.1), "positive"),
        "sigma_list_hex": ("float_list", (0.01, 0.02, 0.04), "positive"),
        "ell2_perturb": ("float", 0.01, "> -1"),
        "lambda_perturb": ("float", 0.01, "> -1"),
        "n_rays": ("int", 64, ">= 1"),
        "fit_dt": ("float", 0.02, "positive"),
        "slaving_n1": ("int", 64, "a power of two >= 32"),
        "slaving_n2": ("int", 64, "a power of two >= 32"),
        "slaving_dt": ("float", 0.01, "positive"),
        "slaving_t_end": ("float", 2000.0, "positive"),
        "pde_dt": ("float", 0.02, "positive"),
        "pde_t_end": ("float", 2000.0, "positive"),
        "skip_pde": ("bool", False, None),
    },
    "sweep": {
        "lambda_factors": ("float_list", (0.98, 1.0, 1.02), None),
        "geometry_factors": ("float_list", (0.99, 1.0, 1.01), None),
        "dt": ("float", 0.02, "positive"),
        "t_end": ("float", 400.0, "positive"),
    },
}

#: the kinds that read the working point; sweep (whose cells take geometry
#: and coupling from [sweep]) and verify-theorem2 (which perturbs the resonant
#: point by [verify] amounts) set it themselves
_WORKING_POINT_READERS = tuple(k for k in EXPERIMENT_KINDS if k not in ("sweep", "verify-theorem2"))

#: the kinds that read each (section, key) pair or section; every other kind
#: would silently ignore it, and a section without a row is read by all
_READ_BY = {
    "linear": ("linear",),
    "ode": ("ode",),
    "simulation": ("simulate", "simulate-full"),
    "verify": ("verify-theorem1",),
    ("verify", "ell2_perturb"): ("verify-theorem2",),
    ("verify", "lambda_perturb"): ("verify-theorem2",),
    "sweep": ("sweep",),
    "physical": _WORKING_POINT_READERS,
    ("model", "lambda"): _WORKING_POINT_READERS,
    ("model", "lambda_factor"): _WORKING_POINT_READERS,
    ("geometry", "ell1"): _WORKING_POINT_READERS,
    ("geometry", "ell2"): _WORKING_POINT_READERS,
    ("geometry", "ell2_factor"): _WORKING_POINT_READERS,
    ("experiment", "coefficient_convention"): ("reduce", "ode", "sweep", "verify-theorem1",
                                               "verify-theorem2"),
}


def _set_by_kind(kind: str, section: str, key: str) -> bool:
    """Whether ``kind`` sets [section] key itself or never reads it, so a
    config may not."""
    return kind not in _READ_BY.get((section, key), _READ_BY.get(section, EXPERIMENT_KINDS))


@dataclass
class ExperimentConfig:
    """A fully resolved configuration: every schema key has a value (possibly
    None for optional keys that were not set)."""

    kind: str
    data: dict[str, dict[str, object]] = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.data[section][key]

    def set(self, section: str, key: str, value) -> None:
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise KeyError(f"[{section}] {key} is not a schema key")
        self.data[section][key] = value

    @property
    def seed(self) -> int | None:
        return self.data["experiment"]["seed"]

    @property
    def out_dir(self) -> str | None:
        return self.data["experiment"]["out"]

    @property
    def convention(self) -> str:
        return self.data["experiment"]["coefficient_convention"]


def parse_config(text: str, overrides: dict[tuple[str, str], object] | None = None) -> ExperimentConfig:
    """Parse and validate configuration text; fills defaults.

    ``overrides`` maps (section, key) to a value that replaces the text's
    before validation (the command-line flags); each is checked as a line of
    the text is, and reported without a line number.  Raises :class:`ConfigError`
    (with a line number) on unknown sections or keys, bad values, duplicates,
    and missing required keys.
    """
    values: dict[str, dict[str, object]] = {}
    lines: dict[tuple[str, str], int | None] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", lineno)
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            values.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.split("#", 1)[0].strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if (section, key) in lines:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        parser, _ = _TYPES[SCHEMA[section][key][0]]
        try:
            parsed = parser(val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", lineno) from None
        values[section][key] = parsed
        lines[section, key] = lineno

    if "experiment" not in values or "kind" not in values["experiment"]:
        raise ConfigError("missing [experiment] section with a 'kind' key")
    kind = values["experiment"]["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")

    # fill defaults everywhere so downstream code never re-checks presence
    data: dict[str, dict[str, object]] = {}
    for sec, keys in SCHEMA.items():
        data[sec] = {}
        for key, (_t, default, _r) in keys.items():
            data[sec][key] = values.get(sec, {}).get(key, default)
    for (sec, key), value in (overrides or {}).items():
        data[sec][key] = value
        lines[sec, key] = None

    cfg = ExperimentConfig(kind=kind, data=data)
    _validate(cfg, lines)
    return cfg


def _validate(cfg: ExperimentConfig, lines: dict[tuple[str, str], int | None]) -> None:
    """Check each value against its schema row's requirement, and the rules
    that involve more than one key; ``lines`` maps each explicitly set
    (section, key) to its line number, or None if a flag set it."""
    for (sec, key), lineno in lines.items():
        if _set_by_kind(cfg.kind, sec, key):
            raise ConfigError(f"[{sec}] {key} is not used by kind = {cfg.kind}", lineno)
    model = cfg.data["model"]
    if model["lambda"] is not None and model["lambda_factor"] is not None:
        raise ConfigError("[model] lambda and lambda_factor are mutually exclusive")
    phys = cfg.data["physical"]
    phys_given = any(v is not None for v in phys.values())
    if phys_given:
        missing = [k for k, v in phys.items() if v is None]
        if missing:
            raise ConfigError(f"[physical] is incomplete: missing {', '.join(missing)}")
        if any(sec == "model" for sec, _ in lines):
            raise ConfigError("[physical] and [model] are mutually exclusive")
        bad = [k for k, v in phys.items() if not _REQUIREMENTS["positive"](v)]
        if bad:
            raise ConfigError(f"[physical] entries must be positive: {', '.join(bad)}")
    geo = cfg.data["geometry"]
    if (geo["ell1"] is None) != (geo["ell2"] is None):
        raise ConfigError("[geometry] ell1 and ell2 must be given together")
    m, n = geo["m"], geo["n"]
    if geo["ell1"] is None and (m < 1 or n < 1 or math.gcd(m, n) != 1):
        key = "n" if m >= 1 and n < 1 else "m"  # the one that is set and wrong
        raise ConfigError(f"[geometry] (m, n) = ({m}, {n}) must be coprime and >= 1 "
                          "when ell1 and ell2 are not given", lines.get(("geometry", key)))
    for sec, keys in SCHEMA.items():
        for key, (_t, _d, requirement) in keys.items():
            value = cfg.data[sec][key]
            if requirement is None or value is None:
                continue
            for entry in value if isinstance(value, tuple) else (value,):
                if not _REQUIREMENTS[requirement](entry):
                    raise ConfigError(f"[{sec}] {key} must be {requirement}, got {entry}",
                                      lines.get((sec, key)))
    sim = cfg.data["simulation"]
    for (k1, k2), amp in sim["ic_modes"]:
        if not (0 <= k1 < sim["n1"] and 0 <= k2 < sim["n2"]):
            raise ConfigError(f"[simulation] ic_modes entry {k1},{k2} lies outside the "
                              f"{sim['n1']}x{sim['n2']} grid", lines.get(("simulation", "ic_modes")))
        if not math.isfinite(amp):
            raise ConfigError(f"[simulation] ic_modes entry {k1},{k2} has a non-finite "
                              f"amplitude {amp}", lines.get(("simulation", "ic_modes")))
    if cfg.kind in _READ_BY["simulation"]:
        if round(sim["t_end"] / sim["dt"]) < 1:
            raise ConfigError(f"[simulation] t_end = {sim['t_end']:g} is at most half a step of "
                              f"dt = {sim['dt']:g}: the run would take no step",
                              lines.get(("simulation", "t_end"), lines.get(("simulation", "dt"))))
        for k1, k2 in record_modes(m, n):
            if k1 >= sim["n1"] or k2 >= sim["n2"]:
                key = "m" if k1 >= sim["n1"] else "n"  # k1 is a multiple of m, k2 of n
                raise ConfigError(f"[geometry] {key} = {geo[key]}: the recorded mode {k1},{k2} "
                                  f"lies outside the {sim['n1']}x{sim['n2']} [simulation] grid",
                                  lines.get(("geometry", key)))
    # the kinds that draw random initial data, and the settings under which they do
    random_ic = cfg.data["simulation"]["ic_kind"] == "random"
    draws = {"simulate": random_ic, "simulate-full": random_ic, "sweep": True,
             "verify-theorem1": not cfg.data["verify"]["skip_pde"]}
    if draws.get(cfg.kind, False) and cfg.seed is None:
        raise ConfigError(f"experiment kind {cfg.kind!r} is randomized; [experiment] seed is required")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form (the normal form), without the keys the kind sets itself."""
    lines: list[str] = []
    for sec in SCHEMA:
        keys = [k for k in SCHEMA[sec]
                if cfg.data[sec][k] is not None and not _set_by_kind(cfg.kind, sec, k)]
        if not keys:
            continue
        lines.append(f"[{sec}]")
        for key in keys:
            _, write = _TYPES[SCHEMA[sec][key][0]]
            lines.append(f"{key} = {write(cfg.data[sec][key])}")
        lines.append("")
    return "\n".join(lines)
