"""Line-oriented experiment configuration.

The format is deliberately small: ``[section]`` headers, ``key = value``
lines, ``#``/``;`` comments, nothing nested.  Every key is declared in the
schema below with a type and default; unknown sections or keys are errors
(with line numbers), so typos cannot silently change an experiment.  Parsing
fills defaults, and serialization writes the fully resolved configuration in
canonical order with 17 significant digits, so ``serialize(parse(x))`` is a
normal form: parsing it again reproduces the same configuration byte for
byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_float_list(xs) -> str:
    return ";".join(_fmt_float(x) for x in xs)


def _fmt_mode_list(ms) -> str:
    return ";".join(f"{k1},{k2}:{_fmt_float(a)}" for (k1, k2), a in ms)


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
    "float": (float, _fmt_float),
    "str": (str.strip, str),
    "bool": (_parse_bool, lambda b: "true" if b else "false"),
    "float_list": (_parse_float_list, _fmt_float_list),
    "mode_list": (_parse_mode_list, _fmt_mode_list),
}

# section -> key -> (type tag, default); None default means "absent unless set"
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "experiment": {
        "kind": ("str", None),
        "seed": ("int", None),
        "out": ("str", None),
        "coefficient_convention": ("str", "formula"),
    },
    "physical": {
        "d1": ("float", None),
        "d2": ("float", None),
        "chi": ("float", None),
        "r1": ("float", None),
        "r2": ("float", None),
        "alpha1": ("float", None),
        "alpha2": ("float", None),
    },
    "model": {
        "mu": ("float", 8.0),
        "alpha": ("float", 1.0),
        "lambda": ("float", None),
        "lambda_factor": ("float", None),
    },
    "geometry": {
        "m": ("int", 1),
        "n": ("int", 1),
        "ell1": ("float", None),
        "ell2": ("float", None),
        "ell2_factor": ("float", 1.0),
        "k_max": ("int", 32),
    },
    "linear": {
        "lambda_factors": ("float_list", (0.9, 1.0, 1.1)),
    },
    "ode": {
        "y0_1": ("float", 1e-3),
        "y0_2": ("float", 1e-3),
        "dt": ("float", 0.25),
        "t_end": ("float", 5000.0),
        "n_rays": ("int", 64),
        "ray_radius": ("float", 0.01),
    },
    "simulation": {
        "n1": ("int", 64),
        "n2": ("int", 64),
        "dt": ("float", 0.01),
        "t_end": ("float", 2000.0),
        "dealias_factor": ("int", 2),
        "record_interval": ("float", 1.0),
        "ic_kind": ("str", "random"),
        "ic_amplitude": ("float", 1e-3),
        "ic_kmax": ("int", 8),
        "ic_modes": ("mode_list", ()),
        "snapshot_times": ("float_list", ()),
        "noise_floor": ("float", 1e-3),
        "steady_tol": ("float", 1e-8),
        "steady_window": ("float", 50.0),
    },
    "verify": {
        "lambda_factor": ("float", 1.02),
        "subcritical_factor": ("float", 0.99),
        "sigma_list": ("float_list", (0.02, 0.05, 0.1)),
        "sigma_list_hex": ("float_list", (0.01, 0.02, 0.04)),
        "ell2_perturb": ("float", 0.01),
        "lambda_perturb": ("float", 0.01),
        "n_rays": ("int", 64),
        "ray_radius": ("float", 0.01),
        "fit_n1": ("int", 32),
        "fit_n2": ("int", 32),
        "fit_dt": ("float", 0.02),
        "slaving_n1": ("int", 64),
        "slaving_n2": ("int", 64),
        "slaving_dt": ("float", 0.01),
        "slaving_t_end": ("float", 2000.0),
        "pde_n1": ("int", 32),
        "pde_n2": ("int", 32),
        "pde_dt": ("float", 0.02),
        "pde_t_end": ("float", 2000.0),
        "skip_pde": ("bool", False),
    },
    "sweep": {
        "lambda_factors": ("float_list", (0.98, 1.0, 1.02)),
        "geometry_factors": ("float_list", (0.99, 1.0, 1.01)),
        "n1": ("int", 32),
        "n2": ("int", 32),
        "dt": ("float", 0.02),
        "t_end": ("float", 400.0),
        "ic_amplitude": ("float", 1e-3),
    },
}

#: kinds whose default initial data is randomized, making a seed mandatory
_RANDOMIZED_KINDS = ("simulate", "simulate-full", "sweep", "verify-theorem1", "verify-theorem2")

#: the kinds that read each kind-specific section; every other kind would
#: silently ignore it
_READ_BY = {
    "linear": ("linear",),
    "ode": ("ode",),
    "simulation": ("simulate", "simulate-full"),
    "verify": ("verify-theorem1", "verify-theorem2"),
    "sweep": ("sweep",),
}

#: sections or (section, key) pairs a kind sets itself or never reads: the
#: kind-specific sections of other kinds, and for sweep (whose cells take
#: geometry and coupling from [sweep]) and verify-theorem2 (which perturbs
#: the resonant point by [verify] amounts) the working point
_WORKING_POINT_KEYS = ("physical", ("model", "lambda"), ("model", "lambda_factor"),
                       ("geometry", "ell1"), ("geometry", "ell2"), ("geometry", "ell2_factor"))
_SET_BY_KIND = {kind: tuple(sec for sec, readers in _READ_BY.items() if kind not in readers)
                + (_WORKING_POINT_KEYS if kind in ("sweep", "verify-theorem2") else ())
                for kind in EXPERIMENT_KINDS}


def _positive(x) -> bool:
    """A positive real number: inf and nan are not."""
    return math.isfinite(x) and x > 0


def _positive_or_unset(x) -> bool:
    return x is None or _positive(x)


def _is_grid_size(n: int) -> bool:
    return n >= 32 and n & (n - 1) == 0


#: range checks on every value, set or defaulted: (section, keys,
#: requirement, test)
_RANGES = (
    ("model", ("mu", "alpha", "lambda", "lambda_factor"), "positive", _positive_or_unset),
    ("geometry", ("ell1", "ell2", "ell2_factor"), "positive", _positive_or_unset),
    ("ode", ("dt", "t_end", "ray_radius"), "positive", _positive),
    ("ode", ("n_rays",), ">= 1", lambda n: n >= 1),
    ("ode", ("y0_1", "y0_2"), "finite", math.isfinite),
    ("simulation", ("n1", "n2"), "a power of two >= 32", _is_grid_size),
    ("simulation", ("dt", "t_end", "record_interval"), "positive", _positive),
    ("simulation", ("dealias_factor",), ">= 2", lambda f: f >= 2),
    ("verify", ("n_rays",), ">= 1", lambda n: n >= 1),
    ("verify", ("ray_radius", "fit_dt", "slaving_dt", "slaving_t_end", "pde_dt", "pde_t_end"),
     "positive", _positive),
    ("verify", ("fit_n1", "fit_n2", "slaving_n1", "slaving_n2", "pde_n1", "pde_n2"),
     "a power of two >= 32", _is_grid_size),
    ("sweep", ("n1", "n2"), "a power of two >= 32", _is_grid_size),
    ("sweep", ("dt", "t_end"), "positive", _positive),
)


def _set_by_kind(kind: str, section: str, key: str) -> bool:
    """Whether ``kind`` sets [section] key itself or never reads it, so a
    config may not."""
    keys = _SET_BY_KIND[kind]
    return section in keys or (section, key) in keys


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
    before validation (the command-line flags).  Raises :class:`ConfigError`
    (with a line number) on unknown sections or keys, bad values, duplicates,
    and missing required keys.
    """
    values: dict[str, dict[str, object]] = {}
    lines: dict[tuple[str, str], int] = {}
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
        for key, (_t, default) in keys.items():
            data[sec][key] = values.get(sec, {}).get(key, default)
    for (sec, key), value in (overrides or {}).items():
        data[sec][key] = value

    cfg = ExperimentConfig(kind=kind, data=data)
    _validate(cfg, lines)
    return cfg


def _validate(cfg: ExperimentConfig, lines: dict[tuple[str, str], int]) -> None:
    """Cross-key checks; ``lines`` maps each explicitly set (section, key) to
    its line number."""
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
        bad = [k for k, v in phys.items() if not _positive(v)]
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
    for sec, keys, requirement, holds in _RANGES:
        for key in keys:
            value = cfg.data[sec][key]
            if not holds(value):
                raise ConfigError(f"[{sec}] {key} must be {requirement}, got {value}",
                                  lines.get((sec, key)))
    if cfg.data["simulation"]["ic_kind"] not in ("random", "modes"):
        raise ConfigError(f"[simulation] ic_kind must be 'random' or 'modes', "
                          f"got {cfg.data['simulation']['ic_kind']!r}")
    conv = cfg.convention
    if conv not in ("formula", "paper"):
        raise ConfigError(f"coefficient_convention must be 'formula' or 'paper', got {conv!r}")
    randomized = cfg.kind in _RANDOMIZED_KINDS and not (
        cfg.kind in ("simulate", "simulate-full")
        and cfg.data["simulation"]["ic_kind"] == "modes")
    if randomized and cfg.seed is None:
        raise ConfigError(f"experiment kind {cfg.kind!r} is randomized; [experiment] seed is required")
    if cfg.seed is not None and cfg.seed < 0:
        raise ConfigError(f"[experiment] seed must be >= 0, got {cfg.seed}",
                          lines.get(("experiment", "seed")))


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
            _, fmt = _TYPES[SCHEMA[sec][key][0]]
            lines.append(f"{key} = {fmt(cfg.data[sec][key])}")
        lines.append("")
    return "\n".join(lines)
