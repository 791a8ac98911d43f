import math
import re

import numpy as np
import pytest

from chemopattern.config import (
    ConfigError,
    SCHEMA,
    _REQUIREMENTS,
    _TYPES,
    EXPERIMENT_KINDS,
    _set_by_kind,
    parse_config,
    serialize_config,
)


MINIMAL_LINEAR = """
[experiment]
kind = linear
"""

#: (kind, section, entry, requirement, value as reported) of out-of-range entries
RANGE_CASES = [
    ("verify-theorem1", "verify", "n_rays = 0", ">= 1", "0"),
    ("verify-theorem1", "verify", "fit_dt = -0.5", "positive", "-0.5"),
    ("verify-theorem1", "verify", "slaving_dt = 0", "positive", "0.0"),
    ("verify-theorem1", "verify", "slaving_t_end = -10", "positive", "-10.0"),
    ("verify-theorem1", "verify", "pde_dt = 0", "positive", "0.0"),
    ("verify-theorem1", "verify", "pde_t_end = 0", "positive", "0.0"),
    ("verify-theorem1", "verify", "slaving_n1 = 0", "a power of two >= 32", "0"),
    ("verify-theorem1", "verify", "slaving_n2 = 96", "a power of two >= 32", "96"),
    ("simulate", "simulation", "n1 = 16", "a power of two >= 32", "16"),
    ("simulate-full", "simulation", "n2 = 100", "a power of two >= 32", "100"),
    ("simulate", "simulation", "dt = 0", "positive", "0.0"),
    ("simulate-full", "simulation", "t_end = -5", "positive", "-5.0"),
    ("simulate", "simulation", "record_interval = 0", "positive", "0.0"),
    ("sweep", "sweep", "dt = -0.02", "positive", "-0.02"),
    ("sweep", "sweep", "t_end = 0", "positive", "0.0"),
    ("simulate", "simulation", "t_end = inf", "positive", "inf"),
    ("simulate-full", "simulation", "dt = nan", "positive", "nan"),
    ("sweep", "sweep", "t_end = inf", "positive", "inf"),
    ("verify-theorem1", "verify", "pde_t_end = inf", "positive", "inf"),
    ("ode", "ode", "t_end = inf", "positive", "inf"),
    ("ode", "ode", "y0_1 = nan", "finite", "nan"),
    ("ode", "ode", "y0_2 = -inf", "finite", "-inf"),
    ("linear", "model", "mu = inf", "positive", "inf"),
    ("reduce", "model", "alpha = -1", "positive", "-1.0"),
    ("reduce", "model", "lambda = inf", "positive", "inf"),
    ("linear", "model", "lambda_factor = nan", "positive", "nan"),
    ("linear", "model", "lambda_factor = 0", "positive", "0.0"),
    ("verify-theorem1", "geometry", "ell1 = inf\nell2 = 4", "positive", "inf"),
    ("linear", "geometry", "ell2 = -7\nell1 = 4", "positive", "-7.0"),
    ("linear", "geometry", "ell2_factor = inf", "positive", "inf"),
    ("linear", "geometry", "k_max = 0", ">= 1", "0"),
    ("simulate", "simulation", "ic_amplitude = 0", "positive", "0.0"),
    ("simulate", "simulation", "snapshot_times = 0;-5", ">= 0", "-5.0"),
    ("linear", "linear", "lambda_factors = 0.9;-1", "positive", "-1.0"),
    ("verify-theorem1", "verify", "sigma_list = 0.02;0", "positive", "0.0"),
    ("verify-theorem1", "verify", "sigma_list_hex = nan", "positive", "nan"),
    ("verify-theorem1", "model", "lambda_factor = -inf", "positive", "-inf"),
    ("verify-theorem2", "verify", "ell2_perturb = -1", "> -1", "-1.0"),
    ("verify-theorem2", "verify", "lambda_perturb = -2", "> -1", "-2.0"),
]

#: (kind, section, entry) of the settings that are fixed in the code, each at
#: the value it has there; no kind accepts them
FIXED_SETTINGS = [
    ("simulate", "simulation", "noise_floor = 1e-3"), ("simulate", "simulation", "steady_tol = 1e-8"),
    ("simulate", "simulation", "steady_window = 50"), ("simulate-full", "simulation", "ic_kmax = 8"),
    ("ode", "ode", "ray_radius = 0.01"), ("verify-theorem1", "verify", "ray_radius = 0.01"),
    ("verify-theorem1", "verify", "subcritical_factor = 0.99"),
    ("verify-theorem1", "verify", "fit_n1 = 32"), ("verify-theorem1", "verify", "fit_n2 = 32"),
    ("verify-theorem1", "verify", "pde_n1 = 32"), ("verify-theorem1", "verify", "pde_n2 = 32"),
    ("sweep", "sweep", "n1 = 32"), ("sweep", "sweep", "n2 = 32"),
    ("sweep", "sweep", "ic_amplitude = 1e-3"),
]

#: the kinds that never read the coefficient convention
NO_CONVENTION_KINDS = ("linear", "simulate", "simulate-full")

WORKING_POINT_ENTRIES = [("physical", "d1 = 8"), ("model", "lambda = 18"),
                         ("model", "lambda_factor = 1.1"), ("geometry", "ell1 = 4"),
                         ("geometry", "ell2 = 7"), ("geometry", "ell2_factor = 1.5")]


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL_LINEAR)
        assert cfg.kind == "linear"
        assert cfg.get("model", "mu") == 8.0
        assert cfg.get("geometry", "k_max") == 32
        assert cfg.get("linear", "lambda_factors") == (0.9, 1.0, 1.1)
        assert cfg.convention == "formula"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# leading comment\n\n[experiment]\n; other comment\nkind = linear\n"
                           "[model]\nmu = 2.5  # inline comment\n")
        assert cfg.get("model", "mu") == 2.5

    def test_negative_mu_rejected_with_context(self):
        with pytest.raises(ConfigError, match="mu must be positive"):
            parse_config("[experiment]\nkind = linear\n[model]\nmu = -1\n")

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 4"):
            parse_config("[experiment]\nkind = linear\n[model]\nwhatever = 3\n")

    def test_unknown_section_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[experiment]\nkind = linear\n[nonsense]\n")

    def test_type_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 4.*bad value"):
            parse_config("[experiment]\nkind = linear\n[model]\nmu = abc\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[experiment]\nkind = linear\nkind = reduce\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("kind = linear\n")

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config("[model]\nmu = 1\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            parse_config("[experiment]\nkind = frobnicate\n")

    def test_lambda_and_factor_conflict(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("[experiment]\nkind = linear\n[model]\nlambda = 18\nlambda_factor = 1.1\n")

    def test_physical_and_model_conflict(self):
        text = ("[experiment]\nkind = linear\n[model]\nmu = 8\n[physical]\n"
                "d1 = 8\nd2 = 1\nchi = 1\nr1 = 18\nr2 = 1\nalpha1 = 1\nalpha2 = 1\n")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config(text)

    def test_non_finite_physical_entry(self):
        text = ("[experiment]\nkind = linear\n[physical]\nd1 = 1\nd2 = 1\nchi = inf\nr1 = 1\n"
                "r2 = 1\nalpha1 = 1\nalpha2 = 1\n")
        with pytest.raises(ConfigError, match=r"\[physical\] entries must be positive: chi$"):
            parse_config(text)

    def test_incomplete_physical_block(self):
        with pytest.raises(ConfigError, match="incomplete"):
            parse_config("[experiment]\nkind = linear\n[physical]\nd1 = 1\n")

    def test_randomized_kind_requires_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("[experiment]\nkind = sweep\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 3: \[experiment\] seed must be >= 0, got -1"):
            parse_config("[experiment]\nkind = sweep\nseed = -1\n")

    def test_a_flag_value_is_reported_without_the_line_it_replaces(self):
        with pytest.raises(ConfigError, match=r"^\[experiment\] seed must be >= 0, got -2$"):
            parse_config("[experiment]\nkind = sweep\nseed = 3\n", {("experiment", "seed"): -2})

    # sweep and verify-theorem2 set their own geometry and coupling, the
    # sweep its own grids, each kind-specific section is read by its kinds
    # only, and the convention by the kinds that reduce, so these keys would
    # be silently ignored
    @pytest.mark.parametrize("kind, section, entry", [
        (kind, section, entry)
        for kind in ("sweep", "verify-theorem2") for section, entry in WORKING_POINT_ENTRIES
    ] + [("sweep", "simulation", "n1 = 64"), ("sweep", "simulation", "dt = 0.05")] + [
        (kind, "simulation", "n1 = 16")
        for kind in ("linear", "reduce", "ode", "verify-theorem1", "verify-theorem2")] + [
        ("linear", "sweep", "dt = 7"), ("simulate", "verify", "fit_dt = 3"),
        ("reduce", "ode", "n_rays = -5"), ("sweep", "linear", "lambda_factors = 1.1"),
        ("verify-theorem1", "ode", "dt = 0.5"), ("ode", "verify", "n_rays = 8"),
        ("simulate-full", "sweep", "t_end = 10"), ("verify-theorem2", "linear", "lambda_factors = 1"),
        ("reduce", "verify", "pde_dt = 1.05"), ("sweep", "verify", "n_rays = 8"),
        ("linear", "ode", "t_end = 10"), ("ode", "sweep", "dt = 0.05")] + [
        (kind, "experiment", "coefficient_convention = paper") for kind in NO_CONVENTION_KINDS] + [
        # theorem2 reads only the perturbations of [verify], theorem1 all but them
        ("verify-theorem2", "verify", "pde_dt = 0.05"), ("verify-theorem2", "verify", "skip_pde = true"),
        ("verify-theorem2", "verify", "fit_dt = 0.05"),
        ("verify-theorem1", "verify", "ell2_perturb = 0.02")])
    def test_sweep_rejects_keys_it_ignores(self, kind, section, entry):
        key = f"[{section}] {entry.partition(' =')[0]}"
        text = f"[experiment]\nkind = {kind}\nseed = 1\n[{section}]\n{entry}\n"
        with pytest.raises(ConfigError, match=rf"line 5: {re.escape(key)} is not used by kind = {kind}"):
            parse_config(text)

    @pytest.mark.parametrize("kind, section, entry", FIXED_SETTINGS,
                             ids=[f"{sec}.{entry.partition(' =')[0]}" for _k, sec, entry in FIXED_SETTINGS])
    def test_fixed_settings_are_unknown_keys(self, kind, section, entry):
        key = entry.partition(" =")[0]
        text = f"[experiment]\nkind = {kind}\nseed = 1\n[{section}]\n{entry}\n"
        with pytest.raises(ConfigError, match=rf"^line 5: unknown key '{key}' in \[{section}\]$"):
            parse_config(text)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_convention_flag_is_checked_as_a_line_is(self, kind):
        # a flag has no line, so its error has none either
        text = f"[experiment]\nkind = {kind}\nseed = 1\n"
        override = {("experiment", "coefficient_convention"): "paper"}
        if kind in NO_CONVENTION_KINDS:
            message = f"[experiment] coefficient_convention is not used by kind = {kind}"
            with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
                parse_config(text, override)
        else:
            assert parse_config(text, override).convention == "paper"
            assert parse_config(text + "coefficient_convention = paper\n").convention == "paper"

    @pytest.mark.parametrize("entry, message", [
        ("dt = 0", "dt must be positive, got 0.0"), ("t_end = -300", "t_end must be positive, got -300.0"),
        ("n_rays = -5", "n_rays must be >= 1, got -5"),
    ])
    def test_ode_ranges(self, entry, message):
        text = f"[experiment]\nkind = ode\n[ode]\ny0_1 = 0.002\n{entry}\n"
        with pytest.raises(ConfigError, match=rf"^line 5: \[ode\] {re.escape(message)}$"):
            parse_config(text)

    @pytest.mark.parametrize("kind, section, entry, requirement, got", RANGE_CASES,
                             ids=[f"{sec}.{entry.partition(' =')[0]}"
                                  + ("" if math.isfinite(float(got)) else f"={got}")
                                  for _k, sec, entry, _r, got in RANGE_CASES])
    def test_section_ranges(self, kind, section, entry, requirement, got):
        key = entry.partition(" =")[0]
        text = f"[experiment]\nkind = {kind}\nseed = 1\n[{section}]\n{entry}\n"
        message = f"[{section}] {key} must be {requirement}, got {got}"
        with pytest.raises(ConfigError, match=rf"^line 5: {re.escape(message)}$"):
            parse_config(text)

    def test_other_kinds_accept_working_point_keys(self):
        cfg = parse_config("[experiment]\nkind = verify-theorem2\nseed = 1\n"
                           "[model]\nmu = 9\n[geometry]\nm = 2\nk_max = 16\n")
        assert (cfg.get("model", "mu"), cfg.get("geometry", "m")) == (9.0, 2)
        cfg = parse_config("[experiment]\nkind = verify-theorem1\nseed = 1\n"
                           "[model]\nlambda = 18.5\n[geometry]\nell2_factor = 1.5\n")
        assert (cfg.get("model", "lambda"), cfg.get("geometry", "ell2_factor")) == (18.5, 1.5)

    @pytest.mark.parametrize("geometry, line", [
        ("m = 2\nn = 4", 5), ("m = 3\nn = 3", 5), ("n = 0", 5), ("m = 0\nn = 2", 5),
        ("m = 1\nn = 0", 6),
    ])
    def test_resonant_rectangle_needs_coprime_modes(self, geometry, line):
        text = f"[experiment]\nkind = sweep\nseed = 1\n[geometry]\n{geometry}\n"
        with pytest.raises(ConfigError, match=rf"^line {line}: \[geometry\] \(m, n\) = .* must be coprime"):
            parse_config(text)

    @pytest.mark.parametrize("kind", ["linear", "simulate", "sweep"])
    @pytest.mark.parametrize("entry", ["m = -1", "m = 0", "n = -2"])
    def test_modes_are_at_least_one_with_any_geometry(self, kind, entry):
        key, _, value = entry.partition(" = ")
        geometry = "" if kind == "sweep" else "ell1 = 4\nell2 = 7\n"
        text = f"[experiment]\nkind = {kind}\nseed = 1\n[geometry]\n{entry}\n{geometry}"
        message = ("must be coprime" if kind == "sweep"
                   else re.escape(f"[geometry] {key} must be >= 1, got {value}"))
        with pytest.raises(ConfigError, match=rf"^line 5: .*{message}"):
            parse_config(text)

    @pytest.mark.parametrize("kind", ["simulate", "simulate-full"])
    def test_recorded_modes_must_lie_on_the_simulation_grid(self, kind):
        # a run records up to (2m, 2n) and (0, 4n): 2m < n1 and 4n < n2
        text = (f"[experiment]\nkind = {kind}\nseed = 1\n[geometry]\nm = {{}}\nn = {{}}\n"
                "ell1 = 4\nell2 = 7\n[simulation]\nn1 = 32\nn2 = 64\n")
        parse_config(text.format(15, 15))
        for m, n, line, message in [
                (16, 15, 5, "[geometry] m = 16: the recorded mode 32,0 lies outside the 32x64"),
                (15, 16, 6, "[geometry] n = 16: the recorded mode 0,64 lies outside the 32x64")]:
            with pytest.raises(ConfigError, match=rf"^line {line}: {re.escape(message)} "):
                parse_config(text.format(m, n))

    @pytest.mark.parametrize("kind", ["simulate", "simulate-full"])
    def test_a_run_shorter_than_half_a_step_is_rejected(self, kind):
        text = f"[experiment]\nkind = {kind}\nseed = 1\n[simulation]\n"
        for entries, line, t_end, dt in [("dt = 0.01\nt_end = 0.004\n", 6, "0.004", "0.01"),
                                         ("dt = 5000\n", 5, "2000", "5000")]:
            message = (f"[simulation] t_end = {t_end} is at most half a step of dt = {dt}: "
                       "the run would take no step")
            with pytest.raises(ConfigError, match=rf"^line {line}: {re.escape(message)}$"):
                parse_config(text + entries)
        parse_config(text + "dt = 0.01\nt_end = 0.006\n")

    def test_verify_section_has_no_coupling_key(self):
        # theorem1's coupling is [model] lambda_factor, as for every other kind
        with pytest.raises(ConfigError, match=r"^line 5: unknown key 'lambda_factor' in \[verify\]$"):
            parse_config("[experiment]\nkind = verify-theorem1\nseed = 1\n[verify]\n"
                         "lambda_factor = 1.3\n")

    def test_kinds_that_record_no_modes_leave_their_range_open(self):
        cfg = parse_config("[experiment]\nkind = reduce\n[geometry]\nm = 40\nn = 17\n")
        assert (cfg.get("geometry", "m"), cfg.get("geometry", "n")) == (40, 17)

    def test_explicit_geometry_allows_any_modes(self):
        cfg = parse_config("[experiment]\nkind = linear\n[geometry]\nm = 2\nn = 2\n"
                           "ell1 = 4\nell2 = 7\n")
        assert (cfg.get("geometry", "m"), cfg.get("geometry", "n")) == (2, 2)

    def test_mode_seeded_simulation_needs_no_seed(self):
        cfg = parse_config("[experiment]\nkind = simulate\n[simulation]\nic_kind = modes\n"
                           "ic_modes = 1,1:0.002;0,2:0.001\n")
        assert cfg.get("simulation", "ic_modes") == (((1, 1), 0.002), ((0, 2), 0.001))

    def test_bad_mode_list(self):
        with pytest.raises(ConfigError, match="amplitude"):
            parse_config("[experiment]\nkind = simulate\n[simulation]\nic_kind = modes\n"
                         "ic_modes = 1,1\n")

    @pytest.mark.parametrize("kind, section, entry, message", [
        ("simulate", "simulation", "ic_kind = Random",
         "[simulation] ic_kind must be 'random' or 'modes', got Random"),
        ("reduce", "experiment", "coefficient_convention = Paper",
         "[experiment] coefficient_convention must be 'formula' or 'paper', got Paper")],
        ids=["simulation.ic_kind", "experiment.coefficient_convention"])
    def test_choice_ranges(self, kind, section, entry, message):
        text = f"[experiment]\nkind = {kind}\nseed = 1\n[{section}]\n{entry}\n"
        with pytest.raises(ConfigError, match=rf"^line 5: {re.escape(message)}$"):
            parse_config(text)

    # theorem2 and a theorem1 run without the simulation stage draw nothing at random
    @pytest.mark.parametrize("text", ["kind = verify-theorem2\n",
                                      "kind = verify-theorem1\n[verify]\nskip_pde = true\n"],
                             ids=["verify-theorem2", "verify-theorem1-skip_pde"])
    def test_deterministic_verify_needs_no_seed(self, text):
        assert parse_config("[experiment]\n" + text).seed is None


class TestRoundTrip:
    def test_serialize_parse_idempotent_minimal(self):
        cfg = parse_config(MINIMAL_LINEAR)
        text1 = serialize_config(cfg)
        text2 = serialize_config(parse_config(text1))
        assert text1 == text2

    def test_serialize_parse_idempotent_generated(self):
        # 80 random configurations drawn from the schema, 10 of each kind,
        # without the keys a kind sets itself (parsing rejects those)
        rng = np.random.default_rng(17)
        parsed = dict.fromkeys(EXPERIMENT_KINDS, 0)
        for trial in range(80):
            kind = EXPERIMENT_KINDS[trial % len(EXPERIMENT_KINDS)]
            lines = ["[experiment]", f"kind = {kind}", "seed = 1"]
            for sec, keys in SCHEMA.items():
                if sec in ("experiment", "physical") or rng.random() < 0.4:
                    continue
                entries = []
                for key, (tname, default, _requirement) in keys.items():
                    if rng.random() < 0.6 or _set_by_kind(kind, sec, key):
                        continue
                    if tname == "float":
                        entries.append(f"{key} = {rng.uniform(0.5, 4.0):.6g}")
                    elif key.endswith(("n1", "n2")):  # grid sizes: powers of two >= 32
                        entries.append(f"{key} = {32 << rng.integers(0, 3)}")
                    elif tname == "int":
                        entries.append(f"{key} = {rng.integers(1, 6)}")
                    elif tname == "float_list":
                        vals = rng.uniform(0.5, 2.0, size=3)
                        entries.append(f"{key} = " + ";".join(f"{v:.5g}" for v in vals))
                if entries:
                    lines.append(f"[{sec}]")
                    lines.extend(entries)
            try:
                cfg = parse_config("\n".join(lines) + "\n")
            except ConfigError:
                continue  # randomly generated combinations may violate cross-field rules
            parsed[kind] += 1
            text1 = serialize_config(cfg)
            text2 = serialize_config(parse_config(text1))
            assert text1 == text2
        assert min(parsed.values()) >= 3, parsed

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_defaults_of_keys_a_kind_sets_are_not_written(self, kind):
        text = serialize_config(parse_config(f"[experiment]\nkind = {kind}\nseed = 3\n"))
        assert ("ell2_factor" in text) == (kind not in ("sweep", "verify-theorem2"))
        assert ("[simulation]" in text) == (kind in ("simulate", "simulate-full"))
        assert ("[linear]" in text) == (kind == "linear")
        assert ("[ode]" in text) == (kind == "ode")
        assert ("[sweep]" in text) == (kind == "sweep")
        assert ("[verify]" in text) == (kind in ("verify-theorem1", "verify-theorem2"))
        assert ("coefficient_convention" in text) == (kind not in NO_CONVENTION_KINDS)
        assert serialize_config(parse_config(text)) == text

    def test_all_schema_types_have_formatters(self):
        for sec, keys in SCHEMA.items():
            for key, (tname, _default, _requirement) in keys.items():
                assert tname in _TYPES, f"[{sec}] {key} has unknown type {tname}"

    def test_seventeen_digit_floats(self):
        cfg = parse_config("[experiment]\nkind = linear\n[model]\nmu = 0.1\n")
        assert "mu = 0.10000000000000001" in serialize_config(cfg)


#: rows of a numeric type without a requirement, each with the reason
UNCONSTRAINED = {
    **{("physical", key): "the block rule checks the seven entries together"
       for key in SCHEMA["physical"]},
    ("sweep", "lambda_factors"): "a factor a cell cannot run becomes that cell's error row",
    ("sweep", "geometry_factors"): "a factor a cell cannot run becomes that cell's error row",
}


class TestSchemaRows:
    def test_every_numeric_row_has_a_requirement(self):
        bare = {(sec, key) for sec, keys in SCHEMA.items()
                for key, (tname, _default, requirement) in keys.items()
                if tname in ("int", "float", "float_list") and requirement is None}
        assert bare == set(UNCONSTRAINED)

    def test_every_requirement_is_known_and_met_by_its_default(self):
        for sec, keys in SCHEMA.items():
            for key, (_tname, default, requirement) in keys.items():
                if requirement is None:
                    continue
                holds = _REQUIREMENTS[requirement]
                entries = default if isinstance(default, tuple) else (default,)
                assert default is None or all(holds(e) for e in entries), \
                    f"[{sec}] {key} = {default}"
