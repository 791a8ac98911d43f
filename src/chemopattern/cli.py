"""Command-line interface.

    chemopattern <subcommand> --config <path> [--out <dir>] [--seed <u64>]
                 [--coefficient-convention paper|formula]

Subcommands mirror the experiment kinds: linear, reduce, ode, simulate,
simulate-full, sweep, verify-theorem1, verify-theorem2.  The subcommand must
match the ``kind`` in the configuration file; command-line flags override the
corresponding configuration values.  The exit code is nonzero iff a
verification suite reports an overall failure, a simulation blows up (one
``error:`` line, exit 1), the configuration is bad (exit 2), or it crashes.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENT_KINDS, ConfigError, parse_config, serialize_config
from .core import SearchBoundaryError
from .reduction import ResonanceError
from .reports import VerificationReport
from .simulator import BlowUpError
from .verify import (
    run_linear,
    run_ode,
    run_reduce,
    run_simulate,
    run_sweep,
    run_verify_theorem1,
    run_verify_theorem2,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemopattern",
        description="Pattern-formation laboratory for a diffusion-chemotaxis model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        sp = sub.add_parser(kind, help=f"run a '{kind}' experiment")
        sp.add_argument("--config", required=True, help="path to the configuration file")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        sp.add_argument("--coefficient-convention", choices=("formula", "paper"),
                        default=None, help="cubic coefficient convention (overrides config)")
        sp.add_argument("--dump-config", action="store_true",
                        help="print the resolved configuration and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    flags = {("experiment", "seed"): args.seed, ("experiment", "out"): args.out,
             ("experiment", "coefficient_convention"): args.coefficient_convention}
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read(), {k: v for k, v in flags.items() if v is not None})
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.kind != args.command:
        print(f"error: config kind {cfg.kind!r} does not match subcommand {args.command!r}",
              file=sys.stderr)
        return 2
    if args.dump_config:
        print(serialize_config(cfg), end="")
        return 0

    # built per call, so the runners are this module's names at call time
    runners = {"linear": run_linear, "reduce": run_reduce, "ode": run_ode,
               "simulate": run_simulate, "simulate-full": run_simulate, "sweep": run_sweep,
               "verify-theorem1": run_verify_theorem1, "verify-theorem2": run_verify_theorem2}
    try:
        result = runners[cfg.kind](cfg)
    except (ConfigError, SearchBoundaryError, ResonanceError) as exc:
        # a k_max too small for the geometry, or a geometry the two-mode
        # reduction does not apply to, is a configuration error too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, VerificationReport):
        print(result.to_table(), end="")
        return 0 if result.overall else 1
    for path in result.values():
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
