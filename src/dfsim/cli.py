"""Command-line entry point.

    dfsim <experiment> [--config PATH] [--seed N] [--out DIR] [--members N]

Experiments: memory | crusher | natural | gates | noisy-gate. The config
file is JSON with the same nesting as ExperimentConfig; command-line flags
override config fields. Exit codes: 0 success, 2 configuration error,
3 numerical-contract violation.
"""

import argparse
import json
import sys as _sys

from .errors import ConfigError, NumericalContractError
from .experiments import EXPERIMENTS, config_from_dict, run


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dfsim", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, record in EXPERIMENTS.items():
        p = sub.add_parser(name.replace("_", "-"), help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, help="base RNG seed (required)" if record.seeded
                       else "base RNG seed (recorded in the report only)")
        p.add_argument("--out", help="output directory (default: results)")
        p.add_argument("--members", type=int, help="override ensemble.n_members")
        p.add_argument("--label", help="output file stem (default: experiment name)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    experiment = args.experiment.replace("-", "_")
    try:
        raw: dict = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: {args.config!r} is not valid JSON: {exc}") from exc
        raw["experiment"] = experiment
        overrides = {"seed": args.seed, "out": args.out, "label": args.label}
        if args.members is not None:
            ensemble = dict(raw.get("ensemble", {}))
            ensemble["n_members"] = args.members
            raw["ensemble"] = ensemble
        config = config_from_dict(raw, overrides)
        result = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except NumericalContractError as exc:
        print(f"numerical contract violation: {exc}", file=_sys.stderr)
        return 3
    print(f"wrote {result['csv']}")
    print(f"wrote {result['json']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
