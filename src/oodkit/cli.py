"""Command-line entry point.

Subcommands: gen-data, train, eval, sweep-capacity, ingest.  Every failure
exits nonzero with a single machine-parsable line on stderr.
"""

import argparse
import sys

import numpy as np

from . import harness

# subcommand -> (the function that runs it, its options besides --config,
# --seed and --out); it is called as function(config, seed, out, **options)
COMMANDS = {"gen-data": (harness.cmd_gen_data, ()),
            "train": (harness.cmd_train, ()),
            "eval": (harness.cmd_eval, ("checkpoint",)),
            "sweep-capacity": (harness.cmd_sweep_capacity, ()),
            "ingest": (harness.cmd_ingest, ())}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, for `main` to report in one line, where
    argparse would print the usage and exit 2."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _seed(text):
    """--seed, read as the config reads `seed`."""
    try:
        return harness.ExperimentConfig.parse({"seed": text}).seed
    except harness.FormatError as exc:
        raise harness.FormatError(f"--{exc}") from None


def build_parser():
    parser = _Parser(prog="oodkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key=value config file")
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--out", required=True, help="output directory")
        for option in options:
            p.add_argument(f"--{option}", default=None)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # overflow in a diverging run is reported once, by TrainingDiverged
        # or the read-time checks, not by numpy warnings on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            config = (harness.ExperimentConfig.from_file(args.config)
                      if args.config else harness.ExperimentConfig())
            seed = args.seed if args.seed is not None else config.seed
            run, options = COMMANDS[args.command]
            run(config, seed, args.out,
                **{option: getattr(args, option) for option in options})
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
