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


def build_parser():
    parser = argparse.ArgumentParser(prog="oodkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="output directory")
        for option in options:
            p.add_argument(f"--{option}", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # overflow in a diverging run is reported once, by TrainingDiverged
        # or the read-time checks, not by numpy warnings on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.seed is not None and args.seed < 0:
                raise harness.FormatError("--seed must be >= 0")
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
