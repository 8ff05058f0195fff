"""Command-line entry point.

Subcommands: gen-data, train, eval, sweep-capacity, ingest.  Every failure
exits nonzero with a single machine-parsable line on stderr.
"""

import argparse
import sys

from . import harness


def build_parser():
    parser = argparse.ArgumentParser(prog="oodkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "train", "eval", "sweep-capacity", "ingest"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="output directory")
        if name == "eval":
            p.add_argument("--checkpoint", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise harness.FormatError("--seed must be >= 0")
        config = (harness.ExperimentConfig.from_file(args.config)
                  if args.config else harness.ExperimentConfig())
        seed = args.seed if args.seed is not None else config.seed
        if args.command == "gen-data":
            harness.cmd_gen_data(config, seed, args.out)
        elif args.command == "train":
            harness.cmd_train(config, seed, args.out)
        elif args.command == "eval":
            harness.cmd_eval(config, seed, args.out, args.checkpoint)
        elif args.command == "sweep-capacity":
            harness.cmd_sweep_capacity(config, seed, args.out)
        elif args.command == "ingest":
            harness.cmd_ingest(config, seed, args.out)
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
