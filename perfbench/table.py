#!/usr/bin/env python3
"""Run every workload once and print its metrics as a table.

    python3 perfbench/table.py                # end-to-end metrics
    python3 perfbench/table.py --trace 1      # per-stage table

Each workload is one ``run.py`` run with the given seed and seconds.  The
end-to-end table gives every metric by name with its unit, plus whether the
run's outputs passed their checks.  The traced table gives calls, total and
self seconds per traced function, the counters, the run-level figures and the
shares of traced wall time with their bases, then checks that every traced
name was found and called in at least one workload.  Exits 1 when a run
fails, an output check fails, or a traced name is missing or never called.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracer import COUNTERS, TRACED_NAMES  # noqa: E402

# Traced names that no workload calls today, with the reason.
EXPECTED_UNCALLED = {
    "postprocess.energy_score": "no workload uses scorer=energy",
}

SHARES = (
    ("share.grod_augment_batch", "outliers.grod_augment_batch.s"),
    ("share.eval_path", "harness.read_feature_file.s + postprocess.*.s "
                        "+ metrics.*.s"),
)


def run_workload(name, seed, seconds, trace, tiny=False):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{name}: run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def uncalled(results):
    """Traced names never called in any workload, minus the expected ones.

    ``results`` maps workload -> (meta, result) of traced runs.
    """
    missing = set()
    for meta, _ in results.values():
        missing.update(meta.get("missing", []))
    never = [name for name in TRACED_NAMES
             if name not in EXPECTED_UNCALLED
             and all(res["metrics"][f"{name}.calls"]["value"] == 0
                     for _, res in results.values())]
    return sorted(missing), never


def _fmt(value):
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return f"{value:.0f}" if isinstance(value, float) else str(value)


def print_table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def end_to_end_table(results):
    names = list(results)
    first = next(iter(results.values()))[1]["metrics"]
    rows = [[m, first[m]["unit"]]
            + [_fmt(results[n][1]["metrics"][m]["value"]) for n in names]
            for m in first]
    rows.append(["failed/attempted", "count"]
                + [f"{results[n][1]['failed']}/{results[n][1]['attempted']}"
                   for n in names])
    rows.append(["correct", "-"]
                + [str(results[n][1]["correct"]) for n in names])
    print_table(["metric", "unit"] + names, rows)


def traced_table(results):
    names = list(results)

    def value(n, key):
        return results[n][1]["metrics"][key]["value"]

    header = ["stage"] + [f"{n} {col}" for n in names
                          for col in ("calls", "s", "self_s")]
    rows = [[stage] + [_fmt(value(n, f"{stage}.{col}")) for n in names
                       for col in ("calls", "s", "self_s")]
            for stage in TRACED_NAMES]
    print_table(header, rows)
    print()
    run_level = list(COUNTERS) + ["outliers.survivor_ratio", "blas_threads",
                                  "traced_wall_s", "trace_overhead",
                                  "failed_frac", "report.auroc",
                                  "report.fpr_at_95", "report.id_acc"]
    print_table(["figure"] + names,
                [[k] + [_fmt(value(n, k)) for n in names] for k in run_level])
    print()
    for share, base in SHARES:
        for n in names:
            ratio = value(n, share)
            print(f"{n}: {share} = ({base}) / traced_wall_s = "
                  f"{ratio * value(n, 'traced_wall_s'):.3f} s / "
                  f"{value(n, 'traced_wall_s'):.3f} s = {ratio:.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in WORKLOADS}
    env = next(iter(results.values()))[0]["environment"]
    print(f"# seed {args.seed}, {args.seconds} s per workload; python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, blas_threads {env['blas_threads']}, "
          f"{env['cpu_model']}")
    ok = all(res["correct"] for _, res in results.values())
    if args.trace:
        traced_table(results)
        missing, never = uncalled(results)
        for name in missing:
            print(f"missing: {name} is not defined by the program")
        for name in never:
            print(f"never called: {name}")
        for name, why in EXPECTED_UNCALLED.items():
            print(f"expected uncalled: {name} ({why})")
        ok = ok and not missing and not never
    else:
        end_to_end_table(results)
    for name, (meta, _) in results.items():
        for error in meta["errors"]:
            print(f"{name}: {error}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
