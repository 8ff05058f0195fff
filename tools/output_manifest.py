#!/usr/bin/env python3
"""sha256 manifest of the benchmark workloads' files, run on one source tree.

    python3 tools/output_manifest.py TREE [--seeds 1 2 3]

TREE is a checkout with the oodkit package under ``TREE/src``.  The
workloads are the ``WORKLOADS`` of ``perfbench/run.py`` next to this
directory, imported, so two trees are compared on the same workloads.  For
each workload and seed it sets up as the benchmark does (``gen-data``, and
for a workload with a ``checkpoint_config`` the ``gen-data`` and ``train`` of
that checkpoint), then runs the workload's commands with
``python -m oodkit.cli`` from ``TREE/src``.  BLAS and OpenMP thread variables
are removed from the environment, as the benchmark removes them, and no
bytecode is cached.

It prints one ``<sha256>  <workload>/s<seed>/<file>`` line for each feature
file and each output the workload checks, sorted by path: at seeds 1-3 that
is 48 lines.  Two trees give the same lines when their outputs are
byte-identical; equal hashes are expected only on the same numpy build,
since the computed floats depend on it.  Every file is written under a
temporary directory that is removed at the end; nothing under ``perfbench/``
or TREE is written.
"""

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    """perfbench/run.py as a module, with no bytecode written beside it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oodkit(env, command, cfg, seed, out, *extra):
    run = subprocess.run(
        [sys.executable, "-m", "oodkit.cli", command, "--config", str(cfg),
         "--seed", str(seed), "--out", str(out), *extra],
        env=env, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if run.returncode:
        raise SystemExit(f"{command} --out {out} exited {run.returncode}: "
                         f"{run.stderr.strip()}")


def workload_files(bench, env, wl, seed, work):
    """{name: path} of the workload's feature files and outputs at seed."""
    out = work / "job"
    out.mkdir(parents=True)
    cfg = work / "run.cfg"
    bench.write_config(cfg, wl.config)
    oodkit(env, "gen-data", cfg, seed, out)
    extra = ()
    if wl.checkpoint_config is not None:
        ckpt_cfg, ckpt_dir = work / "ckpt.cfg", work / "ckpt"
        bench.write_config(ckpt_cfg, wl.checkpoint_config)
        oodkit(env, "gen-data", ckpt_cfg, seed, ckpt_dir)
        oodkit(env, "train", ckpt_cfg, seed, ckpt_dir)
        extra = ("--checkpoint", str(ckpt_dir / "checkpoint.npz"))
    for command in wl.commands:
        oodkit(env, command, cfg, seed, out,
               *(extra if command == "eval" else ()))
    return {name: out / name for name in bench.DATA_FILES + wl.outputs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    bench = load_bench()
    env = {k: v for k, v in os.environ.items() if k not in bench.THREAD_VARS}
    env["PYTHONPATH"] = str(args.tree.resolve() / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"    # no __pycache__ in TREE
    lines = []
    with tempfile.TemporaryDirectory(prefix="output_manifest_") as tmp:
        for name, wl in bench.WORKLOADS.items():
            for seed in args.seeds:
                work = Path(tmp) / name / f"s{seed}"
                for file, path in workload_files(bench, env, wl, seed,
                                                 work).items():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append((f"{name}/s{seed}/{file}", digest))
    for path, digest in sorted(lines):
        print(f"{digest}  {path}")


if __name__ == "__main__":
    main()
