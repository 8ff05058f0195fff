#!/usr/bin/env python3
"""oodkit benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is used straight from ``src/`` next to this directory
(``python -m oodkit.cli``); nothing is built or installed.

A run is a closed loop with one client: it sets the workload up from
``--seed`` at least three times (generated feature files, and for
``eval_vim_s64`` a trained checkpoint), runs one untimed warm-up job, then
runs the workload's oodkit job again and again, each job in fresh processes
and a fresh output directory, until ``--seconds`` have passed (at least two
timed jobs).  Every job is checked: exit code, report and training-log
schema, finite metrics, quality (see README.md), and byte-identical
outputs across the run's jobs.  BLAS and OpenMP thread variables are removed
from the jobs' environment, so the program's own thread policy is measured.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics; with ``--trace 1`` untraced and traced jobs alternate and it reports
the per-layer metrics (see README.md).  The line before it is a ``meta``
object: environment, per-job figures and any traced name that is missing.
Work files go under ``.bench_build/perfbench/`` and are removed at the end.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTERS, TRACED_NAMES  # noqa: E402

# A run sets up at least SETUPS times, and more until SETUP_SECONDS have
# passed; setup_s is the median.  Then it runs one warm-up job, checked but
# not timed, and timed jobs for --seconds, at least MIN_JOBS of them (twice
# as many with --trace 1, half of them traced).
SETUPS = 3
SETUP_SECONDS = 3.0
MIN_JOBS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DATA_FILES = ("train.csv", "test.csv", "ood.csv")

MIXTURE2D = {"task": "mixture2d", "n_train_per_class": 1000,
             "n_test_per_class": 500, "n_ood": 1000, "epochs": 20,
             "batch_size": 64, "lr": 0.005, "grod_enabled": "true",
             "gamma": 0.1, "scorer": "vim"}
INGEST_S64 = {"task": "ingest", "classes": 4, "dim": 64, "n_per_class": 200,
              "epochs": 10, "batch_size": 64, "lr": 0.005,
              "grod_enabled": "true", "gamma": 0.1, "scorer": "msp"}
EVAL_VIM_S64 = {"task": "ingest", "classes": 4, "dim": 64,
                "n_per_class": 5000, "scorer": "vim"}


@dataclass(frozen=True)
class Workload:
    config: dict
    commands: tuple            # oodkit commands of one job, run in order
    outputs: tuple             # job outputs that must be byte-identical
    checkpoint_config: dict | None = None   # set-up trains this checkpoint
    tiny: dict = field(default_factory=dict)   # --tiny config overrides
    # report.json's id_acc must exceed this on the full-size inputs (not
    # checked with --tiny).  It is above what a classifier that ignores one
    # of the four classes gets and below the worst value recorded over 61-101
    # seeds.  AUROC has no floor: some seeds score below chance (README.md).
    id_acc_floor: float | None = None

    @property
    def trains(self):
        return "train" in self.commands or "ingest" in self.commands


WORKLOADS = {
    "mixture2d_grod": Workload(
        config=MIXTURE2D, commands=("train", "eval"),
        outputs=("checkpoint.npz", "train_log.json", "report.json"),
        tiny={"n_train_per_class": 150, "n_test_per_class": 50,
              "n_ood": 100, "epochs": 3}),
    "ingest_s64": Workload(
        config=INGEST_S64, commands=("ingest",),
        outputs=("checkpoint.npz", "train_log.json", "report.json"),
        tiny={"n_per_class": 50, "epochs": 3},
        id_acc_floor=0.8),
    "eval_vim_s64": Workload(
        config=EVAL_VIM_S64, commands=("eval",), outputs=("report.json",),
        checkpoint_config=INGEST_S64,
        tiny={"n_per_class": 100},
        id_acc_floor=0.8),
}

REPORT_METRICS = ("id_acc", "fpr_at_95", "auroc", "aupr_in", "aupr_out")
EVAL_PATH_PREFIXES = ("harness.read_feature_file", "postprocess.", "metrics.")


class RunError(Exception):
    """The run cannot produce a result: a set-up step failed or disagreed
    with the first set-up, or no traced job finished."""


# ---------------------------------------------------------------------------
# processes

def child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, env, log_path):
    """Run argv to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def oodkit_argv(command, cfg, seed, out, extra=(), trace_to=None):
    args = [command, "--config", str(cfg), "--seed", str(seed),
            "--out", str(out), *extra]
    if trace_to is None:
        return [sys.executable, "-m", "oodkit.cli", *args]
    return [sys.executable, str(HERE / "child.py"), "trace", str(trace_to),
            "--", *args]


def write_config(path, values):
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))


def tail(path, n=3):
    try:
        return " | ".join(path.read_text().strip().splitlines()[-n:])
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# set-up

def setup(wl, cfg, ckpt_cfg, seed, data_dir, env, trace_to=None):
    """Generates the inputs (and checkpoint); returns the wall time."""
    data_dir.mkdir(parents=True)
    log = data_dir / "setup.log"
    start = time.perf_counter()
    steps = [oodkit_argv("gen-data", cfg, seed, data_dir, trace_to=trace_to)]
    if wl.checkpoint_config is not None:
        ckpt_dir = data_dir / "ckpt"
        steps += [oodkit_argv("gen-data", ckpt_cfg, seed, ckpt_dir),
                  oodkit_argv("train", ckpt_cfg, seed, ckpt_dir)]
    for argv in steps:
        code, _, _ = spawn(argv, env, log)
        if code != 0:
            raise RunError(f"set-up step {argv[3:5]} exited {code}: "
                             f"{tail(log)}")
    return time.perf_counter() - start


def file_rows(path):
    with open(path) as fh:
        header = dict(part.split("=", 1)
                      for part in fh.readline().strip().split(","))
    return int(header["rows"])


# ---------------------------------------------------------------------------
# one job

def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def check_report(report, seed, n_test, n_ood):
    """Raises ValueError on a schema mismatch or a non-finite metric."""
    if report.get("schema_version") != 1 or report.get("seed") != seed:
        raise ValueError("report.json: bad schema_version or seed")
    if not isinstance(report.get("config_hash"), str):
        raise ValueError("report.json: config_hash missing")
    for key in REPORT_METRICS:
        value = report["metrics"][key]
        if not (_finite(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"report.json: metric {key}={value!r}")
    per_set = report["per_set"]
    if per_set["id_test"]["n"] != n_test or per_set["ood"]["n"] != n_ood:
        raise ValueError("report.json: per_set row counts")
    for key in ("fpr_at_95", "auroc", "aupr_in", "aupr_out"):
        if per_set["ood"][key] != report["metrics"][key]:
            raise ValueError(f"report.json: per_set.ood.{key} disagrees")
    if not _finite(report["threshold"]):
        raise ValueError("report.json: non-finite threshold")


def check_train_log(log, seed, epochs):
    if log.get("schema_version") != 1 or log.get("seed") != seed:
        raise ValueError("train_log.json: bad schema_version or seed")
    if len(log["epochs"]) != epochs:
        raise ValueError("train_log.json: wrong number of epochs")
    for row in log["epochs"]:
        for key in ("loss_l1", "loss_l2", "val_quality"):
            if not _finite(row[key]):
                raise ValueError(f"train_log.json: {key}={row[key]!r}")


def check_quality(wl, metrics):
    floor = wl.id_acc_floor
    if floor is not None and not metrics["id_acc"] > floor:
        raise ValueError(f"quality: id_acc={metrics['id_acc']:.4f} not "
                         f"above the floor {floor}")
    # What scores that are all tied give, e.g. a constant or saturated score.
    if metrics["auroc"] == 0.5 and metrics["fpr_at_95"] == 1.0:
        raise ValueError("quality: auroc=0.5 and fpr_at_95=1: the scores do "
                         "not rank the rows")


def run_job(wl, ctx, job_dir, traced):
    """Runs one job; returns a dict with wall, rss, error, outputs, trace."""
    job_dir.mkdir()
    for name in DATA_FILES:
        src = ctx["data_dir"] / name
        try:
            os.link(src, job_dir / name)
        except OSError:
            shutil.copyfile(src, job_dir / name)
    log = job_dir / "job.log"
    job = {"wall": 0.0, "rss": 0.0, "error": None, "outputs": {},
           "trace": None}
    traces = []
    for i, command in enumerate(wl.commands):
        extra = ()
        if command == "eval" and wl.checkpoint_config is not None:
            extra = ("--checkpoint",
                     str(ctx["data_dir"] / "ckpt" / "checkpoint.npz"))
        trace_to = job_dir / f"trace{i}.json" if traced else None
        argv = oodkit_argv(command, ctx["cfg"], ctx["seed"], job_dir, extra,
                           trace_to)
        code, wall, rss = spawn(argv, ctx["env"], log)
        job["wall"] += wall
        job["rss"] = max(job["rss"], rss)
        if code != 0:
            job["error"] = f"{command} exited {code}: {tail(log)}"
            return job
        if traced:
            traces.append(json.loads(trace_to.read_text()))
    try:
        for name in wl.outputs:
            job["outputs"][name] = (job_dir / name).read_bytes()
        report = json.loads(job["outputs"]["report.json"])
        check_report(report, ctx["seed"], ctx["rows"]["test.csv"],
                     ctx["rows"]["ood.csv"])
        if wl.trains:
            check_train_log(json.loads(job["outputs"]["train_log.json"]),
                            ctx["seed"], ctx["epochs"])
        job["quality"] = report["metrics"]
        if not ctx["tiny"]:
            check_quality(wl, report["metrics"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        job["error"] = f"{type(exc).__name__}: {exc}"
    if traced:
        job["trace"] = merge_traces(traces + ctx["setup_traces"])
    return job


def merge_traces(traces):
    stats = {name: [0, 0.0, 0.0] for name in TRACED_NAMES}
    counters = dict.fromkeys(COUNTERS, 0)
    missing, hook_errors = set(), set()
    for t in traces:
        for name, values in t["stats"].items():
            for j in range(3):
                stats[name][j] += values[j]
        for name, value in t["counters"].items():
            counters[name] += value
        missing.update(t["missing"])
        hook_errors.update(t["hook_errors"])
    return {"stats": stats, "counters": counters, "missing": sorted(missing),
            "hook_errors": sorted(hook_errors)}


# ---------------------------------------------------------------------------
# one run

def per_layer_metrics(traced_jobs, untraced_walls, env_info, failed_frac,
                      quality):
    def med(get):
        return statistics.median(get(job) for job in traced_jobs)

    out = {}
    for name in TRACED_NAMES:
        for j, (suffix, unit) in enumerate((("calls", "count"), ("s", "s"),
                                            ("self_s", "s"))):
            out[f"{name}.{suffix}"] = (
                med(lambda job: job["trace"]["stats"][name][j]), unit)
    for name in COUNTERS:
        out[name] = (med(lambda job: job["trace"]["counters"][name]), "count")
    candidates = out["outliers.candidates"][0]
    out["outliers.survivor_ratio"] = (
        out["outliers.survivors"][0] / candidates if candidates else 0.0,
        "ratio")
    traced_wall = med(lambda job: job["wall"])
    eval_path = sum(v for k, (v, _) in out.items()
                    if k.endswith(".s") and k.startswith(EVAL_PATH_PREFIXES))
    out["traced_wall_s"] = (traced_wall, "s")
    out["trace_overhead"] = (traced_wall / statistics.median(untraced_walls),
                             "ratio")
    out["share.grod_augment_batch"] = (
        out["outliers.grod_augment_batch.s"][0] / traced_wall, "ratio")
    out["share.eval_path"] = (eval_path / traced_wall, "ratio")
    out["blas_threads"] = (env_info["blas_threads"] or 0, "count")
    out["failed_frac"] = (failed_frac, "ratio")
    for key in ("auroc", "fpr_at_95", "id_acc"):
        out[f"report.{key}"] = (quality.get(key, 0.0), "ratio")
    return out


def run(name, seed, seconds, trace, tiny, work):
    wl = WORKLOADS[name]
    env = child_env()
    config = {**wl.config, **(wl.tiny if tiny else {})}
    ckpt_config = None
    if wl.checkpoint_config is not None:
        ckpt_config = {**wl.checkpoint_config,
                       **(WORKLOADS["ingest_s64"].tiny if tiny else {})}
    cfg = work / "job.cfg"
    ckpt_cfg = work / "checkpoint.cfg"
    write_config(cfg, config)
    if ckpt_config is not None:
        write_config(ckpt_cfg, ckpt_config)

    probe = subprocess.run([sys.executable, str(HERE / "child.py"), "env"],
                           env=env, capture_output=True, text=True,
                           check=True)
    env_info = json.loads(probe.stdout)

    setup_times, setup_traces = [], []
    data_dir = work / "data0"
    while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
        i = len(setup_times)
        trace_to = work / "setup_trace.json" if trace and i == 0 else None
        setup_times.append(setup(wl, cfg, ckpt_cfg, seed, work / f"data{i}",
                                 env, trace_to))
        if trace_to is not None:
            setup_traces.append(json.loads(trace_to.read_text()))
        if i == 0:
            continue
        for fname in DATA_FILES:
            if ((data_dir / fname).read_bytes()
                    != (work / f"data{i}" / fname).read_bytes()):
                raise RunError(f"set-up {i} wrote a different {fname}")
        shutil.rmtree(work / f"data{i}")

    ctx = {"data_dir": data_dir, "cfg": cfg, "seed": seed, "env": env,
           "epochs": int(config.get("epochs", 0)),
           "rows": {f: file_rows(data_dir / f) for f in DATA_FILES},
           "setup_traces": setup_traces, "tiny": tiny}
    rows = sum(ctx["rows"].values())
    if wl.trains:
        rows += ctx["epochs"] * ctx["rows"]["train.csv"]

    min_jobs = 1 + (2 * MIN_JOBS if trace else MIN_JOBS)
    jobs, reference, errors = [], None, []
    deadline = None
    while len(jobs) < min_jobs or time.perf_counter() < deadline:
        traced = bool(trace) and len(jobs) % 2 == 0 and len(jobs) > 0
        job_dir = work / f"job{len(jobs)}"
        job = run_job(wl, ctx, job_dir, traced)
        job["traced"] = traced
        job["warmup"] = not jobs
        if job["error"] is None:
            if reference is None:
                reference = job["outputs"]
            else:
                differ = [n for n in wl.outputs
                          if job["outputs"][n] != reference[n]]
                if differ:
                    job["error"] = ("rerun not byte-identical: "
                                    + ", ".join(differ))
        if job["error"] is not None:
            errors.append(f"job {len(jobs)}: {job['error']}")
        job["outputs"] = None
        jobs.append(job)
        shutil.rmtree(job_dir)
        if deadline is None:
            deadline = time.perf_counter() + seconds

    failed = len(errors)
    good = [j for j in jobs[1:] if j["error"] is None] or jobs
    quality = next((j["quality"] for j in good if j.get("quality")), {})
    untraced = [j for j in good if not j["traced"]] or good
    meta = {"workload": name, "seed": seed, "tiny": tiny,
            "environment": env_info, "rows_per_job": rows,
            "setup_s": setup_times,
            "jobs": [{"wall_s": j["wall"], "peak_rss_mb": j["rss"],
                      "traced": j["traced"], "warmup": j["warmup"]}
                     for j in jobs],
            "quality": quality, "errors": errors}
    if trace:
        traced_jobs = [j for j in good if j["traced"] and j["trace"]]
        if not traced_jobs:
            raise RunError("no traced job finished: " + "; ".join(errors))
        metrics = per_layer_metrics(traced_jobs,
                                    [j["wall"] for j in untraced],
                                    env_info, failed / len(jobs), quality)
        meta["missing"] = traced_jobs[0]["trace"]["missing"]
        meta["hook_errors"] = traced_jobs[0]["trace"]["hook_errors"]
    else:
        wall = statistics.median(j["wall"] for j in untraced)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "rows_per_s": (rows / wall, "1/s"),
            "peak_rss_mb": (statistics.median(j["rss"] for j in untraced),
                            "MB"),
        }
    result = {"correct": failed == 0, "attempted": len(jobs),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return meta, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oodkit" / "cli.py").is_file():
        print(f"error: no oodkit sources under {ROOT / 'src'}; the benchmark "
              "directory must sit at the root of an oodkit checkout",
              file=sys.stderr)
        return 2
    work = (ROOT / ".bench_build" / "perfbench"
            / f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        meta, result = run(args.workload, args.seed, args.seconds,
                           args.trace, args.tiny, work)
    except (RunError, subprocess.CalledProcessError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
