"""The benchmark's tracer (`perfbench/tracer.py`) must find every function
it traces under its traced name.  A rename or a move of a traced function
then fails here instead of silently reporting 0 calls for it."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_traced_name():
    # in a child process, so the installed wrappers stay out of this one
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from tracer import TRACED_NAMES, Tracer; "
            "print(json.dumps([len(TRACED_NAMES), Tracer().install().missing]))")
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "perfbench")],
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True, text=True, check=True)
    n_traced, missing = json.loads(out.stdout)
    assert n_traced > 0 and missing == []


def test_counter_hooks_fit_the_engine(tmp_path):
    # a tiny traced ingest job with outlier generation on: every counter
    # hook still fits the signature and result of the function it wraps
    cfg, out, trace = tmp_path / "run.cfg", tmp_path / "out", tmp_path / "t"
    cfg.write_text("task=ingest\nclasses=3\ndim=8\nn_per_class=40\n"
                   "epochs=2\nbatch_size=32\nwarmup_batches=1\nscorer=msp\n")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    args = ["--config", str(cfg), "--seed", "1", "--out", str(out)]
    subprocess.run([sys.executable, "-m", "oodkit.cli", "gen-data", *args],
                   env=env, capture_output=True, check=True)
    subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
                    "trace", str(trace), "--", "ingest", *args],
                   env=env, capture_output=True, check=True)
    payload = json.loads(trace.read_text())
    counters = payload["counters"]
    assert payload["hook_errors"] == []
    assert 0 < counters["outliers.survivors"] <= counters["outliers.candidates"]
    # training is the only caller of the filter, so every survivor counted
    # is a fake outlier that the training log retained
    log = json.loads((out / "train_log.json").read_text())
    retained = sum(e["fake_ood_retained"] for e in log["epochs"])
    assert 0 < retained == counters["outliers.survivors"]
    # the commands call these through harness, which imports them from the
    # modules that define them: the tracer wraps them where they are called
    for name in ("harness.read_feature_file", "harness.train_model",
                 "harness.evaluate_model"):
        assert payload["stats"][name][0] > 0, name
