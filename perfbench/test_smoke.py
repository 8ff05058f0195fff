"""Smoke tests of the benchmark.

Each workload runs at tiny size (``--tiny``) in both modes and must print the
result line that ``BENCHMARK.json`` declares; the traced runs together must
call every traced name; the quality check must reject a constant-score
report; the tracer must tolerate names the program does not define; and
``run.py`` must refuse to run without the program's sources.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import table  # noqa: E402
from oodkit import metrics as oodkit_metrics  # noqa: E402
from run import WORKLOADS, check_quality  # noqa: E402
from tracer import TRACED_NAMES, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_tiny(workload):
    meta, result = table.run_workload(workload, 1, 0, 0, tiny=True)
    check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["environment"]["blas_threads"] >= 1


@pytest.fixture(scope="module")
def traced():
    return {name: table.run_workload(name, 1, 0, 1, tiny=True)
            for name in WORKLOADS}


def test_traced_tiny(traced):
    for meta, result in traced.values():
        check_result(result, SPEC["per_layer"])
        assert meta["missing"] == [] and meta["hook_errors"] == []
    metrics = {n: res["metrics"] for n, (_, res) in traced.items()}
    assert metrics["eval_vim_s64"]["outliers.grod_augment_batch.calls"][
        "value"] == 0
    assert metrics["ingest_s64"]["outliers.candidates"]["value"] > 0


def test_every_traced_name_is_called(traced):
    missing, never = table.uncalled(traced)
    assert missing == [] and never == []


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quality_check_rejects_broken_outputs(workload):
    wl = WORKLOADS[workload]
    good = {"auroc": 0.81, "fpr_at_95": 0.49, "id_acc": 1.0}
    check_quality(wl, good)
    # below chance is a valid result on some seeds
    check_quality(wl, {**good, "auroc": 0.34, "fpr_at_95": 1.0})
    constant = [0.3] * 10
    tied = {"auroc": oodkit_metrics.auroc(constant, constant),
            "fpr_at_95": oodkit_metrics.fpr_at_tpr(constant, constant)}
    with pytest.raises(ValueError, match="do not rank"):
        check_quality(wl, {**good, **tied})
    if wl.id_acc_floor is not None:
        # one class of four never predicted, on a balanced test set
        with pytest.raises(ValueError, match="id_acc"):
            check_quality(wl, {**good, "id_acc": 0.75})


FAKE_NUMERICS = """
def mahalanobis_sq(x, mu, inv):
    return (x - mu) ** 2 * inv
"""

FAKE_OUTLIERS = """
from .numerics import mahalanobis_sq

def grod_augment_batch(f, y, state, config, rng):
    return mahalanobis_sq(f, 0.0, 1.0) + mahalanobis_sq(y, 0.0, 1.0)
"""


def test_tracer_tolerates_absent_names(tmp_path, monkeypatch):
    pkg = tmp_path / "fakekit"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "numerics.py").write_text(FAKE_NUMERICS)
    (pkg / "outliers.py").write_text(FAKE_OUTLIERS)
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        tracer = Tracer().install("fakekit")
        from fakekit import outliers
        assert outliers.grod_augment_batch(3.0, 1.0, None, None, None) == 10.0
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "fakekit"]:
            del sys.modules[name]
    calls = {name: stats[0] for name, stats in tracer.stats.items()}
    assert calls["outliers.grod_augment_batch"] == 1
    # found through the by-name import in outliers
    assert calls["numerics.mahalanobis_sq"] == 2
    augment = tracer.stats["outliers.grod_augment_batch"]
    assert 0.0 <= augment[2] <= augment[1]
    present = {"outliers.grod_augment_batch", "numerics.mahalanobis_sq"}
    assert sorted(tracer.missing) == sorted(set(TRACED_NAMES) - present)
    assert all(calls[name] == 0 for name in tracer.missing)
    # the counter hook does not fit the fake's result; the call still counts
    assert tracer.hook_errors == ["outliers.grod_augment_batch"]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_s64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
