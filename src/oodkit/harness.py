"""Experiment orchestration: the typed config and the commands that read
it (gen-data, train, eval, the capacity sweep and ingest) with their
feature files, checkpoints and JSON reports.  `task=ingest` trains the
head-only model that `model_shape` states; the sweep's configs, derived
with `dataclasses.replace`, are range-checked again."""

import dataclasses
import hashlib
import json
import math
import os
import stat
import sys
import zipfile

import numpy as np

from . import postprocess as post
from . import synthdata
from . import transformer as tfm
from .evaluation import _forward_blocks, evaluate_model
from .featurefile import (FormatError, IoError, _open_regular, _writing,
                          read_feature_file, write_feature_file)
from .metrics import id_accuracy
from .training import model_shape, train_model

REPORT_SCHEMA_VERSION = 1
SCORERS = ("msp", "energy", "vim")

# ---------------------------------------------------------------------------
# config

BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


# annotated type -> (name in error messages, parser of the stripped text)
PARSERS = {str: ("str", str), int: ("int", int), float: ("float", float),
           bool: ("bool", lambda text: BOOL_WORDS[text.lower()]),
           tuple[int, ...]: ("int list", lambda text: tuple(
               int(x) for x in text.split(",") if x.strip()))}

# key -> smallest allowed value
MINIMUMS = {"seed": 0, "batch_size": 2, "epochs": 1, "depth": 0, "d_hat": 1,
            "heads": 1, "m_h": 1, "m_v": 1, "ff": 1, "warmup_batches": 0,
            "num": 0, "pca_axes": 0, "lda_axes": 0, "n_train_per_class": 2,
            "n_test_per_class": 1, "n_ood": 1, "classes": 2, "dim": 2,
            "n_per_class": 2, "weight_decay": 0, "gamma": 0,
            "lambda_filter": 0}
CHOICES = {"task": ("mixture2d", "ingest"), "optimizer": ("adamw", "sgd"),
           "scorer": SCORERS}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One field per config key.  `parse`/`from_file` read the raw strings
    once; `__post_init__` checks the ranges.  The outlier engine reads its
    hyperparameters from this config.  The hash reads the typed fields, so
    configs that compare equal hash equal."""

    task: str = "mixture2d"
    seed: int = 0
    epochs: int = 10
    batch_size: int = 64
    # model shape
    depth: int = 2
    d_hat: int = 2
    heads: int = 2
    m_h: int = 1
    m_v: int = 1
    ff: int = 4
    # optimizer
    optimizer: str = "adamw"
    lr: float = 1e-4
    weight_decay: float = 5e-2
    # outlier engine
    grod_enabled: bool = True
    gamma: float = 0.1
    a: float = 0.1
    gamma_opt: float = 0.1
    warmup_batches: int = 5
    lambda_filter: float = 0.1
    num: int = 0              # 0 -> auto
    pca_axes: int = 0         # 0 -> auto
    lda_axes: int = 0         # 0 -> auto
    # scoring
    scorer: str = "vim"
    temperature: float = 1.0
    # data generation
    n_train_per_class: int = 1000
    n_test_per_class: int = 500
    n_ood: int = 1000
    classes: int = 4
    dim: int = 64
    n_per_class: int = 200
    separation: float = 12.0
    # capacity sweep
    sweep_depths: tuple[int, ...] = (1, 2, 4, 8, 16)
    sweep_seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    val_fraction: float = 0.1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise FormatError(f"{f.name} must be finite")
        for key, low in MINIMUMS.items():
            if getattr(self, key) < low:
                raise FormatError(f"{key} must be >= {low}")
        for key, allowed in CHOICES.items():
            if getattr(self, key) not in allowed:
                raise FormatError(f"{key} must be one of {'/'.join(allowed)}")
        for key in ("lr", "temperature", "separation", "a", "gamma_opt"):
            if getattr(self, key) <= 0:
                raise FormatError(f"{key} must be > 0")
        for key in ("gamma", "gamma_opt"):
            if getattr(self, key) > 1:
                raise FormatError(f"{key} must be <= 1")
        if not 0 < self.val_fraction < 1:
            raise FormatError("val_fraction must be in (0, 1)")
        for key in ("sweep_depths", "sweep_seeds"):
            if not getattr(self, key):
                raise FormatError(f"{key} must not be empty")
            if any(v < 0 for v in getattr(self, key)):
                raise FormatError(f"{key} must be >= 0")

    @classmethod
    def parse(cls, values):
        """Config from raw values (strings, or anything whose str() parses);
        every failure is a FormatError naming the key."""
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        typed = {}
        for key, raw in values.items():
            if key not in fields:
                raise FormatError(f"unknown config key: {key!r}")
            kind, convert = PARSERS[fields[key]]
            text = str(raw).strip()
            try:
                # int and float also read other scripts' digits and `_`
                if fields[key] is not str and not (text.isascii()
                                                   and "_" not in text):
                    raise ValueError(text)
                typed[key] = convert(text)
            except (KeyError, ValueError):
                raise FormatError(f"{key}: expected {kind}, "
                                  f"got {raw!r}") from None
        return cls(**typed)

    @classmethod
    def from_file(cls, path):
        values = {}
        try:
            with open(path, encoding="utf-8") as fh:
                for ln, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise FormatError(f"{path}:{ln}: expected key=value")
                    key, _, val = line.partition("=")
                    key = key.strip()
                    if key in values:
                        raise FormatError(f"{path}:{ln}: duplicate key {key}")
                    values[key] = val.strip()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None
        except OSError as exc:
            raise IoError(f"cannot read config {path}: {exc}") from exc
        return cls.parse(values)

    def canonical(self):
        """Sorted `key=value` lines of the typed values (a tuple joined by
        commas), whatever text they were parsed from."""
        values = {k: ",".join(map(str, v)) if isinstance(v, tuple) else v
                  for k, v in dataclasses.asdict(self).items()}
        return "\n".join(f"{k}={values[k]}" for k in sorted(values))

    def hash(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# commands

def _outputs(out_dir, *names):
    """The paths of out_dir's outputs `names`, checked first: IoError("cannot
    write <path>: not a regular file") for the first that exists as
    anything else, such as a directory or a FIFO that would block the
    write.  Commands call it before they read or train, so such a target
    fails at once; any other fault is left to the write itself."""
    paths = [os.path.join(out_dir, name) for name in names]
    for path in paths:
        try:
            mode = os.stat(path).st_mode
        except OSError:
            continue
        if not stat.S_ISREG(mode):
            raise IoError(f"cannot write {path}: not a regular file")
    return paths


def _write_json(path, payload):
    """Strict JSON: a non-finite number raises ValueError before the file
    is opened."""
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    with _writing(path), open(path, "w") as fh:
        fh.write(text + "\n")


def cmd_gen_data(config, seed, out_dir):
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    paths = _outputs(out_dir, "train.csv", "test.csv", "ood.csv")
    if config.task == "mixture2d":
        train, test, ood, _ = synthdata.gen_mixture_2d(
            seed, n_train_per_class=config.n_train_per_class,
            n_test_per_class=config.n_test_per_class, n_ood=config.n_ood)
        k = 2
    else:
        k, dim, npc = config.classes, config.dim, config.n_per_class
        sep = config.separation
        full = synthdata.gen_feature_set(k, dim, npc + npc // 2, sep, seed)
        x, y = full.features.reshape(k, -1, dim), full.labels.reshape(k, -1)
        train = synthdata.FeatureBatch(x[:, :npc].reshape(-1, dim),
                                       y[:, :npc].ravel())
        test = synthdata.FeatureBatch(x[:, npc:].reshape(-1, dim),
                                      y[:, npc:].ravel())
        ood_dir = -np.ones(dim) / math.sqrt(dim)
        ood_feats = (sep * 1.5 * ood_dir
                     + np.random.Generator(np.random.Philox(seed + 2))
                     .standard_normal((npc, dim)))
        ood = synthdata.FeatureBatch(ood_feats, np.full(npc, k + 1))
    for path, batch in zip(paths, (train, test, ood)):
        write_feature_file(path, batch, k)
    return out_dir


def _load_dataset(out_dir):
    """(train, test, ood, K): test.csv and ood.csv must have train.csv's
    dim and classes, train.csv and test.csv ID labels only, and ood.csv
    the OOD label K+1 only."""
    paths = [os.path.join(out_dir, f"{n}.csv") for n in ("train", "test",
                                                          "ood")]
    files = [read_feature_file(path) for path in paths]
    (train, k), (test, _), (ood, _) = files
    want = f"dim={train.features.shape[1]},classes={k}"
    for path, (batch, k_file) in zip(paths[1:], files[1:]):
        got = f"dim={batch.features.shape[1]},classes={k_file}"
        if got != want:
            raise FormatError(f"{path}:1: expected {want} as in train.csv, "
                              f"found {got}")
    for path, batch, name in ((paths[0], train, "training set"),
                              (paths[1], test, "ID test set")):
        if np.any(batch.labels > k):
            raise FormatError(f"{path}:{np.argmax(batch.labels > k) + 2}: "
                              f"OOD label {k + 1} in the {name}")
    if np.any(ood.labels <= k):
        row = np.argmax(ood.labels <= k)
        raise FormatError(f"{paths[2]}:{row + 2}: ID label {ood.labels[row]} "
                          f"in the OOD set")
    return train, test, ood, k


def _check_vim_rows(config, out_dir, train, width):
    """ViM calibrates on train.csv, which needs a residual space (d' < width,
    so width >= 2) and d'+1 rows at this width."""
    if config.scorer != "vim":
        return
    path = os.path.join(out_dir, "train.csv")
    if width < 2:
        raise FormatError(f"{path}: scorer=vim needs width >= 2, "
                          f"found {width}")
    need, n = post.default_d_prime(width) + 1, len(train.labels)
    if n < need:
        raise FormatError(f"{path}: scorer=vim needs {need} rows at width "
                          f"{width}, found {n}")


def cmd_train(config, seed, out_dir, dataset=None):
    """Trains on `dataset` (as `_load_dataset` returns it) or out_dir's."""
    checkpoint, log_path = _outputs(out_dir, "checkpoint.npz",
                                    "train_log.json")
    train, _, _, k = dataset or _load_dataset(out_dir)
    _check_vim_rows(config, out_dir, train,
                    model_shape(config, train.features.shape[1])[1].d_hat)
    model, state, log = train_model(config, seed, train, k)
    if state is not None and not state.initialized:
        print(f"warning: outlier generation never initialized "
              f"(warmup_batches={config.warmup_batches}, "
              f"training batches={state.batch_index})", file=sys.stderr)
    with _writing(checkpoint):
        tfm.save_model(model, checkpoint)
    _write_json(log_path,
                {"schema_version": REPORT_SCHEMA_VERSION,
                 "config_hash": config.hash(), "seed": seed, "epochs": log,
                 "grod": {"enabled": state is not None,
                          "initialized": state is not None
                          and state.initialized}})
    return checkpoint


def _load_checkpoint(path, width, k):
    """The model saved at path, its parameters checked by `load_model`
    against those that `init_model` gives for its meta, and the model
    against the feature files' width and class count, before any forward
    pass.  Only a regular file is read, as `_open_regular` checks."""
    try:
        with os.fdopen(_open_regular(path, f"checkpoint {path}"), "rb") as fh:
            model = tfm.load_model(fh)
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    except tfm.BadParameter as exc:
        raise FormatError(f"{path}: {exc}") from None
    except (ValueError, KeyError, TypeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not an oodkit checkpoint") from exc
    width_name = "d_hat0" if model.tau == 1 else "d_hat0*tau"
    for name, want, got in ((width_name, width, model.d_hat0 * model.tau),
                            ("n_classes", k + 1, model.n_classes)):
        if got != want:
            raise FormatError(f"{path}: {name} expected {want} from the "
                              f"feature files, found {got}")
    return model


def cmd_eval(config, seed, out_dir, checkpoint=None, dataset=None):
    report_path, = _outputs(out_dir, "report.json")
    train, test, ood, k = dataset or _load_dataset(out_dir)
    model = _load_checkpoint(checkpoint
                             or os.path.join(out_dir, "checkpoint.npz"),
                             train.features.shape[1], k)
    _check_vim_rows(config, out_dir, train, model.budget.d_hat * model.tau)
    summary, threshold = evaluate_model(
        model, train, test, ood, k, scorer=config.scorer,
        temperature=config.temperature)
    metrics = dataclasses.asdict(summary)
    ood_metrics = {key: v for key, v in metrics.items() if key != "id_acc"}
    _write_json(report_path, {
        "schema_version": REPORT_SCHEMA_VERSION, "config_hash": config.hash(),
        "seed": seed, "metrics": metrics, "threshold": threshold,
        "per_set": {"id_test": {"n": len(test.labels),
                                "id_acc": metrics["id_acc"]},
                    "ood": {"n": len(ood.labels), **ood_metrics}}})
    return summary


def cmd_sweep_capacity(config, seed, out_dir):
    """Cross-entropy-only capacity sweep on the 2-d mixture task.

    Rows cover each depth of the narrow budget (2,2,1,1,4) plus one wide
    2-layer configuration, for every sweep seed; each row records ID
    train/test accuracy, the share of OOD points classified as the extra
    class, and per-class mean top-softmax scores.
    """
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    sweep_path, = _outputs(out_dir, "sweep.json")
    ce_only = dataclasses.replace(config, task="mixture2d",
                                  grod_enabled=False, gamma=0.0)
    narrow = dict(d_hat=2, heads=2, m_h=1, m_v=1, ff=4)
    shapes = [("narrow", d, narrow) for d in config.sweep_depths] + [
        ("wide", 2, dict(d_hat=10, heads=1, m_h=1, m_v=5, ff=10))]
    runs = [(label, dataclasses.replace(ce_only, depth=depth, **shape))
            for label, depth, shape in shapes]    # checked before training
    rows = []
    for label, cfg in runs:
        for run_seed in config.sweep_seeds:
            train, test, ood, _ = synthdata.gen_mixture_2d(
                run_seed, n_train_per_class=config.n_train_per_class,
                n_test_per_class=config.n_test_per_class, n_ood=config.n_ood)
            model, _, _ = train_model(cfg, run_seed, train, 2)
            rows.append(_sweep_row(label, cfg.depth, run_seed, model, train,
                                   test, ood))
    payload = {"schema_version": REPORT_SCHEMA_VERSION,
               "config_hash": config.hash(), "seed": seed, "rows": rows}
    _write_json(sweep_path, payload)
    return rows


def _sweep_row(label, depth, run_seed, model, train, test, ood):
    k = 2
    logits = {name: np.vstack([block[1] for block
                               in _forward_blocks(model, batch.features)])
              for name, batch in (("train", train), ("test", test),
                                  ("ood", ood))}
    preds = {name: np.argmax(v, axis=1) + 1 for name, v in logits.items()}
    msp = {name: post.msp_score(post.adjust_logits(logits[name], k))
           for name in ("test", "ood")}
    means = {f"class{c}": msp["test"][test.labels == c] for c in (1, 2)}
    means["ood"] = msp["ood"]
    return {"config": label, "depth": depth, "seed": run_seed,
            "train_id_acc": id_accuracy(preds["train"], train.labels),
            "test_id_acc": id_accuracy(preds["test"], test.labels),
            "ood_acc": float(np.mean(preds["ood"] == k + 1)),
            "mean_msp": {key: float(np.mean(v)) for key, v in means.items()}}


def cmd_ingest(config, seed, out_dir):
    """Head-only training plus evaluation on externally supplied features;
    the feature files are read once, for both."""
    _outputs(out_dir, "checkpoint.npz", "train_log.json", "report.json")
    dataset = _load_dataset(out_dir)
    cmd_train(config, seed, out_dir, dataset)
    return cmd_eval(config, seed, out_dir, dataset=dataset)
