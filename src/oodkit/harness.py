"""Experiment orchestration: config and feature-file I/O, the fine-tuning
loop with synthetic-outlier augmentation, evaluation, the capacity sweep,
and JSON report emission."""

import copy
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import loss as loss_mod
from . import metrics as metrics_mod
from . import postprocess as post
from . import synthdata
from . import transformer as tfm
from .metrics import id_accuracy
from .outliers import (FALLBACK_REASONS, GrodConfig, GrodState,
                       grod_augment_batch, one_hot, save_grod_state)

REPORT_SCHEMA_VERSION = 1
SCORERS = ("msp", "energy", "vim")


class FormatError(Exception):
    pass


class IoError(Exception):
    pass


# ---------------------------------------------------------------------------
# config

DEFAULTS = {
    "task": "mixture2d",
    "seed": 0,
    "epochs": 10,
    "batch_size": 64,
    # model
    "depth": 2,
    "d_hat": 2,
    "heads": 2,
    "m_h": 1,
    "m_v": 1,
    "ff": 4,
    # optimizer
    "optimizer": "adamw",
    "lr": 1e-4,
    "weight_decay": 5e-2,
    # outlier engine
    "grod_enabled": True,
    "gamma": 0.1,
    "a": 0.1,
    "gamma_opt": 0.1,
    "warmup_batches": 5,
    "lambda_filter": 0.1,
    "num": 0,              # 0 -> auto
    "pca_axes": 0,         # 0 -> auto
    "lda_axes": 0,
    # scoring
    "scorer": "vim",
    "temperature": 1.0,
    # data generation
    "n_train_per_class": 1000,
    "n_test_per_class": 500,
    "n_ood": 1000,
    "classes": 4,
    "dim": 64,
    "n_per_class": 200,
    "separation": 12.0,
    # capacity sweep
    "sweep_depths": "1,2,4,8,16",
    "sweep_seeds": "1,2,3,4,5",
    "val_fraction": 0.1,
}


BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


class ExperimentConfig:
    """Flat key-value config with typed access and a stable hash of the raw
    values; every key is parsed by its DEFAULTS type and checked at load."""

    def __init__(self, values=None):
        self.values = dict(DEFAULTS)
        for k, v in (values or {}).items():
            if k not in DEFAULTS:
                raise FormatError(f"unknown config key: {k}")
            self.values[k] = v
        for key, default in DEFAULTS.items():
            kind = ("int_list" if key.startswith("sweep_")
                    else type(default).__name__)
            try:    # get_int, get_float, get_bool, get_int_list or get
                value = getattr(self, f"get_{kind}", self.get)(key)
            except (KeyError, TypeError, ValueError):
                raise FormatError(f"{key}: expected {kind}, "
                                  f"got {self.values[key]!r}") from None
            if kind == "float" and not math.isfinite(value):
                raise FormatError(f"{key} must be finite")
        for key, low in (("batch_size", 2), ("epochs", 1), ("depth", 0),
                         ("d_hat", 1), ("heads", 1), ("m_h", 1), ("m_v", 1),
                         ("ff", 1), ("warmup_batches", 0), ("num", 0),
                         ("pca_axes", 0), ("lda_axes", 0)):
            if self.get_int(key) < low:
                raise FormatError(f"{key} must be >= {low}")
        if self.get("scorer") not in SCORERS:
            raise FormatError(f"scorer must be one of {'/'.join(SCORERS)}")
        for key in ("lr", "temperature"):
            if self.get_float(key) <= 0:
                raise FormatError(f"{key} must be > 0")
        try:
            self.grod = GrodConfig(
                a=self.get_float("a"), gamma=self.get_float("gamma"),
                gamma_opt=self.get_float("gamma_opt"),
                num=self.get_int("num") or None,
                warmup_batches=self.get_int("warmup_batches"),
                lambda_filter=self.get_float("lambda_filter"),
                pca_axes=self.get_int("pca_axes") or None,
                lda_axes=self.get_int("lda_axes") or None)
        except ValueError as exc:
            raise FormatError(str(exc)) from None

    @classmethod
    def from_file(cls, path):
        values = {}
        try:
            with open(path) as fh:
                for ln, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise FormatError(f"{path}:{ln}: expected key=value")
                    key, _, val = line.partition("=")
                    values[key.strip()] = val.strip()
        except OSError as exc:
            raise IoError(f"cannot read config {path}: {exc}") from exc
        return cls(values)

    def get(self, key):
        return self.values[key]

    def get_int(self, key):
        return int(self.values[key])

    def get_float(self, key):
        return float(self.values[key])

    def get_bool(self, key):
        v = self.values[key]
        if isinstance(v, bool):
            return v
        return BOOL_WORDS[str(v).strip().lower()]

    def get_int_list(self, key):
        return [int(x) for x in str(self.values[key]).split(",") if x.strip()]

    def canonical(self):
        return "\n".join(f"{k}={self.values[k]}" for k in sorted(self.values))

    def hash(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def budget(self):
        return tfm.Budget(d_hat=self.get_int("d_hat"), h=self.get_int("heads"),
                          m_h=self.get_int("m_h"), m_V=self.get_int("m_v"),
                          r=self.get_int("ff"))


# ---------------------------------------------------------------------------
# feature-file I/O

def write_feature_file(path, batch, n_id_classes):
    try:
        with open(path, "w") as fh:
            fh.write(f"dim={batch.features.shape[1]},classes={n_id_classes},"
                     f"rows={batch.features.shape[0]}\n")
            for row, label in zip(batch.features, batch.labels):
                cells = ",".join(repr(float(v)) for v in row)
                fh.write(f"{cells},{int(label)}\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_feature_file(path):
    """Returns (FeatureBatch, n_id_classes).  Raises FormatError naming the
    offending row."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = {}
    try:
        for part in lines[0].split(","):
            key, _, val = part.partition("=")
            header[key] = int(val)
        dim, k, rows = header["dim"], header["classes"], header["rows"]
    except (ValueError, KeyError) as exc:
        raise FormatError(f"{path}:1: bad header {lines[0]!r}") from exc
    if len(lines) - 1 != rows:
        raise FormatError(f"{path}: header promises {rows} rows, "
                          f"found {len(lines) - 1}")
    feats = np.empty((rows, dim))
    labels = np.empty(rows, dtype=int)
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise FormatError(f"{path}:{i}: expected {dim + 1} fields, "
                              f"got {len(cells)}")
        try:
            feats[i - 2] = [float(c) for c in cells[:dim]]
            labels[i - 2] = int(cells[dim])
        except ValueError as exc:
            raise FormatError(f"{path}:{i}: unparsable row") from exc
        if not 1 <= labels[i - 2] <= k + 1:
            raise FormatError(f"{path}:{i}: label {labels[i - 2]} out of "
                              f"range 1..{k + 1}")
    bad_rows = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad_rows.size:
        raise FormatError(f"{path}:{bad_rows[0] + 2}: non-finite value")
    return synthdata.FeatureBatch(feats, labels), k


# ---------------------------------------------------------------------------
# training

def _as_inputs(features, d_hat0, tau):
    return np.asarray(features, dtype=float).reshape(-1, d_hat0, tau)


def _val_quality(model, val_x, val_y, grod_state, grod_cfg, seed, k):
    """Model-selection criterion: mean of held-out ID accuracy and the AUROC
    of held-out ID against fake outliers generated from the held-out features;
    falls back to ID accuracy alone when no outliers are available."""
    feats, logits = _model_outputs(model, val_x)
    adjusted = post.adjust_logits(logits, k)
    acc = id_accuracy(np.argmax(adjusted, axis=1) + 1, val_y)
    if grod_state is None or not grod_state.initialized:
        return acc
    snapshot = copy.deepcopy(grod_state)
    rng = np.random.Generator(np.random.Philox(seed))
    f_all, _, info = grod_augment_batch(feats, val_y, snapshot, grod_cfg, rng)
    if info["n_fake"] == 0:
        return acc
    fake = f_all[feats.shape[0]:]
    fake_hidden = fake.reshape(-1, model.budget.d_hat, model.tau)
    fake_logits, _ = tfm.head_forward(model, fake_hidden)
    fake_adj = post.adjust_logits(fake_logits, k)
    sep = metrics_mod.auroc(post.msp_score(adjusted), post.msp_score(fake_adj))
    return 0.5 * (acc + sep)


def train_model(config, seed, train_batch, n_id_classes, d_hat0=None,
                frozen=(), depth=None, budget=None, identity_input=False):
    """Fine-tuning loop shared by the 2-d task and the ingestion path.

    Returns (model, grod_state, log).  The best epoch's parameters (by the
    held-out criterion) are restored before returning.
    """
    k = n_id_classes
    tau = 1
    d_hat0 = d_hat0 or train_batch.features.shape[1]
    depth = config.get_int("depth") if depth is None else depth
    budget = budget or config.budget()
    model = tfm.init_model(d_hat0, tau, depth, budget, k, seed * 7 + 1)
    if identity_input:
        model.params["input.W"] = np.eye(budget.d_hat, d_hat0)
        model.params["input.b"] = np.zeros(budget.d_hat)

    grod_enabled = config.get_bool("grod_enabled")
    grod_cfg = config.grod
    grod_state = GrodState(n_id_classes=k,
                           dim=budget.d_hat * tau) if grod_enabled else None
    grod_rng = np.random.Generator(np.random.Philox(seed * 7 + 3))
    shuffle_rng = np.random.Generator(np.random.Philox(seed * 7 + 2))

    n = train_batch.features.shape[0]
    n_val = max(1, int(round(config.get_float("val_fraction") * n)))
    perm = np.random.Generator(np.random.Philox(seed * 7 + 5)).permutation(n)
    val_idx, fit_idx = perm[:n_val], perm[n_val:]
    x_all = _as_inputs(train_batch.features, d_hat0, tau)
    val_x, val_y = x_all[val_idx], train_batch.labels[val_idx]
    fit_x, fit_y = x_all[fit_idx], train_batch.labels[fit_idx]

    opt_state = tfm.adamw_init(model)
    use_adamw = config.get("optimizer") == "adamw"
    lr = config.get_float("lr")
    wd = config.get_float("weight_decay")
    batch_size = config.get_int("batch_size")
    gamma = config.get_float("gamma")

    best_quality, best_params = -np.inf, None
    log = []
    for epoch in range(config.get_int("epochs")):
        order = shuffle_rng.permutation(fit_x.shape[0])
        ep_l1, ep_l2, ep_fake, n_batches = 0.0, 0.0, 0, 0
        ep_fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            if idx.size < 2:
                continue
            xb, yb = fit_x[idx], fit_y[idx]
            hidden, cache = tfm.forward_trunk(model, xb)
            feats = hidden.reshape(idx.size, -1)
            if grod_enabled:
                f_all, labels_all, info = grod_augment_batch(
                    feats, yb, grod_state, grod_cfg, grod_rng)
            else:
                f_all, labels_all = feats, one_hot(yb, k)
                info = {"warmup": False, "n_fake": 0}
            hidden_all = f_all.reshape(-1, budget.d_hat, tau)
            logits, g = tfm.head_forward(model, hidden_all)
            gamma_eff = 0.0 if info["warmup"] else gamma
            l1, l2, _, dlogits = loss_mod.batch_loss_and_grad(
                labels_all, logits, gamma_eff)
            head_grads, dhidden = tfm.head_backward(model, hidden_all, g,
                                                    dlogits)
            grads = tfm.trunk_backward(model, cache, dhidden[:idx.size])
            grads.update(head_grads)
            for name in frozen:
                grads[name] = np.zeros_like(grads[name])
            if use_adamw:
                tfm.adamw_step(model, grads, opt_state, lr=lr,
                               weight_decay=wd)
            else:
                tfm.sgd_step(model, grads, lr, weight_decay=wd)
            ep_l1 += l1
            ep_l2 += l2
            ep_fake += info["n_fake"]
            if info.get("fallback"):
                ep_fallbacks[info["fallback"]] += 1
            n_batches += 1
        quality = _val_quality(model, val_x, val_y, grod_state, grod_cfg,
                               seed * 7 + 100 + epoch, k)
        if quality > best_quality:
            best_quality = quality
            best_params = {key: v.copy() for key, v in model.params.items()}
        log.append({"epoch": epoch, "loss_l1": ep_l1 / max(1, n_batches),
                    "loss_l2": ep_l2 / max(1, n_batches),
                    "fake_ood_retained": ep_fake,
                    "grod_fallbacks": ep_fallbacks,
                    "val_quality": quality})
    if best_params is not None:
        model.params = best_params
    return model, grod_state, log


# ---------------------------------------------------------------------------
# evaluation

def _model_outputs(model, features):
    x = _as_inputs(features, model.d_hat0, model.tau)
    hidden, _ = tfm.forward_trunk(model, x)
    logits, _ = tfm.head_forward(model, hidden)
    return hidden.reshape(x.shape[0], -1), logits


def _scores(scorer, adjusted, raw_logits, features, calib, temperature):
    if scorer == "msp":
        return post.msp_score(adjusted)
    if scorer == "energy":
        return post.energy_score(raw_logits[:, :adjusted.shape[1]],
                                 temperature)
    return post.vim_score(features, adjusted, calib)


def evaluate_model(model, train_batch, test_batch, ood_batch, n_id_classes,
                   scorer="vim", temperature=1.0):
    """Metrics plus a per-sample score report for the ID test and OOD sets."""
    k = n_id_classes
    calib = None
    if scorer == "vim":    # only ViM calibrates on the train rows
        train_feats, train_logits = _model_outputs(model,
                                                   train_batch.features)
        calib = post.vim_calibrate(train_feats,
                                   post.adjust_logits(train_logits, k),
                                   post.default_d_prime(train_feats.shape[1]))
    test_feats, test_logits = _model_outputs(model, test_batch.features)
    ood_feats, ood_logits = _model_outputs(model, ood_batch.features)
    test_adj = post.adjust_logits(test_logits, k)
    ood_adj = post.adjust_logits(ood_logits, k)

    id_scores = _scores(scorer, test_adj, test_logits, test_feats, calib,
                        temperature)
    ood_scores = _scores(scorer, ood_adj, ood_logits, ood_feats, calib,
                         temperature)

    report = post.score_report(np.concatenate([id_scores, ood_scores]),
                               np.vstack([test_adj, ood_adj]), id_scores)
    summary = metrics_mod.MetricSummary(
        id_acc=id_accuracy(np.argmax(test_adj, axis=1) + 1, test_batch.labels),
        fpr_at_95=metrics_mod.fpr_at_tpr(id_scores, ood_scores),
        auroc=metrics_mod.auroc(id_scores, ood_scores),
        aupr_in=metrics_mod.aupr_in(id_scores, ood_scores),
        aupr_out=metrics_mod.aupr_out(id_scores, ood_scores))
    return summary, report


# ---------------------------------------------------------------------------
# commands

def _path(out_dir, name):
    return os.path.join(out_dir, name)


def _write_json(path, payload):
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def cmd_gen_data(config, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    task = config.get("task")
    if task == "mixture2d":
        train, test, ood, _ = synthdata.gen_mixture_2d(
            seed,
            n_train_per_class=config.get_int("n_train_per_class"),
            n_test_per_class=config.get_int("n_test_per_class"),
            n_ood=config.get_int("n_ood"))
        k = 2
    elif task == "ingest":
        k = config.get_int("classes")
        dim = config.get_int("dim")
        npc = config.get_int("n_per_class")
        n_test = max(1, npc // 2)
        sep = config.get_float("separation")
        full = synthdata.gen_feature_set(k, dim, npc + n_test, sep, seed)
        train_rows, test_rows = [], []
        for c in range(1, k + 1):
            rows = np.nonzero(full.labels == c)[0]
            train_rows.extend(rows[:npc])
            test_rows.extend(rows[npc:])
        train = synthdata.FeatureBatch(full.features[train_rows],
                                       full.labels[train_rows])
        test = synthdata.FeatureBatch(full.features[test_rows],
                                      full.labels[test_rows])
        ood_dir = -np.ones(dim) / math.sqrt(dim)
        ood_feats = (sep * 1.5 * ood_dir
                     + np.random.Generator(np.random.Philox(seed + 2))
                     .standard_normal((npc, dim)))
        ood = synthdata.FeatureBatch(ood_feats, np.full(npc, k + 1))
    else:
        raise FormatError(f"unknown task for gen-data: {task}")
    write_feature_file(_path(out_dir, "train.csv"), train, k)
    write_feature_file(_path(out_dir, "test.csv"), test, k)
    write_feature_file(_path(out_dir, "ood.csv"), ood, k)
    return out_dir


def _load_dataset(out_dir):
    train, k = read_feature_file(_path(out_dir, "train.csv"))
    test, _ = read_feature_file(_path(out_dir, "test.csv"))
    ood, _ = read_feature_file(_path(out_dir, "ood.csv"))
    return train, test, ood, k


def cmd_train(config, seed, out_dir):
    train, _, _, k = _load_dataset(out_dir)
    task = config.get("task")
    if task == "ingest":
        s = train.features.shape[1]
        model, state, log = train_model(
            config, seed, train, k, d_hat0=s, depth=0,
            budget=tfm.Budget(d_hat=s, h=1, m_h=1, m_V=1, r=1),
            frozen=("input.W", "input.b"), identity_input=True)
    else:
        model, state, log = train_model(config, seed, train, k, d_hat0=2)
    if state is not None and not state.initialized:
        print(f"warning: outlier generation never initialized "
              f"(warmup_batches={config.get_int('warmup_batches')}, "
              f"training batches={state.batch_index})", file=sys.stderr)
    tfm.save_model(model, _path(out_dir, "checkpoint.npz"))
    save_grod_state(state, _path(out_dir, "grod_state.npz"))
    _write_json(_path(out_dir, "train_log.json"),
                {"schema_version": REPORT_SCHEMA_VERSION,
                 "config_hash": config.hash(), "seed": seed, "epochs": log,
                 "grod": {"enabled": state is not None,
                          "initialized": state is not None
                          and state.initialized}})
    return _path(out_dir, "checkpoint.npz")


def cmd_eval(config, seed, out_dir, checkpoint=None):
    train, test, ood, k = _load_dataset(out_dir)
    model = tfm.load_model(checkpoint or _path(out_dir, "checkpoint.npz"))
    summary, report = evaluate_model(
        model, train, test, ood, k, scorer=config.get("scorer"),
        temperature=config.get_float("temperature"))
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config_hash": config.hash(),
        "seed": seed,
        "metrics": summary.to_dict(),
        "per_set": {
            "id_test": {"n": int(test.features.shape[0]),
                        "id_acc": summary.id_acc},
            "ood": {"n": int(ood.features.shape[0]),
                    "fpr_at_95": summary.fpr_at_95,
                    "auroc": summary.auroc,
                    "aupr_in": summary.aupr_in,
                    "aupr_out": summary.aupr_out},
        },
        "threshold": report.threshold,
    }
    _write_json(_path(out_dir, "report.json"), payload)
    return summary


def cmd_sweep_capacity(config, seed, out_dir):
    """Cross-entropy-only capacity sweep on the 2-d mixture task.

    Rows cover each depth of the narrow budget (2,2,1,1,4) plus one wide
    2-layer configuration, for every sweep seed; each row records ID
    train/test accuracy, the share of OOD points classified as the extra
    class, and per-class mean top-softmax scores.
    """
    os.makedirs(out_dir, exist_ok=True)
    depths = config.get_int_list("sweep_depths")
    seeds = config.get_int_list("sweep_seeds")
    cfg = ExperimentConfig({"grod_enabled": "false", "gamma": 0.0,
                            "epochs": config.get_int("epochs"),
                            "batch_size": config.get_int("batch_size"),
                            "lr": config.get_float("lr"),
                            "weight_decay": config.get_float("weight_decay")})
    rows = []
    configs = [("narrow", d, tfm.Budget(2, 2, 1, 1, 4)) for d in depths]
    configs.append(("wide", 2, tfm.Budget(10, 1, 1, 5, 10)))
    for label, depth, budget in configs:
        for run_seed in seeds:
            train, test, ood, _ = synthdata.gen_mixture_2d(
                run_seed,
                n_train_per_class=config.get_int("n_train_per_class"),
                n_test_per_class=config.get_int("n_test_per_class"),
                n_ood=config.get_int("n_ood"))
            model, _, _ = train_model(cfg, run_seed, train, 2, d_hat0=2,
                                      depth=depth, budget=budget)
            rows.append(_sweep_row(label, depth, run_seed, model, train,
                                   test, ood))
    payload = {"schema_version": REPORT_SCHEMA_VERSION,
               "config_hash": config.hash(), "seed": seed, "rows": rows}
    _write_json(_path(out_dir, "sweep.json"), payload)
    return rows


def _sweep_row(label, depth, run_seed, model, train, test, ood):
    k = 2
    logits = {name: _model_outputs(model, batch.features)[1]
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
    """Head-only training plus evaluation on externally supplied features."""
    cmd_train(config, seed, out_dir)
    return cmd_eval(config, seed, out_dir)
