"""Experiment orchestration: the typed config (which also carries the model
shape), feature-file I/O, the fine-tuning loop with synthetic-outlier
augmentation, evaluation, the capacity sweep, and JSON report emission.
Configs derived with `dataclasses.replace` (ingest's head-only model, the
sweep's rows) are range-checked again."""

import dataclasses
import hashlib
import json
import math
import os
import sys
import warnings
import zipfile

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


class TrainingDiverged(Exception):
    """A batch's hidden features or loss, or a parameter, is not finite."""


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
            "n_per_class": 2, "weight_decay": 0}
CHOICES = {"task": ("mixture2d", "ingest"), "optimizer": ("adamw", "sgd"),
           "scorer": SCORERS}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One field per config key.  `parse`/`from_file` read the raw strings
    once; `__post_init__` checks the ranges and builds `grod`, the outlier
    engine's config.  The hash reads the values as written."""

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
        for key in ("lr", "temperature", "separation"):
            if getattr(self, key) <= 0:
                raise FormatError(f"{key} must be > 0")
        if not 0 < self.val_fraction < 1:
            raise FormatError("val_fraction must be in (0, 1)")
        if any(s < 0 for s in self.sweep_seeds):
            raise FormatError("sweep_seeds must be >= 0")
        try:    # from the outlier-engine fields that the config has
            grod = GrodConfig(**{f.name: getattr(self, f.name)
                                 for f in dataclasses.fields(GrodConfig)
                                 if hasattr(self, f.name)})
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        object.__setattr__(self, "grod", grod)
        object.__setattr__(self, "_raw", {})

    @classmethod
    def parse(cls, values):
        """Config from raw values (strings, or anything whose str() parses);
        every failure is a FormatError naming the key."""
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        typed = {}
        for key, raw in values.items():
            if key not in fields:
                raise FormatError(f"unknown config key: {key}")
            kind, convert = PARSERS[fields[key]]
            try:
                typed[key] = convert(str(raw).strip())
            except (KeyError, ValueError):
                raise FormatError(f"{key}: expected {kind}, "
                                  f"got {raw!r}") from None
        config = cls(**typed)
        object.__setattr__(config, "_raw", dict(values))
        return config

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
        """Sorted `key=value` lines: each value as given to `parse`, else
        the typed value (a tuple joined by commas)."""
        values = {k: ",".join(map(str, v)) if isinstance(v, tuple) else v
                  for k, v in dataclasses.asdict(self).items()}
        values.update(self._raw)
        return "\n".join(f"{k}={values[k]}" for k in sorted(values))

    def hash(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    @property
    def budget(self):
        return tfm.Budget(d_hat=self.d_hat, h=self.heads, m_h=self.m_h,
                          m_V=self.m_v, r=self.ff)


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


def _parse_rows(lines, dim):
    """(n, dim+1) float table of feature rows: cells by numpy's C float
    parser, the label by `int` (so `2.0` is rejected).  Both passes of
    `read_feature_file` parse with this one call, so they accept one
    grammar.  Empty lines are skipped here; the callers reject them."""
    with warnings.catch_warnings():    # no data lines: the shape check fails
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                          converters={dim: int})


def _read_header(path, line):
    """(dim, classes, rows) from a feature file's first line."""
    if not line:
        raise FormatError(f"{path}: empty file")
    line = line.rstrip("\n")
    header = {}
    try:
        for part in line.split(","):
            key, _, val = part.partition("=")
            header[key] = int(val)
        dim, k, rows = header["dim"], header["classes"], header["rows"]
    except (ValueError, KeyError) as exc:
        raise FormatError(f"{path}:1: bad header {line!r}") from exc
    if dim < 1 or k < 2:
        raise FormatError(f"{path}:1: need dim >= 1 and classes >= 2, got "
                          f"dim={dim}, classes={k}")
    if rows < 1:
        raise FormatError(f"{path}:1: no rows")
    return dim, k, rows


def read_feature_file(path):
    """Returns (FeatureBatch, n_id_classes).  The rows are parsed in one
    streaming pass; a file that fails it is read again by
    `_raise_bad_row`, whose FormatError names the offending line."""
    try:
        with open(path, encoding="utf-8") as fh:
            dim, k, rows = _read_header(path, fh.readline())
            n_lines = 0    # counts the empty lines that loadtxt skips

            def lines():
                nonlocal n_lines
                for n_lines, line in enumerate(fh, start=1):
                    yield line

            try:
                table = _parse_rows(lines(), dim)
            except UnicodeDecodeError:    # a ValueError, but no row fault
                raise
            except ValueError:
                table = None
        if (table is None or n_lines != rows
                or table.shape != (rows, dim + 1)
                or not np.all((table[:, dim] >= 1) & (table[:, dim] <= k + 1))
                or not np.isfinite(table[:, :dim]).all()):
            _raise_bad_row(path, dim, k, rows)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    # contiguous rows: every later matmul sees one memory layout
    return synthdata.FeatureBatch(np.ascontiguousarray(table[:, :dim]),
                                  table[:, dim].astype(int)), k


def _raise_bad_row(path, dim, k, rows):
    """Re-read a feature file that the streaming pass rejected and raise
    the FormatError for its first fault, by physical line: the row count,
    then each line's field count, cells and label, then the first
    non-finite cell.  An empty line has one field, so it is rejected."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        found = sum(1 for _ in fh)
        if found != rows:
            raise FormatError(f"{path}: header promises {rows} rows, "
                              f"found {found}")
        fh.seek(0)
        fh.readline()
        non_finite = None
        for i, line in enumerate(fh, start=2):
            n_fields = line.count(",") + 1
            if n_fields != dim + 1:
                raise FormatError(f"{path}:{i}: expected {dim + 1} fields, "
                                  f"got {n_fields}")
            try:
                row = _parse_rows([line], dim)
            except ValueError as exc:
                raise FormatError(f"{path}:{i}: unparsable row") from exc
            if not 1 <= row[0, dim] <= k + 1:
                raise FormatError(f"{path}:{i}: label {int(row[0, dim])} out "
                                  f"of range 1..{k + 1}")
            if non_finite is None and not np.isfinite(row[0, :dim]).all():
                non_finite = i
    if non_finite is not None:
        raise FormatError(f"{path}:{non_finite}: non-finite value")
    raise FormatError(f"{path}: rejected, but no line is at fault; "
                      f"did the file change while it was read?")


# ---------------------------------------------------------------------------
# training

def _as_inputs(features, d_hat0, tau):
    return np.asarray(features, dtype=float).reshape(-1, d_hat0, tau)


def _val_quality(model, val_x, val_y, k):
    """Held-out ID accuracy of the current model, logged per epoch as a
    diagnostic; it selects nothing."""
    _, logits = _model_outputs(model, val_x)
    return id_accuracy(np.argmax(post.adjust_logits(logits, k), axis=1) + 1,
                       val_y)


def train_model(config, seed, train_batch, n_id_classes,
                identity_input=False):
    """Fine-tuning loop shared by the 2-d task and the ingestion path; the
    model has the config's depth and budget, the features' width as input,
    and with `identity_input` a frozen identity input map.

    Returns (model, grod_state, log), the model as it is after the last
    configured epoch.  Each log row's `val_quality` is the held-out ID
    accuracy of that epoch's model, a diagnostic only.  Raises
    TrainingDiverged, naming the epoch and batch (both counted from 0 as
    in the log), at the first batch whose hidden features or loss are not
    finite, and at the end of an epoch whose parameters are not.
    """
    k = n_id_classes
    tau = 1
    d_hat0 = train_batch.features.shape[1]
    budget = config.budget
    model = tfm.init_model(d_hat0, tau, config.depth, budget, k, seed * 7 + 1)
    if identity_input:
        model.params["input.W"] = np.eye(budget.d_hat, d_hat0)
        model.params["input.b"] = np.zeros(budget.d_hat)

    grod_state = (GrodState(n_id_classes=k, dim=budget.d_hat * tau)
                  if config.grod_enabled else None)
    grod_rng = np.random.Generator(np.random.Philox(seed * 7 + 3))
    shuffle_rng = np.random.Generator(np.random.Philox(seed * 7 + 2))

    n = train_batch.features.shape[0]
    n_val = max(1, int(round(config.val_fraction * n)))
    if n - n_val < 2:
        raise FormatError(f"val_fraction={config.val_fraction} leaves "
                          f"{n - n_val} of {n} rows for training")
    perm = np.random.Generator(np.random.Philox(seed * 7 + 5)).permutation(n)
    val_idx, fit_idx = perm[:n_val], perm[n_val:]
    x_all = _as_inputs(train_batch.features, d_hat0, tau)
    val_x, val_y = x_all[val_idx], train_batch.labels[val_idx]
    fit_x, fit_y = x_all[fit_idx], train_batch.labels[fit_idx]

    opt_state = tfm.adamw_init(model)
    use_adamw = config.optimizer == "adamw"

    log = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(fit_x.shape[0])
        ep_l1, ep_l2, ep_fake, n_batches = 0.0, 0.0, 0, 0
        ep_fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            if idx.size < 2:
                continue
            xb, yb = fit_x[idx], fit_y[idx]
            hidden, cache = tfm.forward_trunk(model, xb)
            feats = hidden.reshape(idx.size, -1)
            if not np.isfinite(feats).all():
                raise TrainingDiverged(f"epoch {epoch}, batch {n_batches}: "
                                       f"hidden features not finite")
            if config.grod_enabled:
                f_all, labels_all, info = grod_augment_batch(
                    feats, yb, grod_state, config.grod, grod_rng)
            else:
                f_all, labels_all = feats, one_hot(yb, k)
                info = {"warmup": False, "n_fake": 0, "fallback": None}
            hidden_all = f_all.reshape(-1, budget.d_hat, tau)
            logits, g = tfm.head_forward(model, hidden_all)
            gamma_eff = 0.0 if info["warmup"] else config.gamma
            l1, l2, _, dlogits = loss_mod.batch_loss_and_grad(
                labels_all, logits, gamma_eff)
            if not (math.isfinite(l1) and math.isfinite(l2)):
                raise TrainingDiverged(f"epoch {epoch}, batch {n_batches}: "
                                       f"loss not finite")
            head_grads, dhidden = tfm.head_backward(model, hidden_all, g,
                                                    dlogits)
            grads = tfm.trunk_backward(model, cache, dhidden[:idx.size])
            grads.update(head_grads)
            if identity_input:    # frozen: no gradient step, no decay
                del grads["input.W"], grads["input.b"]
            if use_adamw:
                tfm.adamw_step(model, grads, opt_state, lr=config.lr,
                               weight_decay=config.weight_decay)
            else:
                tfm.sgd_step(model, grads, config.lr,
                             weight_decay=config.weight_decay)
            ep_l1 += l1
            ep_l2 += l2
            ep_fake += info["n_fake"]
            if info["fallback"]:
                ep_fallbacks[info["fallback"]] += 1
            n_batches += 1
        for name, value in model.params.items():
            if not np.isfinite(value).all():
                raise TrainingDiverged(f"epoch {epoch}: parameter {name} "
                                       f"not finite")
        log.append({"epoch": epoch, "loss_l1": ep_l1 / max(1, n_batches),
                    "loss_l2": ep_l2 / max(1, n_batches),
                    "fake_ood_retained": ep_fake,
                    "grod_fallbacks": ep_fallbacks,
                    "val_quality": _val_quality(model, val_x, val_y, k)})
    return model, grod_state, log


# ---------------------------------------------------------------------------
# evaluation

# rows per block of every eval-time forward pass: 0.5 MB per block at s=64
EVAL_BLOCK_ROWS = 1024


def _model_outputs(model, features):
    x = _as_inputs(features, model.d_hat0, model.tau)
    hidden, _ = tfm.forward_trunk(model, x)
    logits, _ = tfm.head_forward(model, hidden)
    return hidden.reshape(x.shape[0], -1), logits


def _forward_blocks(model, features):
    """(hidden, logits) of each EVAL_BLOCK_ROWS-row block of features, in
    row order.  A row's outputs do not depend on the rows beside it, so
    the blocks equal the one-shot forward pass bit for bit."""
    for start in range(0, features.shape[0], EVAL_BLOCK_ROWS):
        yield _model_outputs(model, features[start:start + EVAL_BLOCK_ROWS])


def _scores(scorer, adjusted, raw_logits, features, calib, temperature):
    if scorer == "msp":
        return post.msp_score(adjusted)
    if scorer == "energy":
        return post.energy_score(raw_logits[:, :adjusted.shape[1]],
                                 temperature)
    return post.vim_score(features, adjusted, calib)


def _vim_calibration(model, train_batch, k):
    """ViM's calibration on the train rows, which go through the model
    once per calibration pass, a block at a time."""
    def blocks():
        for hidden, logits in _forward_blocks(model, train_batch.features):
            yield hidden, post.adjust_logits(logits, k)

    return post.vim_calibrate(
        blocks, post.default_d_prime(model.budget.d_hat * model.tau))


def _score_set(model, batch, k, scorer, calib, temperature):
    """(adjusted logits, scores) of one set, scored a block at a time."""
    adjusted, scores = [], []
    for hidden, logits in _forward_blocks(model, batch.features):
        adjusted.append(post.adjust_logits(logits, k))
        scores.append(_scores(scorer, adjusted[-1], logits, hidden, calib,
                              temperature))
    return np.vstack(adjusted), np.concatenate(scores)


def evaluate_model(model, train_batch, test_batch, ood_batch, n_id_classes,
                   scorer="vim", temperature=1.0):
    """Metrics plus a per-sample score report for the ID test and OOD sets.
    Beyond its inputs it holds the (n, K) adjusted logits, the (n,) scores
    and one forward block."""
    k = n_id_classes
    calib = None
    if scorer == "vim":    # only ViM calibrates on the train rows
        calib = _vim_calibration(model, train_batch, k)
    test_adj, id_scores = _score_set(model, test_batch, k, scorer, calib,
                                     temperature)
    ood_adj, ood_scores = _score_set(model, ood_batch, k, scorer, calib,
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

def _write_json(path, payload):
    """Strict JSON: a non-finite number raises ValueError before the file
    is opened."""
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def cmd_gen_data(config, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    if config.task == "mixture2d":
        train, test, ood, _ = synthdata.gen_mixture_2d(
            seed, n_train_per_class=config.n_train_per_class,
            n_test_per_class=config.n_test_per_class, n_ood=config.n_ood)
        k = 2
    else:
        k, dim, npc = config.classes, config.dim, config.n_per_class
        sep = config.separation
        full = synthdata.gen_feature_set(k, dim, npc + npc // 2, sep, seed)
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
    for name, batch in (("train", train), ("test", test), ("ood", ood)):
        write_feature_file(os.path.join(out_dir, f"{name}.csv"), batch, k)
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


def cmd_train(config, seed, out_dir):
    return _train(config, seed, out_dir, _load_dataset(out_dir))


def _train(config, seed, out_dir, dataset):
    train, _, _, k = dataset
    ingest = config.task == "ingest"
    run_config = dataclasses.replace(    # head-only: identity input, no blocks
        config, depth=0, d_hat=train.features.shape[1], heads=1, m_h=1,
        m_v=1, ff=1) if ingest else config
    _check_vim_rows(config, out_dir, train, run_config.d_hat)
    model, state, log = train_model(run_config, seed, train, k,
                                    identity_input=ingest)
    if state is not None and not state.initialized:
        print(f"warning: outlier generation never initialized "
              f"(warmup_batches={config.warmup_batches}, "
              f"training batches={state.batch_index})", file=sys.stderr)
    tfm.save_model(model, os.path.join(out_dir, "checkpoint.npz"))
    save_grod_state(state, os.path.join(out_dir, "grod_state.npz"))
    _write_json(os.path.join(out_dir, "train_log.json"),
                {"schema_version": REPORT_SCHEMA_VERSION,
                 "config_hash": config.hash(), "seed": seed, "epochs": log,
                 "grod": {"enabled": state is not None,
                          "initialized": state is not None
                          and state.initialized}})
    return os.path.join(out_dir, "checkpoint.npz")


def _load_checkpoint(path, width, k):
    """The model saved at path, checked before any forward pass against the
    feature files' width and class count, and its parameters against the
    names, shapes and dtype that `init_model` gives for its meta."""
    try:
        model = tfm.load_model(path)
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not an oodkit checkpoint") from exc
    for name, want, got in (("d_hat0", width, model.d_hat0),
                            ("n_classes", k + 1, model.n_classes)):
        if got != want:
            raise FormatError(f"{path}: {name} expected {want} from the "
                              f"feature files, found {got}")
    shapes = tfm.param_shapes(model.d_hat0, model.tau, model.depth,
                              model.budget, k)
    for name, shape in shapes.items():
        value = model.params.get(name)
        if value is None:
            fault = "missing"
        elif value.shape != shape:
            fault = f"shape {value.shape}, expected {shape}"
        elif value.dtype != np.float64:
            fault = f"dtype {value.dtype}, expected float64"
        elif not np.isfinite(value).all():
            fault = "not finite"
        else:
            continue
        raise FormatError(f"{path}: parameter {name} {fault}")
    unexpected = sorted(set(model.params) - set(shapes))
    if unexpected:
        raise FormatError(f"{path}: parameter {unexpected[0]} unexpected")
    return model


def cmd_eval(config, seed, out_dir, checkpoint=None):
    return _eval(config, seed, out_dir, _load_dataset(out_dir), checkpoint)


def _eval(config, seed, out_dir, dataset, checkpoint=None):
    train, test, ood, k = dataset
    model = _load_checkpoint(checkpoint
                             or os.path.join(out_dir, "checkpoint.npz"),
                             train.features.shape[1], k)
    _check_vim_rows(config, out_dir, train, model.budget.d_hat * model.tau)
    summary, report = evaluate_model(
        model, train, test, ood, k, scorer=config.scorer,
        temperature=config.temperature)
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
    _write_json(os.path.join(out_dir, "report.json"), payload)
    return summary


def cmd_sweep_capacity(config, seed, out_dir):
    """Cross-entropy-only capacity sweep on the 2-d mixture task.

    Rows cover each depth of the narrow budget (2,2,1,1,4) plus one wide
    2-layer configuration, for every sweep seed; each row records ID
    train/test accuracy, the share of OOD points classified as the extra
    class, and per-class mean top-softmax scores.
    """
    os.makedirs(out_dir, exist_ok=True)
    ce_only = dataclasses.replace(config, grod_enabled=False, gamma=0.0)
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
    _write_json(os.path.join(out_dir, "sweep.json"), payload)
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
    dataset = _load_dataset(out_dir)
    _train(config, seed, out_dir, dataset)
    return _eval(config, seed, out_dir, dataset)
