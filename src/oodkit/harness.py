"""Experiment orchestration: the typed config, the model shape it gives,
feature-file I/O, the fine-tuning loop with synthetic-outlier
augmentation, evaluation, the capacity sweep, and JSON report emission.
`task=ingest` trains the head-only model that `model_shape` states; the
sweep's configs, derived with `dataclasses.replace`, are range-checked
again.  Every feature file is parsed and written as row ranges, one per
usable core and PART_BYTES part, each range after the first in a forked
worker; the arrays, the file bytes and the error messages do not depend on
the split.  Only a regular file is read, as it is read by position."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import shutil
import stat
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
from .outliers import (FALLBACK_REASONS, GrodState, grod_augment_batch,
                       one_hot)

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
            "n_per_class": 2, "weight_decay": 0, "gamma": 0,
            "lambda_filter": 0}
CHOICES = {"task": ("mixture2d", "ingest"), "optimizer": ("adamw", "sgd"),
           "scorer": SCORERS}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One field per config key.  `parse`/`from_file` read the raw strings
    once; `__post_init__` checks the ranges.  The outlier engine reads its
    hyperparameters from this config.  The hash reads the values as
    written."""

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


# ---------------------------------------------------------------------------
# feature-file I/O

# A file is read and written as row ranges, one per usable core and such
# part, at least one; each range after the first runs in a forked worker.
PART_BYTES = 2 << 20


def _n_parts(nbytes):
    """How many ranges a file of `nbytes` is handled as: one per usable core,
    each at least PART_BYTES; one where there is no os.fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), nbytes // PART_BYTES))


def _worker(job, pipe_fd, inherited):
    """Body of a forked worker: job(pipe) writes its result to the pipe.
    It ends in os._exit, so it never returns into the caller, runs no
    atexit handler and flushes no inherited buffer; status 0 only once the
    whole result is written."""
    status = 1
    try:
        for fd in inherited:    # other workers' pipes: theirs to end
            os.close(fd)
        with open(pipe_fd, "wb") as pipe:
            job(pipe)
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked(jobs):
    """Runs each job(pipe) in a forked worker; yields [(pid, pipe), ...],
    each pipe the unbuffered read end of that worker's result.  On exit
    every pipe is closed, so a worker still writing ends, and every worker
    is waited for, also when the caller raised."""
    workers = []
    try:
        for job in jobs:
            read_fd, write_fd = os.pipe()
            try:
                # fork, not spawn: a spawned worker pays for a fresh
                # interpreter and the imports (about 0.16 s), most of what
                # the split saves.  The only other threads are OpenBLAS's,
                # which its pthread_atfork handler stops across the fork,
                # and a worker calls no BLAS.
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _worker(job, write_fd,
                        [read_fd] + [pipe.fileno() for _, pipe in workers])
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb", buffering=0)))
        yield workers
    finally:
        for _, pipe in workers:
            pipe.close()
        for pid, _ in workers:
            with contextlib.suppress(ChildProcessError):    # reaped already
                os.waitpid(pid, 0)


def _exit_status(pid):
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _format_rows(features, labels):
    for row, label in zip(features, labels):
        cells = ",".join(repr(float(v)) for v in row)
        yield f"{cells},{int(label)}\n"


def _send_rows(features, labels, pipe):
    pipe.write("".join(_format_rows(features, labels)).encode())


@contextlib.contextmanager
def _writing(path):
    """An OSError in the block becomes IoError("cannot write <path>: ...")."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


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


def _open_regular(path, name):
    """A descriptor of path, opened without blocking so that a FIFO fails
    at once, and IoError("cannot read <name>: not a regular file") unless
    path is one: every file here is read by position."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if stat.S_ISREG(os.fstat(fd).st_mode):
        return fd
    os.close(fd)
    raise IoError(f"cannot read {name}: not a regular file")


def write_feature_file(path, batch, n_id_classes):
    """The header, then one line per row.  Rows are formatted in
    `_n_parts(features.nbytes)` ranges: the first here, the others in
    forked workers that format their whole range in memory before they
    write it to their pipe, so all ranges are formatted at once; the
    ranges are written in order, so the bytes do not depend on the split."""
    features, labels = batch.features, batch.labels
    n = _n_parts(features.nbytes)
    bounds = [len(labels) * i // n for i in range(n + 1)]
    with _writing(path), open(path, "w") as fh:
        fh.write(f"dim={features.shape[1]},classes={n_id_classes},"
                 f"rows={features.shape[0]}\n")
        with _forked([functools.partial(_send_rows, features[a:b],
                                        labels[a:b])
                      for a, b in zip(bounds[1:], bounds[2:])]) as workers:
            for line in _format_rows(features[:bounds[1]],
                                     labels[:bounds[1]]):
                fh.write(line)
            fh.flush()
            for pid, pipe in workers:
                shutil.copyfileobj(pipe, fh.buffer)
                status = _exit_status(pid)
                if status:
                    raise IoError(f"cannot write {path}: worker {pid} "
                                  f"exited with status {status}")


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
    """(dim, classes, rows) from a feature file's first line, which names
    each of the three keys exactly once, each value in ASCII digits only."""
    if not line:
        raise FormatError(f"{path}: empty file")
    line = line.rstrip("\n")
    try:
        parts = [part.partition("=") for part in line.split(",")]
        if len(parts) != 3 or not all(    # so with the three keys, each once
                val.isascii() and val.isdigit() for _, _, val in parts):
            raise ValueError("not three ASCII decimal integers")
        header = {key: int(val) for key, _, val in parts}
        dim, k, rows = header["dim"], header["classes"], header["rows"]
    except (ValueError, KeyError) as exc:
        raise FormatError(f"{path}:1: bad header {line!r}") from exc
    if dim < 1 or k < 2:
        raise FormatError(f"{path}:1: need dim >= 1 and classes >= 2, got "
                          f"dim={dim}, classes={k}")
    if rows < 1:
        raise FormatError(f"{path}:1: no rows")
    return dim, k, rows


def _parse_lines(fh, dim):
    """(table, lines read) of the rest of fh; the table is None when a
    line fails to parse.  The count includes the empty lines that loadtxt
    skips."""
    n_lines = 0

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
    return table, n_lines


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of the file open as `fd`.  It reads with pread,
    so processes that share the descriptor share no file offset."""

    def __init__(self, fd, start, end):
        super().__init__()
        self.fd, self.pos, self.end = fd, start, end

    def readable(self):
        return True

    def readinto(self, buf):
        data = os.pread(self.fd, min(len(buf), self.end - self.pos),
                        self.pos)
        buf[:len(data)] = data
        self.pos += len(data)
        return len(data)


def _open_range(fd, start, end):
    """Bytes [start, end) of fd as UTF-8 text, with the file's line rules."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(fd, start, end)),
                            encoding="utf-8")


def _row_ranges(fd):
    """[(start, end), ...]: `_n_parts(size)` byte ranges of the file, fewer
    where a range would hold no line start.  Each range after the first
    starts just after a b"\n", so at a line start under the \n, \r\n and \r
    rules and never inside a UTF-8 character; a file that ends its lines
    with \r alone stays one range."""
    size = os.fstat(fd).st_size
    n = _n_parts(size)
    cuts = [0]
    for i in range(1, n):
        pos = max(cuts[-1], size * i // n)
        while pos < size:
            block = os.pread(fd, 1 << 16, pos)
            if not block:
                break
            at = block.find(b"\n")
            if at >= 0:
                pos += at + 1
                break
            pos += len(block)
        if pos >= size:
            break
        cuts.append(pos)
    return list(zip(cuts, cuts[1:] + [size]))


def _send_parsed(fd, start, end, dim, pipe):
    """A worker's result for one range: status (0 parsed, 1 rejected), line
    count and table shape as four int64 words, then the table's float64
    bytes."""
    try:
        with _open_range(fd, start, end) as fh:
            table, n_lines = _parse_lines(fh, dim)
    except UnicodeDecodeError:    # the whole-file pass names it
        table, n_lines = None, 0
    if table is None:
        pipe.write(np.array([1, n_lines, 0, 0], np.int64).tobytes())
        return
    pipe.write(np.array([0, n_lines, *table.shape], np.int64).tobytes())
    pipe.write(np.ascontiguousarray(table).data)


def _recv(path, pid, pipe, out):
    """`out`, filled from a worker's pipe; IoError if the pipe ends first."""
    view = memoryview(out).cast("B")
    while view:
        got = pipe.readinto(view)
        if not got:
            raise IoError(f"cannot read {path}: worker {pid} exited with "
                          f"status {_exit_status(pid)} before its result")
        view = view[got:]
    return out


def read_feature_file(path):
    """Returns (FeatureBatch, n_id_classes).  Each of the file's
    `_row_ranges` is parsed in one streaming pass, the first (with the
    header) here and the others at once in forked workers; a file that
    fails is read again by `_raise_bad_row`, whose FormatError names the
    offending line.  Both read by position, so only a regular file is
    read, as `_open_regular` checks."""
    try:
        fd = _open_regular(path, path)
        try:
            (start, end), *rest = _row_ranges(fd)
            with _open_range(fd, start, end) as fh:
                dim, k, rows = _read_header(path, fh.readline())
                with _forked([functools.partial(_send_parsed, fd, a, b, dim)
                              for a, b in rest]) as workers:
                    table, n_lines = _parse_lines(fh, dim)
                    # each worker's head, as `_send_parsed` sends it
                    status, n, n_rows, width = np.array(
                        [_recv(path, pid, pipe, np.zeros(4, np.int64))
                         for pid, pipe in workers], np.int64).reshape(-1, 4).T
                    n_lines += int(n.sum())
                    ok = (table is not None and not status.any()
                          and (table.shape[1] == dim + 1 or not table.shape[0])
                          and (width == dim + 1).all())
                    if ok and workers:    # sized from the parsed row counts
                        ends = table.shape[0] + np.cumsum(n_rows)
                        joined = np.empty((ends[-1], dim + 1))
                        joined[:table.shape[0]] = table
                        for (pid, pipe), a, b in zip(workers, ends - n_rows,
                                                     ends):
                            _recv(path, pid, pipe, joined[a:b])
                        table = joined
            if (not ok or n_lines != rows
                    or table.shape != (rows, dim + 1)
                    or not np.all((table[:, dim] >= 1)
                                  & (table[:, dim] <= k + 1))
                    or not np.isfinite(table[:, :dim]).all()):
                _raise_bad_row(path, fd, dim, k, rows)
        finally:
            os.close(fd)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    # contiguous rows: every later matmul sees one memory layout
    return synthdata.FeatureBatch(np.ascontiguousarray(table[:, :dim]),
                                  table[:, dim].astype(int)), k


def _raise_bad_row(path, fd, dim, k, rows):
    """Re-read the feature file open as `fd`, which the streaming pass
    rejected, and raise the FormatError for its first fault by physical
    line: the row count, then each line's field count, cells and label,
    then the first non-finite cell; an empty line has one field: it fails."""
    with _open_range(fd, 0, math.inf) as fh:    # to the end, as it is now
        fh.readline()
        found = sum(1 for _ in fh)
    if found != rows:
        raise FormatError(f"{path}: header promises {rows} rows, "
                          f"found {found}")
    with _open_range(fd, 0, math.inf) as fh:
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


def model_shape(config, width):
    """(depth, budget) of the model trained on `width`-wide features: for
    task=ingest only the head, on a frozen identity input map (depth 0,
    d_hat = width, the other budget entries 1); else the config's."""
    if config.task == "ingest":
        return 0, tfm.Budget(d_hat=width, h=1, m_h=1, m_V=1, r=1)
    return config.depth, tfm.Budget(config.d_hat, config.heads, config.m_h,
                                    config.m_v, config.ff)


def train_model(config, seed, train_batch, n_id_classes):
    """Fine-tuning loop shared by the 2-d task and the ingestion path, on
    the `model_shape` model with the features' width as input.  Each step
    joins the gradients into one vector and updates the tail of
    `model.flat` that it covers; the frozen input map of a head-only model
    leads the vector and gets no gradient, no step and no decay.

    Returns (model, grod_state, log), the model as it is after the last
    configured epoch.  Each log row's `val_quality` is the ID accuracy of
    eval's `_score_set` predictions for the held-out rows, a diagnostic.
    Raises TrainingDiverged, naming the epoch and batch (both counted from
    0 as in the log), at the first batch whose hidden features or loss are
    not finite, and at the end of an epoch whose parameters are not.
    """
    k = n_id_classes
    tau = 1
    d_hat0 = train_batch.features.shape[1]
    depth, budget = model_shape(config, d_hat0)
    model = tfm.init_model(d_hat0, tau, depth, budget, k, seed * 7 + 1)
    head_only = config.task == "ingest"
    if head_only:    # in place, so the parameters stay views of flat
        model.params["input.W"][...] = np.eye(d_hat0)

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
    val, fit = (synthdata.FeatureBatch(train_batch.features[rows],
                                       train_batch.labels[rows])
                for rows in (perm[:n_val], perm[n_val:]))
    fit_x = _as_inputs(fit.features, d_hat0, tau)

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
            xb, yb = fit_x[idx], fit.labels[idx]
            hidden, cache = tfm.forward_trunk(model, xb)
            feats = hidden.reshape(idx.size, -1)
            if not np.isfinite(feats).all():
                raise TrainingDiverged(f"epoch {epoch}, batch {n_batches}: "
                                       f"hidden features not finite")
            if config.grod_enabled:
                f_all, labels_all, info = grod_augment_batch(
                    feats, yb, grod_state, config, grod_rng)
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
            grads, dhidden = tfm.head_backward(model, hidden_all, g, dlogits)
            if not head_only:
                grads.update(tfm.trunk_backward(model, cache,
                                                dhidden[:idx.size]))
            grad = np.concatenate([grads[name].ravel()
                                   for name in model.params if name in grads])
            if use_adamw:
                tfm.adamw_step(model, grad, opt_state, lr=config.lr,
                               weight_decay=config.weight_decay)
            else:
                tfm.sgd_step(model, grad, config.lr,
                             weight_decay=config.weight_decay)
            ep_l1 += l1
            ep_l2 += l2
            ep_fake += info["n_fake"]
            if info["fallback"]:
                ep_fallbacks[info["fallback"]] += 1
            n_batches += 1
        if not np.isfinite(model.flat).all():
            name = next(name for name, value in model.params.items()
                        if not np.isfinite(value).all())
            raise TrainingDiverged(f"epoch {epoch}: parameter {name} "
                                   f"not finite")
        val_preds, _ = _score_set(model, val, k, "msp", None, 1.0)
        log.append({"epoch": epoch, "loss_l1": ep_l1 / max(1, n_batches),
                    "loss_l2": ep_l2 / max(1, n_batches),
                    "fake_ood_retained": ep_fake,
                    "grod_fallbacks": ep_fallbacks,
                    "val_quality": id_accuracy(val_preds, val.labels)})
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
    """(predictions, scores) of one set, a block at a time; a prediction is
    the argmax of the row's adjusted logits, counted from 1."""
    preds, scores = [], []
    for hidden, logits in _forward_blocks(model, batch.features):
        adjusted = post.adjust_logits(logits, k)
        preds.append(np.argmax(adjusted, axis=1) + 1)
        scores.append(_scores(scorer, adjusted, logits, hidden, calib,
                              temperature))
    return np.concatenate(preds), np.concatenate(scores)


def evaluate_model(model, train_batch, test_batch, ood_batch, n_id_classes,
                   scorer="vim", temperature=1.0):
    """(MetricSummary, threshold) of the ID test and OOD sets, the threshold
    the score that keeps 95% of the ID test scores.  Beyond its inputs it
    holds the (n,) predictions and scores and one forward block."""
    k = n_id_classes
    calib = None
    if scorer == "vim":    # only ViM calibrates on the train rows
        calib = _vim_calibration(model, train_batch, k)
    test_preds, id_scores = _score_set(model, test_batch, k, scorer, calib,
                                       temperature)
    _, ood_scores = _score_set(model, ood_batch, k, scorer, calib,
                               temperature)
    summary = metrics_mod.MetricSummary(
        id_acc=id_accuracy(test_preds, test_batch.labels),
        fpr_at_95=metrics_mod.fpr_at_tpr(id_scores, ood_scores),
        auroc=metrics_mod.auroc(id_scores, ood_scores),
        aupr_in=metrics_mod.aupr(id_scores, ood_scores),
        aupr_out=metrics_mod.aupr_out(id_scores, ood_scores))
    return summary, post.score_report(id_scores)


# ---------------------------------------------------------------------------
# commands

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
