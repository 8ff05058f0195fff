"""Tests for configuration, feature-file I/O, the training/eval commands
and the CLI surface."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oodkit import cli, evaluation, featurefile, harness, training
from oodkit import postprocess as post
from oodkit import transformer as tfm
from oodkit.harness import (ExperimentConfig, FormatError, IoError,
                            read_feature_file, write_feature_file)
from oodkit import outliers
from oodkit.metrics import pick_threshold
from oodkit.numerics import NotPositiveDefinite
from oodkit.synthdata import FeatureBatch, gen_mixture_2d


def small_config(**overrides):
    values = {"n_train_per_class": 100, "n_test_per_class": 50, "n_ood": 80,
              "epochs": 2, "batch_size": 32, "lr": 0.01}
    values.update(overrides)
    return ExperimentConfig.parse(values)


class TestExperimentConfig:
    def test_defaults_and_typed_access(self):
        cfg = ExperimentConfig()
        assert cfg.task == "mixture2d"
        assert cfg.epochs == 10
        assert cfg.gamma == 0.1
        assert cfg.grod_enabled is True
        assert cfg.sweep_depths == (1, 2, 4, 8, 16)
        assert len(dataclasses.fields(cfg)) == 34
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epochs = 3

    def test_parse_once_into_typed_fields(self):
        cfg = ExperimentConfig.parse({"epochs": " 3", "lr": "5e-3",
                                      "sweep_seeds": "4, 5,", "num": "0",
                                      "grod_enabled": "off"})
        assert (cfg.epochs, cfg.lr, cfg.sweep_seeds) == (3, 0.005, (4, 5))
        assert cfg.grod_enabled is False
        assert cfg.num == 0 and not hasattr(cfg, "grod")
        assert harness.model_shape(cfg, 7) == (
            2, tfm.Budget(d_hat=2, h=2, m_h=1, m_V=1, r=4))

    def test_replace_revalidates(self):
        cfg = ExperimentConfig.parse({"epochs": "3"})
        wide = dataclasses.replace(cfg, d_hat=10, m_v=5, gamma=0.0)
        assert harness.model_shape(wide, 7)[1].d_hat == 10
        assert wide.gamma == 0.0
        for key, value in (("epochs", 0), ("gamma", 1.5), ("task", "foo"),
                           ("lr", float("inf"))):
            with pytest.raises(FormatError, match=rf"^{key}\b"):
                dataclasses.replace(cfg, **{key: value})

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError):
            ExperimentConfig.parse({"no_such_key": 1})

    def test_invalid_values_rejected(self):
        with pytest.raises(FormatError):
            ExperimentConfig.parse({"batch_size": 1})
        with pytest.raises(FormatError):
            ExperimentConfig.parse({"epochs": 0})

    @pytest.mark.parametrize("key,value", [
        ("scorer", "foo"), ("lr", 0), ("lr", "-1"), ("temperature", 0.0),
        ("temperature", "-0.5"), ("lr", "abc"), ("warmup_batches", "abc"),
        ("gamma", "1.5"), ("grod_enabled", "ture"), ("sweep_depths", "1,x"),
        ("epochs", "2.5"), ("lr", "nan"), ("num", "-1"), ("heads", "0"),
        ("a", "0"), ("gamma_opt", "0"), ("lr", "inf"), ("optimizer", "adam"),
        ("task", "foo"), ("val_fraction", "1.0"), ("val_fraction", "-0.1"),
        ("val_fraction", "0"),
        ("classes", "1"), ("dim", "1"), ("n_per_class", "0"),
        ("n_per_class", "1"), ("n_train_per_class", "1"),
        ("n_test_per_class", "0"), ("n_ood", "0"), ("separation", "0"),
        ("separation", "-12"), ("seed", "-1"), ("sweep_seeds", "1,-1"),
        ("sweep_depths", "-1"),
        ("weight_decay", "-50"), ("sweep_seeds", ""), ("sweep_depths", ","),
        ("lambda_filter", "-0.1"), ("gamma_opt", "1.5"), ("gamma", "-0.1"),
        ("a", "-1")])
    def test_scorer_and_ranges_rejected_naming_key(self, key, value):
        with pytest.raises(FormatError, match=rf"^{key}\b"):
            ExperimentConfig.parse({key: value})

    # the non-ASCII and `_` cases of TestFeatureFile.test_bad_header, in an
    # int, a float and an int-list value; Python's int and float read them
    @pytest.mark.parametrize("key,kind,value", [
        ("epochs", "int", "1_0"), ("seed", "int", "1_000"),
        ("epochs", "int", "\u0661\u0660"), ("epochs", "int", "\u0662"),
        ("lr", "float", "0_5"), ("lr", "float", "1_000.5"),
        ("lr", "float", "\u0660.\u0665"), ("lr", "float", "\u0662"),
        ("sweep_seeds", "int list", "1,0_2"),
        ("sweep_seeds", "int list", "1,\u0662"),
        ("sweep_depths", "int list", "\u0661\u0660")],
        ids=["underscore_int", "underscore_seed", "arabic_int",
             "arabic_digit_int", "underscore_float", "underscore_decimal",
             "arabic_decimal", "arabic_digit_float", "underscore_list",
             "arabic_digit_list", "arabic_list"])
    def test_numbers_are_ascii_without_underscores(self, key, kind, value):
        with pytest.raises(FormatError, match=rf"^{key}: expected {kind}, "
                                              rf"got '{value}'$"):
            ExperimentConfig.parse({key: value})

    def test_every_scorer_accepted(self):
        for scorer in ("msp", "energy", "vim"):
            assert ExperimentConfig.parse({"scorer": scorer}).scorer == scorer

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nepochs = 3\ngamma=0.2\n\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.epochs == 3
        assert cfg.gamma == 0.2

    def test_from_file_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(FormatError):
            ExperimentConfig.from_file(path)
        path.write_bytes(b"epochs=\xff\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            ExperimentConfig.from_file(path)

    def test_from_file_rejects_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("task=ingest\nepochs=3\n# again\ntask = mixture2d\n")
        with pytest.raises(FormatError,
                           match=r"dup\.cfg:4: duplicate key task$"):
            ExperimentConfig.from_file(path)

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig.parse({"epochs": 3})
        b = ExperimentConfig.parse({"epochs": 3})
        c = ExperimentConfig.parse({"epochs": 4})
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert len(a.hash()) == 16

    def test_bool_parsing_from_strings(self):
        assert ExperimentConfig.parse(
            {"grod_enabled": "false"}).grod_enabled is False
        assert ExperimentConfig.parse(
            {"grod_enabled": "1"}).grod_enabled is True
        for word, value in (("true", True), ("Yes", True), ("on", True),
                            ("0", False), ("no", False), (" OFF ", False)):
            assert ExperimentConfig.parse(
                {"grod_enabled": word}).grod_enabled is value

    def test_parsed_values_hashed(self):
        # the hash reads the values as parsed, not as written
        assert ExperimentConfig().hash() == "50ed71bbab0b51a1"
        assert ExperimentConfig.parse({"epochs": "3", "grod_enabled": "false",
                                       "lr": "0.005"}).hash() == \
            "26a490a6c574c315"
        first = ExperimentConfig.parse({"lr": "0.005", "grod_enabled": "true"})
        equal = [ExperimentConfig.parse({"lr": "5e-3", "grod_enabled": "yes"}),
                 dataclasses.replace(first), ExperimentConfig(lr=0.005)]
        for config in equal:
            assert config == first
            assert config.hash() == first.hash() == "f57bcd061f9cafe4"


CONFIG_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)]
GOOD_LINES = ExperimentConfig().canonical().splitlines()   # key=default
JUNK_VALUES = ["", " ", "nan", "NaN", "inf", "-inf", "1e309", "-1", "-0.5",
               "0", "1", "2", "0.5", "1.0", "2.5", "abc", "ture", "1,x", ",",
               "true", "off", "ingest", "adam", "sgd", "energy", "1,2"]
LINE_TEXT = st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\n\r")
KEY_VALUE_LINE = st.one_of(
    st.sampled_from(GOOD_LINES),
    st.tuples(st.sampled_from(CONFIG_KEYS + ["no_such_key", ""]),
              st.one_of(st.sampled_from(JUNK_VALUES),
                        st.integers(-10 ** 6, 10 ** 6).map(str),
                        st.floats().map(repr),
                        st.text(LINE_TEXT, max_size=6)))
    .map("=".join))
# up to six key=value lines with distinct keys (repeats have their own
# examples), then at most one line of free text
CONFIG_LINES = st.tuples(st.lists(KEY_VALUE_LINE, max_size=6,
                                  unique_by=lambda line: line.split("=")[0]),
                         st.lists(st.text(LINE_TEXT, max_size=12),
                                  max_size=1)).map(lambda p: p[0] + p[1])


def assert_valid_config(cfg):
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type is float:
            assert type(value) is float and math.isfinite(value), f.name
        elif f.type in (int, str, bool):
            assert type(value) is f.type, f.name
        else:
            assert type(value) is tuple and value, f.name
            assert all(type(v) is int for v in value), f.name
    assert cfg.task in ("mixture2d", "ingest")
    assert cfg.optimizer in ("adamw", "sgd")
    assert cfg.scorer in ("msp", "energy", "vim")
    assert min(cfg.batch_size, cfg.n_train_per_class, cfg.classes, cfg.dim,
               cfg.n_per_class) >= 2
    assert min(cfg.epochs, cfg.d_hat, cfg.heads, cfg.m_h, cfg.m_v, cfg.ff,
               cfg.n_test_per_class, cfg.n_ood) >= 1
    assert min(cfg.depth, cfg.warmup_batches, cfg.num, cfg.pca_axes,
               cfg.lda_axes) >= 0
    assert min(cfg.lr, cfg.temperature, cfg.separation, cfg.a) > 0
    assert 0 < cfg.val_fraction < 1 and 0 <= cfg.gamma <= 1
    assert 0 < cfg.gamma_opt <= 1 and cfg.lambda_filter >= 0


class TestConfigFuzz:
    @given(CONFIG_LINES)
    @example(["epochs=3", "lr=5e-3", "sweep_seeds=1,2"])
    @example(["epochs=3", "epochs=3"])
    @example(["task=foo"])
    @settings(max_examples=300, deadline=None)
    def test_loads_valid_config_or_raises_format_error(self, tmp_path_factory,
                                                       lines):
        path = tmp_path_factory.mktemp("fuzz") / "run.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            cfg = ExperimentConfig.from_file(path)
        except FormatError:
            return
        assert_valid_config(cfg)


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        batch = FeatureBatch(rng.standard_normal((20, 3)),
                             rng.integers(1, 3, size=20))
        path = tmp_path / "f.csv"
        write_feature_file(path, batch, 2)
        loaded, k = read_feature_file(path)
        assert k == 2
        np.testing.assert_array_equal(loaded.features, batch.features)
        np.testing.assert_array_equal(loaded.labels, batch.labels)

    def test_header_format(self, tmp_path):
        batch = FeatureBatch(np.zeros((3, 2)), np.array([1, 1, 2]))
        path = tmp_path / "f.csv"
        write_feature_file(path, batch, 2)
        assert path.read_text().splitlines()[0] == "dim=2,classes=2,rows=3"

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim=2,classes=2,rows=2\n"
                        "0.0,0.0,1\n"
                        "0.0,nope,2\n")
        with pytest.raises(FormatError, match=":3"):
            read_feature_file(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim=2,classes=2,rows=1\n0.0,1\n")
        with pytest.raises(FormatError, match=":2"):
            read_feature_file(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim=2,classes=2,rows=5\n0.0,0.0,1\n")
        with pytest.raises(FormatError, match="promises 5"):
            read_feature_file(path)

    @pytest.mark.parametrize("text", [
        "hello\n", "dim=0,classes=2,rows=1\n1\n",
        "dim=2,classes=0,rows=1\n0.0,0.0,1\n",
        "dim=2,classes=2,rows=1,dim=2\n0.0,0.0,1\n",
        "dim=2,classes=2,rows=1,dim=3\n0.0,0.0,1\n",
        "dim=2,classes=2,rows=1,extra=9\n0.0,0.0,1\n",
        "dim=2,classes=2,rows=1,dim=2,extra=9\n0.0,0.0,1\n",
        "dim=2,classes=2,rows=1,\n0.0,0.0,1\n",
        "dim=0_2,classes=2,rows=1\n0.0,0.0,1\n",
        "dim=2,classes=+2,rows=1\n0.0,0.0,1\n",
        "dim=2,classes=2,rows= 1\n0.0,0.0,1\n",
        "dim=\u0662,classes=2,rows=1\n0.0,0.0,1\n",
        "dim=2,classes=2,rows=-1\n0.0,0.0,1\n"],
        ids=["garbled", "dim0", "classes0", "repeated", "repeated_differs",
             "unknown", "repeated_and_unknown", "trailing_comma",
             "underscore", "plus_sign", "space", "arabic_digit", "negative"])
    def test_bad_header(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=r"bad\.csv:1: "):
            read_feature_file(path)
        assert outcome(ref_read_feature_file, path) == outcome(
            read_feature_file, path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text("dim=2,classes=2,rows=3\n"
                        "0.0,0.0,1\n"
                        f"0.0,{cell},2\n"
                        f"{cell},0.0,1\n")
        with pytest.raises(FormatError, match=r"bad\.csv:3: non-finite value"):
            read_feature_file(path)

    def test_no_rows_rejected_at_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("dim=2,classes=2,rows=0\n")
        with pytest.raises(FormatError, match=r"empty\.csv:1: no rows$"):
            read_feature_file(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim=2,classes=2,rows=1\n0.0,0.0,9\n")
        with pytest.raises(FormatError, match="label 9"):
            read_feature_file(path)

    @pytest.mark.parametrize("kind", ["fifo", "dev_null", "directory"])
    def test_non_regular_path_fails_at_once(self, tmp_path, kind):
        path = tmp_path / "train.csv"
        assert eval_on_non_regular(tmp_path, path, kind) == (
            f"error: IoError: cannot read {path}: not a regular file\n")


def eval_on_non_regular(out, path, kind, *options):
    """stderr of a failing CLI `eval --out out` once path is made a FIFO,
    a link to /dev/null or a directory.  It runs in a child process with a
    timeout, so a reader that blocks on a FIFO with no writer fails the
    test instead of stalling the suite."""
    if kind == "fifo":
        os.mkfifo(path)
    elif kind == "dev_null":
        path.symlink_to(os.devnull)
    else:
        path.mkdir()
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    run = subprocess.run(
        [sys.executable, "-m", "oodkit.cli", "eval", "--out", str(out),
         *options], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=30)
    assert run.returncode == 1
    return run.stderr


def ref_read_feature_file(path):
    """The per-row reader that `read_feature_file` replaced, kept verbatim
    as the oracle of its arrays and messages."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = {}
    try:
        for part in lines[0].split(","):
            key, _, val = part.partition("=")
            if key not in ("dim", "classes", "rows") or key in header:
                raise KeyError(key)
            if not (val.isascii() and val.isdigit()):
                raise ValueError(val)
            header[key] = int(val)
        dim, k, rows = header["dim"], header["classes"], header["rows"]
    except (ValueError, KeyError) as exc:
        raise FormatError(f"{path}:1: bad header {lines[0]!r}") from exc
    if dim < 1 or k < 2:
        raise FormatError(f"{path}:1: need dim >= 1 and classes >= 2, got "
                          f"dim={dim}, classes={k}")
    if rows < 1:
        raise FormatError(f"{path}:1: no rows")
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
    return FeatureBatch(feats, labels), k


def outcome(reader, path):
    """A reader's arrays, or the message of its FormatError."""
    try:
        batch, k = reader(path)
    except FormatError as exc:
        return str(exc)
    return batch, k


def assert_bitwise_equal(got, want):
    assert got.features.dtype == want.features.dtype == np.float64
    assert got.features.shape == want.features.shape
    np.testing.assert_array_equal(got.features.view(np.uint64),
                                  want.features.view(np.uint64))
    assert got.labels.dtype == want.labels.dtype
    np.testing.assert_array_equal(got.labels, want.labels)


# signed zeros, the smallest and largest subnormals, the smallest normal,
# the largest finite values and integer-valued floats
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                  2.2250738585072014e-308, 1e308, -1e308,
                  1.7976931348623157e308, 3.0, -42.0, 2.0 ** 53, 1e16, 0.1]


@st.composite
def valid_feature_sets(draw):
    """(FeatureBatch, K): every cell is a normal draw, a draw scaled by
    10^-323..10^306, an integer-valued float or a special value, plus a
    few cells that hypothesis picks."""
    dim, rows, k = (draw(st.integers(1, 70)), draw(st.integers(1, 300)),
                    draw(st.integers(2, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (rows, dim)
    normal = rng.standard_normal(shape)
    kinds = [normal, normal * 10.0 ** rng.integers(-323, 307, size=shape),
             rng.integers(-10 ** 6, 10 ** 6, size=shape).astype(float),
             rng.choice(SPECIAL_VALUES, size=shape)]
    feats = np.choose(rng.integers(0, len(kinds), size=shape), kinds)
    for i, j, value in draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, dim - 1),
            st.floats(allow_nan=False, allow_infinity=False)), max_size=8)):
        feats[i, j] = value
    return FeatureBatch(feats, rng.integers(1, k + 2, size=rows)), k


def base_lines():
    """Header and six rows of a valid dim=3, K=2 file, without line ends."""
    return ["dim=3,classes=2,rows=6", "0.5,-1.25,3.0,1", "1e-05,2.0,-0.0,2",
            "7.0,8.5,-9.0,3", "0.0,1.0,2.0,1", "-3.5,4.0,5e-324,2",
            "6.0,-7.0,8.0,3"]


def mutated(*edits):
    lines = base_lines()
    for edit in edits:
        lines = edit(lines)
    return lines


def replace(line_no, text):
    return lambda lines: lines[:line_no - 1] + [text] + lines[line_no:]


def insert(line_no, text):
    return lambda lines: lines[:line_no - 1] + [text] + lines[line_no - 1:]


def cell(line_no, col, text):
    def edit(lines):
        cells = lines[line_no - 1].split(",")
        cells[col] = text
        return replace(line_no, ",".join(cells))(lines)
    return edit


def label(line_no, text):
    return cell(line_no, 3, text)


def header_rows(n):
    return replace(1, f"dim=3,classes=2,rows={n}")


def header_classes(k):
    return replace(1, f"dim=3,classes={k},rows=6")


MUTATIONS = {
    "valid": (),
    "bad_cell": (cell(4, 1, "abc"),),
    "empty_cell": (cell(3, 0, ""),),
    "missing_field": (replace(3, "1.0,2.0,1"),),
    "extra_field": (cell(5, 3, "1.0,1"),),
    "label_2.0": (label(4, "2.0"),),
    "label_2.5": (label(4, "2.5"),),
    "label_0": (label(4, "0"),),
    "label_K+2": (label(4, "4"),),
    "nan": (cell(5, 2, "nan"),),
    "inf": (cell(5, 0, "inf"),),
    "-inf": (cell(6, 1, "-inf"),),
    "rows_plus_one": (header_rows(7),),
    "rows_minus_one": (header_rows(5),),
    "nan_then_bad_label": (cell(3, 0, "nan"), label(6, "9")),
    "bad_cell_then_missing_field": (cell(3, 1, "x"), replace(6, "1,1")),
    "nan_then_inf": (cell(3, 2, "nan"), cell(6, 0, "inf")),
    "blank_line_counted": (insert(4, ""), header_rows(7)),
    "blank_line_uncounted": (insert(4, ""),),
    "trailing_blank_line": (lambda lines: lines + [""],),
    "whitespace_line": (insert(3, "   "), header_rows(7)),
}


@contextlib.contextmanager
def split_into(n_ranges):
    """Feature files read and written as up to n_ranges row ranges whatever
    their size: each range but the first in a forked worker."""
    with pytest.MonkeyPatch.context() as mp:
        if n_ranges > 1:
            mp.setattr(featurefile, "PART_BYTES", 1)
            mp.setattr(os, "sched_getaffinity",
                       lambda pid: set(range(n_ranges)))
        yield


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLITS = pytest.mark.parametrize("n_ranges", [2, 3],
                                 ids=["2ranges", "3ranges"])


def check_valid_file(tmp_path_factory, data, n_ranges):
    batch, k = data
    path = tmp_path_factory.mktemp("valid") / "f.csv"
    with split_into(n_ranges):
        write_feature_file(path, batch, k)
        got, k_got = read_feature_file(path)
    want, k_want = ref_read_feature_file(path)
    assert k_got == k_want == k
    assert_bitwise_equal(got, want)
    assert_bitwise_equal(got, batch)


def check_mutated_file(tmp_path, name, ending, final_newline, n_ranges):
    text = ending.join(mutated(*MUTATIONS[name]))
    path = tmp_path / "f.csv"
    path.write_bytes((text + (ending if final_newline else "")).encode())
    with split_into(n_ranges):
        got = outcome(read_feature_file, path)
    want = outcome(ref_read_feature_file, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert name in ("valid", "trailing_blank_line")
        assert got[1] == want[1]
        assert_bitwise_equal(got[0], want[0])


def mutated_files(test):
    """Parametrized over every MUTATIONS entry, final line end or not, and
    lf or crlf line ends."""
    for mark in (pytest.mark.parametrize("name", list(MUTATIONS)),
                 pytest.mark.parametrize(
                     "final_newline", [True, False],
                     ids=["final_newline", "no_final_newline"]),
                 pytest.mark.parametrize("ending", ["\n", "\r\n"],
                                         ids=["lf", "crlf"])):
        test = mark(test)
    return test


class TestFeatureFileOracle:
    """`read_feature_file` against the per-row reader it replaced: the same
    arrays, bit for bit, and the same FormatError message, with the file
    read as one row range and, split, as 2 and 3 (a bad line then falls in
    any of them)."""

    @given(valid_feature_sets())
    @settings(max_examples=40, deadline=None)
    def test_valid_files_match_oracle_bitwise(self, tmp_path_factory, data):
        check_valid_file(tmp_path_factory, data, 1)

    @SPLITS
    @given(valid_feature_sets())
    @settings(max_examples=40, deadline=None)
    def test_split_valid_files_match_oracle_bitwise(self, tmp_path_factory,
                                                    n_ranges, data):
        check_valid_file(tmp_path_factory, data, n_ranges)

    @mutated_files
    def test_mutated_files_match_oracle(self, tmp_path, name, ending,
                                        final_newline):
        check_mutated_file(tmp_path, name, ending, final_newline, 1)

    @SPLITS
    @mutated_files
    def test_split_mutated_files_match_oracle(self, tmp_path, name, ending,
                                              final_newline, n_ranges):
        check_mutated_file(tmp_path, name, ending, final_newline, n_ranges)

    # Where the grammar differs on purpose: cells are parsed by numpy's C
    # parser, which rejects what only Python's float accepts.  (Empty and
    # whitespace-only lines are rejected by both readers, with the same
    # message; see MUTATIONS.)
    @pytest.mark.parametrize("text", ["1_0", "1_000.5", "\u0661",
                                      "\u0661.\u0665"],
                             ids=["underscore", "underscore_decimal",
                                  "arabic_digit", "arabic_decimal"])
    def test_cells_only_python_float_accepts_name_the_line(self, tmp_path,
                                                           text):
        path = tmp_path / "f.csv"
        path.write_text("\n".join(mutated(cell(5, 1, text))) + "\n",
                        encoding="utf-8")
        assert isinstance(outcome(ref_read_feature_file, path), tuple)
        with pytest.raises(FormatError,
                           match=rf"^{path}:5: unparsable row$"):
            read_feature_file(path)

    # The label is read as the config reads an int, where Python's int also
    # reads other scripts' digits and `_`; classes=9 keeps every such label
    # in range for the oracle.
    @pytest.mark.parametrize("n_ranges", [1, 2], ids=["1range", "2ranges"])
    @pytest.mark.parametrize("text,value", [
        ("\u0662", 2), ("\u0e52", 2), ("\uff11", 1), ("0_1", 1), ("1_0", 10)],
        ids=["arabic_digit", "thai_digit", "fullwidth_digit",
             "underscore_after_zero", "underscore"])
    def test_labels_only_python_int_accepts_name_the_line(self, tmp_path,
                                                          text, value,
                                                          n_ranges):
        path = tmp_path / "f.csv"
        path.write_text("\n".join(mutated(header_classes(9),
                                          label(5, text))) + "\n",
                        encoding="utf-8")
        batch, _ = outcome(ref_read_feature_file, path)
        assert batch.labels[3] == value
        with split_into(n_ranges), pytest.raises(
                FormatError, match=rf"^{path}:5: unparsable row$"):
            read_feature_file(path)

    # A label beyond int64 is no label: it names its line, not a number
    # that the file does not hold.
    @pytest.mark.parametrize("n_ranges", [1, 2], ids=["1range", "2ranges"])
    @pytest.mark.parametrize("text", ["9223372036854775808",
                                      "99999999999999999999"],
                             ids=["int64_max_plus_one", "twenty_nines"])
    def test_label_beyond_int64_names_the_line(self, tmp_path, text,
                                               n_ranges):
        path = tmp_path / "f.csv"
        path.write_text("\n".join(mutated(label(5, text))) + "\n")
        with split_into(n_ranges), pytest.raises(
                FormatError, match=rf"^{path}:5: unparsable row$"):
            read_feature_file(path)

    def test_unicode_line_breaks_stay_inside_the_line(self, tmp_path):
        # str.splitlines also breaks at \f, \v, \x1c-\x1e, \x85, \u2028
        # and \u2029, so the per-row reader split such a row in two; lines
        # now end only at \n, \r\n or \r, and loadtxt reads the character
        # as whitespace around the cell
        path = tmp_path / "f.csv"
        path.write_text("\n".join(mutated(cell(5, 1, "1.0\x0c"))) + "\n",
                        encoding="utf-8")
        assert "header promises 6 rows, found 7" in outcome(
            ref_read_feature_file, path)
        batch, _ = read_feature_file(path)
        assert batch.features[3, 1] == 1.0

    def test_valid_file_never_takes_row_locating_pass(self, tmp_path,
                                                      monkeypatch):
        # a fallback to the per-line pass would keep every answer right
        # and only show as benchmark noise; fail it here instead
        def fail(*args):
            raise AssertionError("row-locating pass ran on a valid file")

        monkeypatch.setattr(featurefile, "_raise_bad_row", fail)
        rng = np.random.default_rng(5)
        batch = FeatureBatch(rng.standard_normal((2000, 64)),
                             rng.integers(1, 6, size=2000))
        path = tmp_path / "f.csv"
        write_feature_file(path, batch, 4)
        got, k = read_feature_file(path)
        assert k == 4
        assert_bitwise_equal(got, batch)


class TestRowRanges:
    """Files at or above 2 * PART_BYTES are read and written as row ranges,
    each after the first in a forked worker."""

    def test_ranges_start_at_line_starts(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes("\r\n".join(base_lines()).encode() + b"\r\n")
        with split_into(3), open(path, "rb") as fh:
            ranges = featurefile._row_ranges(fh.fileno())
        data = path.read_bytes()
        assert len(ranges) == 3
        assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start and data[start - 2:start] == b"\r\n"

    def test_carriage_returns_alone_stay_one_range(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes("\r".join(base_lines()).encode() + b"\r")
        with split_into(3):
            with open(path, "rb") as fh:
                assert len(featurefile._row_ranges(fh.fileno())) == 1
            got, k = read_feature_file(path)
        want, _ = ref_read_feature_file(path)
        assert k == 2
        assert_bitwise_equal(got, want)

    def test_written_bytes_do_not_depend_on_the_split(self, tmp_path):
        rng = np.random.default_rng(11)
        batch = FeatureBatch(rng.standard_normal((50, 4)),
                             rng.integers(1, 4, size=50))
        texts = []
        for n_ranges in (1, 2, 3):
            path = tmp_path / f"{n_ranges}.csv"
            with split_into(n_ranges):
                write_feature_file(path, batch, 2)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]
        assert_no_child_left()

    def test_file_under_the_floor_never_forks(self, tmp_path, monkeypatch):
        def fail():
            raise AssertionError("forked for a file under the floor")

        rng = np.random.default_rng(12)
        batch = FeatureBatch(rng.standard_normal((40, 3)),
                             rng.integers(1, 3, size=40))
        path = tmp_path / "f.csv"
        write_feature_file(path, batch, 2)
        # two cores, and the file and its feature array each a byte or
        # more under two parts
        monkeypatch.setattr(featurefile, "PART_BYTES", max(
            path.stat().st_size, batch.features.nbytes) // 2 + 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fail)
        write_feature_file(path, batch, 2)
        got, _ = read_feature_file(path)
        assert_bitwise_equal(got, batch)

    @pytest.mark.parametrize("job", ["_send_parsed", "_send_rows"])
    def test_worker_that_exits_early_raises_ioerror(self, tmp_path,
                                                    monkeypatch, job):
        path = tmp_path / "f.csv"
        path.write_text("\n".join(base_lines()) + "\n")
        batch, _ = read_feature_file(path)
        monkeypatch.setattr(featurefile, job, lambda *args: os._exit(1))
        verb = "read" if job == "_send_parsed" else "write"
        with split_into(2), pytest.raises(
                IoError, match=rf"^cannot {verb} {path}: worker \d+ exited "
                               rf"with status 1"):
            if verb == "read":
                read_feature_file(path)
            else:
                write_feature_file(path, batch, 2)
        assert_no_child_left()

    def test_bad_line_in_a_workers_range_leaves_no_child(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("\n".join(mutated(cell(7, 1, "x"))) + "\n")
        with split_into(2), pytest.raises(
                FormatError, match=rf"^{path}:7: unparsable row$"):
            read_feature_file(path)
        assert_no_child_left()

    @pytest.mark.parametrize("last,n_fields", [("0.25,1,1,1,1", 5),
                                               ("0.25,1,1", 3)],
                             ids=["5fields", "3fields"])
    def test_wrong_field_count_in_a_workers_range(self, tmp_path, last,
                                                  n_fields):
        path = tmp_path / "f.csv"
        path.write_text(f"dim=3,classes=2,rows=2\n0.5,1.0,2.0,1\n{last}\n")
        data = path.read_bytes()
        with split_into(2):
            with open(path, "rb") as fh:
                _, (start, end) = featurefile._row_ranges(fh.fileno())
            assert data[start:end] == f"{last}\n".encode()    # line 3 only
            with pytest.raises(FormatError,
                               match=rf"^{path}:3: expected 4 fields, "
                                     rf"got {n_fields}$"):
                read_feature_file(path)
        assert_no_child_left()


class TestGenData:
    def test_mixture_determinism_byte_identical(self, tmp_path):
        cfg = small_config()
        for name in ("a", "b"):
            harness.cmd_gen_data(cfg, 7, str(tmp_path / name))
        for fname in ("train.csv", "test.csv", "ood.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                (tmp_path / "b" / fname).read_bytes()

    def test_row_counts_and_header(self, tmp_path):
        cfg = small_config()
        harness.cmd_gen_data(cfg, 3, str(tmp_path))
        train, k = read_feature_file(tmp_path / "train.csv")
        assert k == 2
        assert train.features.shape == (200, 2)
        ood, _ = read_feature_file(tmp_path / "ood.csv")
        assert ood.features.shape == (80, 2)
        assert np.all(ood.labels == 3)

    def test_ingest_task_generates_separable_sets(self, tmp_path):
        cfg = ExperimentConfig.parse({"task": "ingest", "classes": 3, "dim": 8,
                                "n_per_class": 30, "separation": 12.0})
        harness.cmd_gen_data(cfg, 1, str(tmp_path))
        train, k = read_feature_file(tmp_path / "train.csv")
        assert k == 3
        assert train.features.shape == (90, 8)
        ood, _ = read_feature_file(tmp_path / "ood.csv")
        assert np.all(ood.labels == 4)

    def test_unknown_task(self, tmp_path):
        with pytest.raises(FormatError, match="^task"):
            harness.cmd_gen_data(ExperimentConfig.parse({"task": "bogus"}), 1,
                                 str(tmp_path))


# the benchmark's ingest_s64 config; at seed 4 its held-out ID accuracy
# reaches 1.0 at epoch 3 of 10, so a model picked by a held-out score
# would be an early epoch's, not the last one's
INGEST_S64 = {"task": "ingest", "classes": 4, "dim": 64, "n_per_class": 200,
              "epochs": 10, "batch_size": 64, "lr": 0.005,
              "grod_enabled": "true", "gamma": 0.1, "scorer": "msp"}


@pytest.fixture(scope="module")
def ingest_steps(tmp_path_factory):
    """(output directory, config, train log rows, parameters after each
    optimizer step) of `train` on the ingest_s64 config at seed 4."""
    out = tmp_path_factory.mktemp("ingest_s64")
    cfg = ExperimentConfig.parse(INGEST_S64)
    harness.cmd_gen_data(cfg, 4, str(out))
    real, snapshots = tfm.adamw_step, []

    def snapshotting(model, grads, state, **kwargs):
        real(model, grads, state, **kwargs)
        snapshots.append({k: v.copy() for k, v in model.params.items()})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tfm, "adamw_step", snapshotting)
        harness.cmd_train(cfg, 4, str(out))
    log = json.loads((out / "train_log.json").read_text())["epochs"]
    return out, cfg, log, snapshots


class TestTrainEval:
    def test_cross_entropy_loss_decreases(self):
        cfg = small_config(grod_enabled="false", gamma=0.0, epochs=6)
        losses = []
        for seed in (79, 169):
            train, _, _, _ = gen_mixture_2d(seed, 100, 50, 80)
            _, _, log = harness.train_model(cfg, seed, train, 2)
            losses.append([e["loss_l1"] for e in log])
        mean = np.mean(losses, axis=0)
        assert mean[-1] < mean[0]

    def test_too_few_fit_rows_names_val_fraction(self):
        # 20 rows: 0.9 leaves 2 rows for the fit split, 0.99 leaves none
        train, _, _, _ = gen_mixture_2d(79, 10, 5, 5)
        harness.train_model(small_config(val_fraction="0.9", epochs=1), 79,
                            train, 2)
        with pytest.raises(FormatError, match=r"^val_fraction=0\.99 leaves "
                                              r"0 of 20 rows"):
            harness.train_model(small_config(val_fraction="0.99", epochs=1),
                                79, train, 2)

    def test_saved_model_is_the_last_epochs(self, ingest_steps):
        out, _, log, snapshots = ingest_steps
        # 720 fit rows in batches of 64: 12 steps per epoch
        assert len(log) == 10 and len(snapshots) == 120
        saved = tfm.load_model(out / "checkpoint.npz").params
        assert saved.keys() == snapshots[-1].keys()
        for name, value in snapshots[-1].items():
            assert saved[name].tobytes() == value.tobytes(), name

    def test_val_quality_is_held_out_id_accuracy(self, ingest_steps):
        out, cfg, log, snapshots = ingest_steps
        train, _, ood, k = harness._load_dataset(str(out))
        n = train.features.shape[0]
        n_val = max(1, round(cfg.val_fraction * n))
        rows = np.random.Generator(np.random.Philox(4 * 7 + 5)).permutation(
            n)[:n_val]
        held_out = FeatureBatch(train.features[rows], train.labels[rows])
        model = tfm.load_model(out / "checkpoint.npz")
        steps = len(snapshots) // len(log)
        for epoch, row in enumerate(log):
            model.params = snapshots[(epoch + 1) * steps - 1]
            summary, _ = harness.evaluate_model(model, train, held_out, ood,
                                                k, scorer="msp")
            assert row["val_quality"] == summary.id_acc, epoch

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = small_config(grod_enabled="false", gamma=0.0)
        harness.cmd_gen_data(cfg, 79, str(tmp_path))
        ckpt = harness.cmd_train(cfg, 79, str(tmp_path))
        model = tfm.load_model(ckpt)
        path2 = tmp_path / "again.npz"
        tfm.save_model(model, path2)
        assert (tmp_path / "checkpoint.npz").read_bytes() == \
            path2.read_bytes()

    def test_vim_eval_memory_is_bounded(self):
        # ViM and MSP on a 20000x64 head-only model: beyond its inputs,
        # eval holds the (n,) predictions and scores and one forward block,
        # nothing that grows with the train rows
        rng = np.random.default_rng(0)
        train, test, ood = (
            FeatureBatch(rng.standard_normal((n, 64)), np.full(n, label))
            for n, label in ((20000, 1), (10000, 2), (5000, 5)))
        budget = tfm.Budget(d_hat=64, h=1, m_h=1, m_V=1, r=1)
        model = tfm.init_model(64, 1, 0, budget, 4, seed=1)
        for scorer in ("vim", "msp"):
            tracemalloc.start()
            try:
                harness.evaluate_model(model, train, test, ood, 4,
                                       scorer=scorer)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # 0.19 (vim) and 0.14 (msp) measured
            assert peak / train.features.nbytes <= 0.5, scorer

    @pytest.mark.parametrize("scorer", ["msp", "energy"])
    def test_blocked_scores_equal_one_shot(self, scorer):
        # 3 full blocks and a 17-row one through a depth-2 trunk
        n = 3 * evaluation.EVAL_BLOCK_ROWS + 17
        rng = np.random.default_rng(12)
        test = FeatureBatch(rng.standard_normal((n, 2)),
                            rng.integers(1, 3, size=n))
        ood = FeatureBatch(3.0 + rng.standard_normal((n, 2)), np.full(n, 3))
        model = tfm.init_model(2, 1, 2, tfm.Budget(2, 2, 1, 1, 4), 2, seed=1)
        summary, threshold = harness.evaluate_model(
            model, None, test, ood, 2, scorer=scorer, temperature=0.7)
        preds, _ = evaluation._score_set(model, test, 2, scorer, None, 0.7)
        want_preds, want_scores = [], []
        for batch in (test, ood):
            _, logits = evaluation._model_outputs(model, batch.features)
            adjusted = post.adjust_logits(logits, 2)
            want_preds.append(np.argmax(adjusted, axis=1) + 1)
            want_scores.append(post.msp_score(adjusted) if scorer == "msp"
                               else post.energy_score(logits[:, :2], 0.7))
        np.testing.assert_array_equal(preds, want_preds[0])
        assert summary.id_acc == harness.id_accuracy(want_preds[0],
                                                     test.labels)
        for batch, want in zip((test, ood), want_scores):
            _, scores = evaluation._score_set(model, batch, 2, scorer, None,
                                              0.7)
            np.testing.assert_array_equal(scores, want)
        assert threshold == pick_threshold(want_scores[0])

    def test_eval_perfectly_separable(self):
        # a head-only model on far-apart clusters scores perfectly
        rng = np.random.default_rng(0)
        train = FeatureBatch(
            np.vstack([rng.standard_normal((50, 2)) * 0.1 + [10, 0],
                       rng.standard_normal((50, 2)) * 0.1 + [0, 10]]),
            np.array([1] * 50 + [2] * 50))
        test = FeatureBatch(train.features[::5].copy(),
                            train.labels[::5].copy())
        ood = FeatureBatch(rng.standard_normal((40, 2)) * 0.1 + [-50, -50],
                           np.full(40, 3))
        budget = tfm.Budget(d_hat=2, h=1, m_h=1, m_V=1, r=1)
        model = tfm.init_model(2, 1, 0, budget, 2, seed=1)
        model.params["head.W3"] = np.array([[1.0, 0.0], [0.0, 1.0],
                                            [0.0, 0.0]])
        model.params["head.W4"] = np.ones((3, 1))
        summary, _ = harness.evaluate_model(model, train, test, ood, 2,
                                            scorer="vim")
        assert summary.auroc == 1.0
        assert summary.fpr_at_95 == 0.0
        assert summary.id_acc == 1.0

    @pytest.mark.parametrize("scorer,forwarded", [
        ("msp", ["test", "ood"]), ("energy", ["test", "ood"]),
        ("vim", ["train", "test", "ood"])])
    def test_train_rows_forwarded_only_for_vim(self, monkeypatch, scorer,
                                               forwarded):
        train, test, ood, _ = gen_mixture_2d(79, 100, 50, 80)
        sets = (("train", train), ("test", test), ("ood", ood))
        real, seen = evaluation._model_outputs, []

        def counting(model, features):
            # a block is a view of its set's rows; ViM's calibration
            # passes over the train rows count as one visit
            name, = (n for n, b in sets
                     if np.shares_memory(features, b.features))
            if not seen or seen[-1] != name:
                seen.append(name)
            return real(model, features)

        monkeypatch.setattr(evaluation, "_model_outputs", counting)
        model = tfm.init_model(2, 1, 1, tfm.Budget(2, 2, 1, 1, 4), 2, seed=1)
        harness.evaluate_model(model, train, test, ood, 2, scorer=scorer)
        assert seen == forwarded

    def test_report_metrics_match_metrics_module(self, tmp_path):
        cfg = small_config(grod_enabled="false", gamma=0.0, scorer="msp")
        harness.cmd_gen_data(cfg, 79, str(tmp_path))
        harness.cmd_train(cfg, 79, str(tmp_path))
        summary = harness.cmd_eval(cfg, 79, str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["metrics"] == dataclasses.asdict(summary)
        assert report["config_hash"] == cfg.hash()
        assert report["seed"] == 79
        assert set(report["per_set"]) == {"id_test", "ood"}

    def test_grod_training_produces_fake_outliers(self):
        cfg = small_config(grod_enabled="true", gamma=0.1, epochs=3)
        train, _, _, _ = gen_mixture_2d(79, 100, 50, 80)
        _, state, log = harness.train_model(cfg, 79, train, 2)
        assert state is not None and state.initialized
        assert sum(e["fake_ood_retained"] for e in log) > 0

    def test_not_pd_fallbacks_counted(self, monkeypatch):
        # every post-warmup training batch meets a non-PD class covariance
        real = training.grod_augment_batch

        def poisoned(f, y, state, cfg, rng):
            if state.initialized:
                state.cov[1] = -np.eye(state.dim)
            return real(f, y, state, cfg, rng)

        monkeypatch.setattr(training, "grod_augment_batch", poisoned)
        cfg = small_config(grod_enabled="true", gamma=0.1, epochs=2)
        train, _, _, _ = gen_mixture_2d(79, 100, 50, 80)
        _, _, log = harness.train_model(cfg, 79, train, 2)
        # 180 fit rows in batches of 32: 6 per epoch, the first 5 warm up
        assert [e["grod_fallbacks"] for e in log] == [
            {"all_filtered": 0, "degenerate_scatter": 0, "not_pd": 1},
            {"all_filtered": 0, "degenerate_scatter": 0, "not_pd": 6}]
        assert all(e["fake_ood_retained"] == 0 for e in log)

    def test_not_pd_at_end_of_warmup_restarts_warmup(self, tmp_path,
                                                     monkeypatch, capsys):
        # every factorization fails, so no warmup pool ever seeds the state
        def not_pd(cov):
            raise NotPositiveDefinite("poisoned")

        monkeypatch.setattr(outliers, "regularized_cholesky", not_pd)
        cfg = small_config(grod_enabled="true", gamma=0.1)
        harness.cmd_gen_data(cfg, 79, str(tmp_path))
        capsys.readouterr()
        harness.cmd_train(cfg, 79, str(tmp_path))
        log = json.loads((tmp_path / "train_log.json").read_text())
        assert log["grod"] == {"enabled": True, "initialized": False}
        # 6 batches per epoch: attempts after batches 5 and 10
        assert [e["grod_fallbacks"]["not_pd"] for e in log["epochs"]] == [1, 1]
        assert capsys.readouterr().err.splitlines() == [
            "warning: outlier generation never initialized "
            "(warmup_batches=5, training batches=12)"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")    # inf logits
    @pytest.mark.parametrize("poisoned_step,message", [
        (3, r"^epoch 0, batch 3: loss not finite$"),
        (6, r"^epoch 0: parameter head\.b4 not finite$")])
    def test_divergence_names_epoch_and_batch(self, monkeypatch,
                                              poisoned_step, message):
        # 180 fit rows in batches of 32: steps 1-6 are epoch 0's batches
        real, steps = tfm.adamw_step, []

        def poisoning(model, grads, state, **kwargs):
            real(model, grads, state, **kwargs)
            steps.append(None)
            if len(steps) == poisoned_step:
                model.params["head.b4"][0] = np.inf

        monkeypatch.setattr(tfm, "adamw_step", poisoning)
        cfg = small_config(grod_enabled="false", gamma=0.0)
        train, _, _, _ = gen_mixture_2d(79, 100, 50, 80)
        with pytest.raises(training.TrainingDiverged, match=message):
            harness.train_model(cfg, 79, train, 2)

    def test_write_json_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            harness._write_json(tmp_path / "x.json", {"loss": math.nan})
        assert not (tmp_path / "x.json").exists()

    def test_warmup_never_finishing_is_reported(self, tmp_path):
        cfg = small_config(grod_enabled="true", gamma=0.1,
                           warmup_batches=100)
        harness.cmd_gen_data(cfg, 79, str(tmp_path))
        harness.cmd_train(cfg, 79, str(tmp_path))
        log = json.loads((tmp_path / "train_log.json").read_text())
        assert log["grod"] == {"enabled": True, "initialized": False}
        assert all(e["fake_ood_retained"] == 0 for e in log["epochs"])

    def test_warmup_never_finishing_warns(self, tmp_path, capsys):
        cfg = small_config(grod_enabled="true", gamma=0.1,
                           warmup_batches=100)
        harness.cmd_gen_data(cfg, 79, str(tmp_path))
        capsys.readouterr()
        harness.cmd_train(cfg, 79, str(tmp_path))
        # 180 fit rows in batches of 32 give 6 batches in each of 2 epochs
        assert capsys.readouterr().err.splitlines() == [
            "warning: outlier generation never initialized "
            "(warmup_batches=100, training batches=12)"]

    def test_no_warning_once_warmup_finishes(self, tmp_path, capsys):
        cfg = small_config(grod_enabled="true", gamma=0.1)
        harness.cmd_gen_data(cfg, 79, str(tmp_path))
        harness.cmd_train(cfg, 79, str(tmp_path))
        assert capsys.readouterr().err == ""

    def test_energy_scores_first_k_raw_logits(self):
        # the per-row loop that the one batched call replaced
        rng = np.random.default_rng(13)
        k = 3
        raw = 4.0 * rng.standard_normal((80, k + 1))
        adjusted = post.adjust_logits(raw, k)
        got = evaluation._scores("energy", adjusted, raw, None, None, 0.7)
        want = [0.7 * (v.max() + np.log(np.sum(np.exp(v - v.max()))))
                for v in raw[:, :k] / 0.7]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_grod_state_round_trip_keeps_warmup_pool(self):
        cfg = small_config(grod_enabled="true", gamma=0.1,
                           warmup_batches=100)
        train, _, _, _ = gen_mixture_2d(79, 100, 50, 80)
        _, state, _ = harness.train_model(cfg, 79, train, 2)
        # 180 fit rows in batches of 32 give 6 batches in each of 2 epochs
        assert not state.initialized and state.batch_index == 12
        pool_f, pool_y = np.vstack(state.pool_f), np.concatenate(state.pool_y)
        assert pool_f.shape == (360, 2) and np.isfinite(pool_f).all()
        # each epoch pools the same 180 fit rows
        np.testing.assert_array_equal(np.sort(pool_y[:180]),
                                      np.sort(pool_y[180:]))


class TestSweep:
    def test_row_count_and_fields(self, tmp_path):
        cfg = ExperimentConfig.parse({"n_train_per_class": 60,
                                "n_test_per_class": 30, "n_ood": 40,
                                "epochs": 1, "batch_size": 32, "lr": 0.01,
                                "grod_enabled": "false", "gamma": 0.0,
                                "sweep_depths": "1,2", "sweep_seeds": "1,2"})
        rows = harness.cmd_sweep_capacity(cfg, 0, str(tmp_path))
        narrow = [r for r in rows if r["config"] == "narrow"]
        wide = [r for r in rows if r["config"] == "wide"]
        assert len(narrow) == 2 * 2
        assert len(wide) == 2
        for r in rows:
            assert {"train_id_acc", "test_id_acc", "ood_acc",
                    "mean_msp"} <= set(r)
            assert {"class1", "class2", "ood"} == set(r["mean_msp"])
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert len(payload["rows"]) == len(rows)

    def test_task_ingest_sweeps_the_same_models(self, tmp_path):
        # the sweep trains full models on the 2-d mixture whatever the task;
        # only the config hash, which reads the task, differs
        values = {"n_train_per_class": 40, "n_test_per_class": 20,
                  "n_ood": 20, "epochs": 1, "batch_size": 32,
                  "sweep_depths": "1,2", "sweep_seeds": "1,2"}
        texts = []
        for task in ("mixture2d", "ingest"):
            cfg = ExperimentConfig.parse({**values, "task": task})
            harness.cmd_sweep_capacity(cfg, 0, str(tmp_path / task))
            text = (tmp_path / task / "sweep.json").read_text()
            texts.append(text.replace(cfg.hash(), "<hash>"))
        assert texts[0] == texts[1]

    def test_depth_zero_trains_the_head_on_the_inputs(self, tmp_path,
                                                      monkeypatch):
        real, models = harness.train_model, []

        def recording(config, seed, train, k):
            model, state, log = real(config, seed, train, k)
            models.append(model)
            return model, state, log

        monkeypatch.setattr(harness, "train_model", recording)
        cfg = small_config(n_train_per_class=40, n_test_per_class=20,
                           n_ood=20, epochs=1, sweep_depths="0,1",
                           sweep_seeds="1")
        rows = harness.cmd_sweep_capacity(cfg, 0, str(tmp_path))
        assert [r["depth"] for r in rows] == [m.depth for m in models] == [
            0, 1, 2]
        assert list(models[0].params) == ["head.W3", "head.b3", "head.W4",
                                          "head.b4"]
        assert models[0].budget == tfm.Budget(2, 1, 1, 1, 1)
        assert all(list(m.params)[:2] == ["input.W", "input.b"]
                   for m in models[1:])

    def test_bad_depth_fails_before_training(self):
        # a negative sweep depth fails when the config loads, naming its
        # key, so no sweep run can start
        with pytest.raises(FormatError, match="^sweep_depths must be >= 0$"):
            small_config(sweep_depths="1,-1", sweep_seeds="1")


class TestCli:
    def test_end_to_end_subcommands(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n_train_per_class=100\nn_test_per_class=50\n"
                            "n_ood=80\nepochs=2\nbatch_size=32\nlr=0.01\n"
                            "grod_enabled=false\ngamma=0.0\nscorer=msp\n")
        out = str(tmp_path / "out")
        for command in ("gen-data", "train", "eval"):
            rc = cli.main([command, "--config", str(cfg_path),
                           "--seed", "79", "--out", out])
            assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 79

    def test_eval_with_explicit_checkpoint(self, tmp_path):
        cfg = small_config(grod_enabled="false", gamma=0.0)
        harness.cmd_gen_data(cfg, 79, str(tmp_path))
        ckpt = harness.cmd_train(cfg, 79, str(tmp_path))
        summary = harness.cmd_eval(cfg, 79, str(tmp_path), checkpoint=ckpt)
        assert 0.0 <= summary.auroc <= 1.0

    def test_failure_single_line_stderr(self, tmp_path, capsys):
        rc = cli.main(["eval", "--seed", "0",
                       "--out", str(tmp_path / "missing")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")

    def run_train(self, tmp_path, capsys, seed, lines):
        """(exit code, error lines) of gen-data then train on a small
        2-d mixture with the given config lines."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{x}\n" for x in [
            "n_train_per_class=100", "n_test_per_class=50", "n_ood=80",
            "batch_size=32", "epochs=3"] + lines))
        args = ["--config", str(cfg), "--seed", str(seed),
                "--out", str(tmp_path)]
        assert cli.main(["gen-data"] + args) == 0
        capsys.readouterr()
        rc = cli.main(["train"] + args)
        return rc, [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("error: ")]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")    # overflow
    def test_diverged_run_fails_without_checkpoint(self, tmp_path, capsys):
        rc, errors = self.run_train(tmp_path, capsys, 79, [
            "optimizer=sgd", "lr=10", "grod_enabled=false"])
        assert rc == 1 and errors == [
            "error: TrainingDiverged: epoch 1, batch 2: hidden features "
            "not finite"]
        assert not (tmp_path / "checkpoint.npz").exists()
        assert not (tmp_path / "train_log.json").exists()

    def test_diverged_run_prints_one_stderr_line(self, tmp_path):
        # in a child process: in this one pytest filters numpy's warnings
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_train_per_class=100\nn_test_per_class=50\n"
                       "n_ood=80\nbatch_size=32\nepochs=3\noptimizer=sgd\n"
                       "lr=10\ngrod_enabled=false\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        runs = [subprocess.run(
            [sys.executable, "-m", "oodkit.cli", command, "--config",
             str(cfg), "--seed", "79", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True) for command in ("gen-data", "train")]
        assert [r.returncode for r in runs] == [0, 1]
        assert runs[1].stderr == ("error: TrainingDiverged: epoch 1, batch 2: "
                                  "hidden features not finite\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")    # overflow
    def test_huge_warmup_pool_does_not_stop_training(self, tmp_path, capsys):
        # lr=100 grows the warmup pool until the covariance ridge rounds
        # away; the failed initialization is a not_pd fallback
        rc, errors = self.run_train(tmp_path, capsys, 1, ["lr=100"])
        assert rc == 0 and errors == []

        def reject(token):
            raise ValueError(f"non-finite {token} in train_log.json")

        log = json.loads((tmp_path / "train_log.json").read_text(),
                         parse_constant=reject)
        assert log["epochs"][0]["grod_fallbacks"]["not_pd"] >= 1
        assert log["grod"] == {"enabled": True, "initialized": True}

    def test_bad_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("unknown_key=1\n")
        rc = cli.main(["gen-data", "--config", str(cfg_path),
                       "--seed", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert "error: FormatError" in capsys.readouterr().err

    def test_unknown_key_shows_invisible_characters(self, tmp_path, capsys):
        # a UTF-8 byte order mark stays part of the first key
        cfg_path = tmp_path / "bom.cfg"
        cfg_path.write_bytes("\ufefftask=ingest\n".encode())
        rc = cli.main(["gen-data", "--config", str(cfg_path),
                       "--seed", "0", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: FormatError: unknown config key: '\\ufefftask'"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "lr=abc", "warmup_batches=abc", "gamma=1.5", "grod_enabled=ture"])
    def test_bad_value_fails_at_load_naming_key(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(line + "\n")
        rc = cli.main(["gen-data", "--config", str(cfg_path),
                       "--seed", "0", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: FormatError: {line.split('=')[0]}")
        assert not (tmp_path / "out").exists()

    def test_bad_scorer_fails_before_training(self, tmp_path, capsys):
        harness.cmd_gen_data(small_config(), 79, str(tmp_path))
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("scorer=foo\n")
        rc = cli.main(["ingest", "--config", str(cfg_path),
                       "--seed", "79", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: FormatError: scorer")
        assert not (tmp_path / "checkpoint.npz").exists()

    @pytest.mark.parametrize("values,commands", [
        ({"task": "mixture2d", "n_train_per_class": 150,
          "n_test_per_class": 50, "n_ood": 100, "epochs": 3,
          "batch_size": 64, "lr": 0.005, "grod_enabled": "true",
          "gamma": 0.1, "scorer": "vim"}, ("train", "eval")),
        (dict(INGEST_S64, n_per_class=50, epochs=3), ("ingest",))])
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path, values,
                                                   commands):
        # the benchmark's mixture2d_grod and ingest_s64 jobs at their tiny
        # sizes, with one BLAS thread and with the library's default; the
        # processes run one after another, never two at once
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")
        default = {k: v for k, v in os.environ.items() if k not in threads}
        default["PYTHONPATH"] = src
        outputs = []
        for env in ({**default, **dict.fromkeys(threads, "1")}, default):
            out = tmp_path / f"run{len(outputs)}"
            for command in ("gen-data", *commands):
                subprocess.run([sys.executable, "-m", "oodkit.cli", command,
                                "--config", str(cfg), "--seed", "5",
                                "--out", str(out)],
                               env=env, capture_output=True, check=True)
            outputs.append({name: (out / name).read_bytes() for name in
                            ("checkpoint.npz", "train_log.json",
                             "report.json")})
        assert outputs[0] == outputs[1]

    def test_cli_import_does_not_load_scipy_stats(self):
        # numpy is the only runtime dependency: no scipy module, whose
        # import costs time and memory in every process
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        out = subprocess.run(
            [sys.executable, "-c", "import oodkit.cli, sys; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_split_files_run_clean_in_dev_mode(self, tmp_path):
        # train.csv is over two PART_BYTES parts, so it is written and read
        # through forked workers; under -X dev -W error a pipe left open
        # (ResourceWarning) or a fork warning fails the command on stderr
        cfg = tmp_path / "run.cfg"
        cfg.write_text("task=ingest\nclasses=4\ndim=64\nn_per_class=1000\n"
                       "epochs=1\nscorer=msp\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        for command in ("gen-data", "train", "eval"):
            run = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m",
                 "oodkit.cli", command, "--config", str(cfg), "--seed", "3",
                 "--out", str(tmp_path)],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                text=True)
            assert (command, run.returncode, run.stderr) == (command, 0, "")
        assert (tmp_path / "train.csv").stat().st_size >= \
            2 * featurefile.PART_BYTES
        assert (tmp_path / "report.json").exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--seed", "-1",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: FormatError: --seed")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,message", [
        (["--seed", "abc", "--out", "{out}"],
         "FormatError: --seed: expected int, got 'abc'"),
        (["--seed", "1_0", "--out", "{out}"],
         "FormatError: --seed: expected int, got '1_0'"),
        (["--seed", "\u0663", "--out", "{out}"],
         "FormatError: --seed: expected int, got '\u0663'"),
        (["--bogus", "--out", "{out}"],
         "ArgumentError: unrecognized arguments: --bogus"),
        (["--seed", "1"],
         "ArgumentError: the following arguments are required: --out")],
        ids=["seed_word", "seed_underscore", "seed_arabic_digit",
             "unknown_flag", "missing_out"])
    def test_usage_errors_are_one_line(self, tmp_path, capsys, args,
                                       message):
        # argparse would print its usage and exit 2; a seed that the
        # config's `seed` rejects is rejected by --seed too
        out = tmp_path / "out"
        rc = cli.main(["gen-data", *(a.format(out=out) for a in args)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_seed_from_config_when_flag_absent(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("seed=11\nn_train_per_class=20\n"
                            "n_test_per_class=10\nn_ood=10\n")
        out = str(tmp_path / "out")
        rc = cli.main(["gen-data", "--config", str(cfg_path), "--out", out])
        assert rc == 0
        a = (tmp_path / "out" / "train.csv").read_bytes()
        harness.cmd_gen_data(ExperimentConfig.parse({"n_train_per_class": 20,
                                               "n_test_per_class": 10,
                                               "n_ood": 10}),
                             11, str(tmp_path / "direct"))
        assert a == (tmp_path / "direct" / "train.csv").read_bytes()


class TestEvalCheckpoint:
    """`eval --checkpoint` fails with one error line, before any forward
    pass and without writing a report."""

    def eval_error(self, tmp_path, capsys, checkpoint):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n_train_per_class=20\nn_test_per_class=10\n"
                            "n_ood=10\nscorer=msp\n")
        out = str(tmp_path / "out")
        assert cli.main(["gen-data", "--config", str(cfg_path),
                         "--seed", "3", "--out", out]) == 0
        rc = cli.main(["eval", "--config", str(cfg_path), "--seed", "3",
                       "--out", out, "--checkpoint", str(checkpoint)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert not (tmp_path / "out" / "report.json").exists()
        return err[0]

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.npz"
        err = self.eval_error(tmp_path, capsys, path)
        assert err.startswith(f"error: IoError: cannot read checkpoint {path}")

    def test_junk_file(self, tmp_path, capsys):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a checkpoint\n")
        err = self.eval_error(tmp_path, capsys, path)
        assert err == f"error: FormatError: {path}: not an oodkit checkpoint"

    @pytest.mark.parametrize("d_hat0,tau,k,name,want,got", [
        (8, 1, 4, "d_hat0", 2, 8), (2, 1, 4, "n_classes", 3, 5),
        (2, 2, 2, "d_hat0*tau", 2, 4)])
    def test_shape_mismatch(self, tmp_path, capsys, d_hat0, tau, k, name,
                            want, got):
        # e.g. a head-only s=8 ingest checkpoint on the 2-d mixture, or a
        # tau=2 one, which reads d_hat0 * tau = 4 features per row
        path = tmp_path / "other.npz"
        budget = tfm.Budget(d_hat=d_hat0, h=1, m_h=1, m_V=1, r=1)
        tfm.save_model(tfm.init_model(d_hat0, tau, 0, budget, k, 0), path)
        err = self.eval_error(tmp_path, capsys, path)
        assert err == (f"error: FormatError: {path}: {name} expected {want} "
                       f"from the feature files, found {got}")

    @pytest.mark.parametrize("name,value,fault", [
        ("head.W3", None, "missing"),
        ("head.W5", np.zeros(3), "unexpected"),
        ("head.W3", np.zeros((3, 3)), "shape (3, 3), expected (3, 2)"),
        ("head.W3", np.zeros((3, 2), np.float32),
         "dtype float32, expected float64"),
        ("head.W3", np.array([[0.1, 0.0], [np.nan, 0.2], [0.0, 0.3]]),
         "not finite")])
    def test_parameters_checked(self, tmp_path, capsys, name, value, fault):
        # checked against init_model's parameters for the checkpoint's meta
        path = tmp_path / "edited.npz"
        budget = tfm.Budget(d_hat=2, h=1, m_h=1, m_V=1, r=1)
        model = tfm.init_model(2, 1, 0, budget, 2, 0)
        if value is None:
            del model.params[name]
        else:
            model.params[name] = value
        tfm.save_model(model, path)
        err = self.eval_error(tmp_path, capsys, path)
        assert err == f"error: FormatError: {path}: parameter {name} {fault}"

    @pytest.mark.parametrize("key,value", [
        ("d_hat0", 2.0), ("depth", 1.5), ("n_classes", 3.0), ("depth", -1),
        ("tau", True), ("budget", [2, 1, 1.0, 1, 1])])
    def test_meta_sizes_must_be_ints(self, tmp_path, capsys, key, value):
        # a hand-edited meta: each of these used to load, and some to pass
        # eval or fail in the first forward pass
        path = self.edited_head_only(tmp_path, {key: value}, {})
        err = self.eval_error(tmp_path, capsys, path)
        assert err == f"error: FormatError: {path}: not an oodkit checkpoint"

    @staticmethod
    def edited_head_only(tmp_path, meta_values, params):
        """A 2-d, K=2 head-only checkpoint with `meta_values` in its meta
        and the arrays `params` (name -> array) among its parameters."""
        path = tmp_path / "edited.npz"
        budget = tfm.Budget(d_hat=2, h=1, m_h=1, m_V=1, r=1)
        tfm.save_model(tfm.init_model(2, 1, 0, budget, 2, 0), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta.update(meta_values)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        arrays.update({f"param::{k}": v for k, v in params.items()})
        np.savez(path, **arrays)
        return path

    def test_head_only_checkpoint_has_no_input_map(self, tmp_path, capsys):
        # a head-only model reads its inputs, even through an identity map
        path = self.edited_head_only(
            tmp_path, {}, {"input.W": np.eye(2), "input.b": np.zeros(2)})
        err = self.eval_error(tmp_path, capsys, path)
        assert err == (f"error: FormatError: {path}: parameter input.W "
                       f"unexpected")

    def test_depth_zero_width_is_the_input_width(self, tmp_path, capsys,
                                                 monkeypatch):
        # d_hat = 3 on 2-wide inputs would need an input map
        def no_forward(*args):
            raise AssertionError("forward pass before the checkpoint check")

        monkeypatch.setattr(tfm, "forward_trunk", no_forward)
        w = np.random.default_rng(0).uniform(-0.1, 0.1, size=(6, 3))
        path = self.edited_head_only(
            tmp_path, {"budget": [3, 1, 1, 1, 1]},
            {"input.W": w[:3, :2], "input.b": np.zeros(3),
             "head.W3": w[3:]})
        err = self.eval_error(tmp_path, capsys, path)
        assert err == f"error: FormatError: {path}: not an oodkit checkpoint"


    @pytest.mark.parametrize("kind", ["fifo", "dev_null", "directory"])
    def test_non_regular_checkpoint_fails_at_once(self, tmp_path, kind):
        # np.load's open of a FIFO with no writer blocks, and one with a
        # writer cannot seek in the zip
        path = tmp_path / "checkpoint.npz"
        harness.cmd_gen_data(small_config(), 3, str(tmp_path))
        assert eval_on_non_regular(tmp_path, path, kind, "--checkpoint",
                                   str(path)) == (
            f"error: IoError: cannot read checkpoint {path}: "
            f"not a regular file\n")


def forbid_training(monkeypatch):
    def no_training(*args):
        raise AssertionError("trained before the output check")

    monkeypatch.setattr(harness, "train_model", no_training)


class TestWriteFailures:
    """A target that cannot be written fails with one line, IoError:
    cannot write <path>: <reason>; one that exists and is not a regular
    file fails so before any input is read or any training runs."""

    def cli_error(self, capsys, command, out, *options):
        assert cli.main([command, "--seed", "3", "--out", str(out),
                         *options]) == 1
        return capsys.readouterr().err.splitlines()

    def gen_data(self, tmp_path, lines):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("".join(f"{line}\n" for line in lines))
        assert cli.main(["gen-data", "--config", str(cfg_path), "--seed",
                         "3", "--out", str(tmp_path)]) == 0
        return cfg_path

    def test_checkpoint_is_a_directory(self, tmp_path, capsys, monkeypatch):
        cfg_path = self.gen_data(tmp_path, [
            "n_train_per_class=20", "n_test_per_class=10", "n_ood=10",
            "epochs=1", "grod_enabled=false"])
        path = tmp_path / "checkpoint.npz"
        path.mkdir()
        forbid_training(monkeypatch)
        assert self.cli_error(capsys, "train", tmp_path, "--config",
                              str(cfg_path)) == [
            f"error: IoError: cannot write {path}: not a regular file"]

    @pytest.mark.parametrize("command,name,lines", [
        ("train", "train_log.json", []),
        ("ingest", "report.json", ["task=ingest", "classes=2", "dim=4",
                                   "n_per_class=20", "scorer=msp"])])
    def test_fifo_output_fails_at_once(self, tmp_path, command, name, lines):
        # in a child process with a timeout: a write that opens the FIFO
        # blocks until a reader comes, which fails the test
        cfg_path = self.gen_data(tmp_path, [
            "n_train_per_class=20", "n_test_per_class=10", "n_ood=10",
            "epochs=1", "grod_enabled=false", *lines])
        path = tmp_path / name
        os.mkfifo(path)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        run = subprocess.run(
            [sys.executable, "-m", "oodkit.cli", command, "--config",
             str(cfg_path), "--seed", "3", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=30)
        assert (run.returncode, run.stderr) == (
            1, f"error: IoError: cannot write {path}: not a regular file\n")
        assert not (tmp_path / "checkpoint.npz").exists()

    def test_sweep_json_is_a_directory(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "sweep.json"
        path.mkdir()
        forbid_training(monkeypatch)
        assert self.cli_error(capsys, "sweep-capacity", tmp_path) == [
            f"error: IoError: cannot write {path}: not a regular file"]

    @pytest.mark.parametrize("command", ["gen-data", "sweep-capacity"])
    def test_out_is_a_file(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_text("")
        assert self.cli_error(capsys, command, out) == [
            f"error: IoError: cannot write {out}: [Errno 17] File exists: "
            f"'{out}'"]


class TestDatasetChecks:
    """The three feature files must agree, train.csv and test.csv must hold
    ID labels only and ood.csv the OOD label only, and ViM needs enough
    train rows: each fails with one FormatError line before any training or
    forward pass."""

    def cli_error(self, tmp_path, capsys, command, lines, edit=None):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("".join(f"{line}\n" for line in lines))
        out = tmp_path / "out"
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        assert cli.main(["gen-data", *args]) == 0
        if edit:
            edit(out)
        capsys.readouterr()
        assert cli.main([command, *args]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: FormatError: ")
        assert not (out / "report.json").exists()
        if command != "eval":    # failed before training
            assert not (out / "checkpoint.npz").exists()
        return err[0], out

    @pytest.mark.parametrize("name,dim,k", [("test", 3, 2), ("ood", 2, 3)])
    def test_feature_files_must_agree(self, tmp_path, capsys, name, dim, k):
        def edit(out):
            rng = np.random.default_rng(0)
            batch = FeatureBatch(rng.standard_normal((20, dim)),
                                 np.full(20, 3))
            write_feature_file(out / f"{name}.csv", batch, k)

        err, out = self.cli_error(
            tmp_path, capsys, "eval",
            ["n_train_per_class=20", "n_test_per_class=10", "n_ood=10",
             "scorer=msp"], edit)
        assert err == (f"error: FormatError: {out / name}.csv:1: expected "
                       f"dim=2,classes=2 as in train.csv, found "
                       f"dim={dim},classes={k}")

    @pytest.mark.parametrize("name,command,label", [
        ("train", "train", "training set"), ("test", "eval", "ID test set")])
    def test_train_labels_are_id_only(self, tmp_path, capsys, name, command,
                                      label):
        def edit(out):
            batch, k = read_feature_file(out / f"{name}.csv")
            batch.labels[5] = k + 1
            write_feature_file(out / f"{name}.csv", batch, k)

        err, out = self.cli_error(
            tmp_path, capsys, command,
            ["n_train_per_class=20", "n_test_per_class=10", "n_ood=10"], edit)
        assert err == (f"error: FormatError: {out / name}.csv:7: OOD label "
                       f"3 in the {label}")

    def test_ood_labels_are_ood_only(self, tmp_path, capsys):
        def edit(out):
            batch, k = read_feature_file(out / "ood.csv")
            batch.labels[5] = 1
            write_feature_file(out / "ood.csv", batch, k)

        err, out = self.cli_error(
            tmp_path, capsys, "eval",
            ["n_train_per_class=20", "n_test_per_class=10", "n_ood=10"], edit)
        assert err == (f"error: FormatError: {out / 'ood.csv'}:7: ID label 1 "
                       f"in the OOD set")

    @pytest.mark.parametrize("command", ["ingest", "eval"])
    def test_vim_rows_checked_before_training(self, tmp_path, capsys,
                                              command):
        # 40 train rows at s=64: ViM's subspace needs d'+1 = 64
        def edit(out):
            budget = tfm.Budget(d_hat=64, h=1, m_h=1, m_V=1, r=1)
            tfm.save_model(tfm.init_model(64, 1, 0, budget, 4, 0),
                           out / "checkpoint.npz")

        err, out = self.cli_error(
            tmp_path, capsys, command,
            ["task=ingest", "classes=4", "dim=64", "n_per_class=10",
             "epochs=50", "scorer=vim"],
            edit if command == "eval" else None)
        assert err == (f"error: FormatError: {out / 'train.csv'}: scorer=vim "
                       f"needs 64 rows at width 64, found 40")


    @pytest.mark.parametrize("command", ["ingest", "eval"])
    def test_vim_width_checked_before_training(self, tmp_path, capsys,
                                               command):
        # at width 1, d' = 1 leaves ViM no residual space
        def edit(out):
            rng = np.random.default_rng(0)
            for name, labels in (("train", np.repeat([1, 2], 50)),
                                 ("test", np.repeat([1, 2], 10)),
                                 ("ood", np.full(10, 3))):
                feats = rng.standard_normal((len(labels), 1)) + labels[:, None]
                write_feature_file(out / f"{name}.csv",
                                   FeatureBatch(feats, labels), 2)
            if command == "eval":
                budget = tfm.Budget(d_hat=1, h=1, m_h=1, m_V=1, r=1)
                tfm.save_model(tfm.init_model(1, 1, 0, budget, 2, 0),
                               out / "checkpoint.npz")

        err, out = self.cli_error(
            tmp_path, capsys, command,
            ["task=ingest", "classes=2", "dim=2", "n_per_class=10",
             "scorer=vim"], edit)
        assert err == (f"error: FormatError: {out / 'train.csv'}: scorer=vim "
                       f"needs width >= 2, found 1")

    def test_non_utf8_feature_file(self, tmp_path, capsys):
        def edit(out):
            path = out / "train.csv"
            lines = path.read_bytes().split(b"\n")
            lines[3] = b"\xff" + lines[3][lines[3].index(b","):]
            path.write_bytes(b"\n".join(lines))

        err, out = self.cli_error(
            tmp_path, capsys, "eval",
            ["n_train_per_class=20", "n_test_per_class=10", "n_ood=10",
             "scorer=msp"], edit)
        assert err == (f"error: FormatError: {out / 'train.csv'}: not UTF-8 "
                       f"text")


def oodkit_exception_names():
    """Names of the exception classes that oodkit's own modules define."""
    modules = [m for name, m in sys.modules.items()
               if name.startswith("oodkit.")]
    return {obj.__name__ for m in modules for obj in vars(m).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and obj.__module__.startswith("oodkit.")}


@st.composite
def hostile_ingest_sets(draw):
    """(train features, train labels, k, config lines): tiny ingest sets
    with duplicated rows, a constant column, dim above the batch size or a
    class with a single sample."""
    k = draw(st.integers(2, 3))
    counts = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    labels = np.repeat(np.arange(1, k + 1), counts)
    feats = rng.standard_normal((len(labels), dim)) + 3.0 * labels[:, None]
    hostile = draw(st.sets(st.sampled_from(["dup", "const", "all_dup"])))
    if "dup" in hostile:
        feats[1::2] = feats[0::2][:len(feats[1::2])]
    if "const" in hostile:
        feats[:, 0] = 2.5
    if "all_dup" in hostile:
        feats[:] = feats[0]
    batch_size = draw(st.integers(2, 16))
    lines = ["task=ingest", f"batch_size={batch_size}",
             f"epochs={draw(st.integers(1, 2))}", "lr=0.01",
             f"warmup_batches={draw(st.integers(0, 2))}",
             f"scorer={draw(st.sampled_from(['msp', 'energy', 'vim']))}"]
    return feats, labels, k, lines


class TestHostileFeatureFiles:
    @given(hostile_ingest_sets())
    @example((np.arange(36.0).reshape(3, 12) % 7, np.array([1, 1, 2]), 2,
              ["task=ingest", "batch_size=2", "epochs=1", "scorer=vim"]))
    @settings(max_examples=30, deadline=None)
    def test_ingest_finishes_or_fails_with_one_oodkit_error(
            self, tmp_path_factory, dataset):
        feats, labels, k, lines = dataset
        out = tmp_path_factory.mktemp("hostile")
        write_feature_file(out / "train.csv", FeatureBatch(feats, labels), k)
        write_feature_file(out / "test.csv", FeatureBatch(feats, labels), k)
        ood = FeatureBatch(feats[:3] - 40.0, np.full(min(3, len(feats)),
                                                     k + 1))
        write_feature_file(out / "ood.csv", ood, k)
        (out / "run.cfg").write_text("".join(f"{x}\n" for x in lines))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(["ingest", "--config", str(out / "run.cfg"),
                           "--seed", "1", "--out", str(out)])
        errors = [line for line in stderr.getvalue().splitlines()
                  if line.startswith("error: ")]
        if rc == 0:
            log = json.loads((out / "train_log.json").read_text())
            assert errors == []
            assert all(math.isfinite(e["loss_l1"])
                       and math.isfinite(e["loss_l2"]) for e in log["epochs"])
        else:
            assert rc == 1 and len(errors) == 1
            kind = errors[0].split(":")[1].strip()
            assert kind in oodkit_exception_names(), errors[0]


class TestIngestCommand:
    def test_smoke_and_report(self, tmp_path):
        cfg = ExperimentConfig.parse({"task": "ingest", "classes": 3, "dim": 8,
                                "n_per_class": 40, "separation": 12.0,
                                "epochs": 3, "batch_size": 32, "lr": 0.005,
                                "scorer": "msp"})
        out = str(tmp_path)
        harness.cmd_gen_data(cfg, 1, out)
        summary = harness.cmd_ingest(cfg, 1, out)
        assert 0.0 <= summary.auroc <= 1.0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["metrics"]["auroc"] == summary.auroc

    def test_feature_files_read_once(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.parse({"task": "ingest", "classes": 3,
                                      "dim": 8, "n_per_class": 40,
                                      "epochs": 1, "scorer": "vim"})
        harness.cmd_gen_data(cfg, 1, str(tmp_path))
        real, seen = harness.read_feature_file, []

        def counting(path):
            seen.append(os.path.basename(path))
            return real(path)

        monkeypatch.setattr(harness, "read_feature_file", counting)
        harness.cmd_ingest(cfg, 1, str(tmp_path))
        assert seen == ["train.csv", "test.csv", "ood.csv"]

    def test_identity_input_trains_exactly_the_head(self, monkeypatch):
        # the head-only model is its head, and each step, by either
        # optimizer, takes a gradient of every entry of model.flat
        steps = []
        for name in ("adamw_step", "sgd_step"):
            def spying(model, grad, *args, real=getattr(tfm, name), **kwargs):
                steps.append((real.__name__, grad.size, model.flat.size))
                real(model, grad, *args, **kwargs)

            monkeypatch.setattr(tfm, name, spying)
        rng = np.random.default_rng(5)
        train = FeatureBatch(rng.standard_normal((60, 4)),
                             np.repeat([1, 2], 30))
        for optimizer in ("adamw", "sgd"):
            cfg = small_config(task="ingest", grod_enabled="false", epochs=1,
                               optimizer=optimizer)
            model, _, _ = harness.train_model(cfg, 5, train, 2)
            assert model.depth == 0
            assert model.budget == tfm.Budget(4, 1, 1, 1, 1)
            assert list(model.params) == ["head.W3", "head.b3", "head.W4",
                                          "head.b4"]
            assert all(v.base is model.flat for v in model.params.values())
            n = model.flat.size
            assert set(steps) == {(f"{optimizer}_step", n, n)}
            steps.clear()

    def test_shape_keys_leave_the_checkpoint_unchanged(self, tmp_path):
        # the head-only model takes its shape from the features alone
        values = {"task": "ingest", "classes": 3, "dim": 8,
                  "n_per_class": 40, "epochs": 2, "batch_size": 32,
                  "lr": 0.01, "warmup_batches": 1, "scorer": "vim"}
        checkpoints = []
        for shape in ({}, {"depth": 2, "d_hat": 7, "heads": 3}):
            cfg = ExperimentConfig.parse({**values, **shape})
            out = tmp_path / str(len(checkpoints))
            harness.cmd_gen_data(cfg, 1, str(out))
            harness.cmd_ingest(cfg, 1, str(out))
            checkpoints.append((out / "checkpoint.npz").read_bytes())
        assert checkpoints[0] == checkpoints[1]
