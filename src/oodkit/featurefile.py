"""The feature-file format: a `dim=..,classes=..,rows=..` header, then one
row of cells and a label per line.  Files are parsed and written as row
ranges, one per usable core and PART_BYTES part, each range after the first
in a forked worker; the arrays, the bytes and the error messages do not
depend on the split.  Only a regular file is read: it is read by position."""

import contextlib
import functools
import io
import math
import os
import shutil
import stat
import warnings

import numpy as np

from . import synthdata


class FormatError(Exception):
    pass


class IoError(Exception):
    pass



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


def _label(text):
    """A label as the config reads an int: ASCII without `_`, a sign and
    surrounding spaces allowed; `int` alone also reads other scripts'
    digits and `_`."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


def _parse_rows(lines, dim):
    """One record per feature row: `x` its dim float64 cells by numpy's C
    float parser, `y` its int64 label by `_label` (so `2.0` is rejected); a
    row without dim+1 fields fails.  Both passes of `read_feature_file`
    parse with this one call, so they accept one grammar.  Empty lines are
    skipped here; the callers reject them."""
    with warnings.catch_warnings():    # no data lines: the row count fails
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                          dtype=[("x", float, (dim,)), ("y", np.int64)],
                          converters={dim: _label})


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
    count and row count as three int64 words, then the records' bytes."""
    try:
        with _open_range(fd, start, end) as fh:
            table, n_lines = _parse_lines(fh, dim)
    except UnicodeDecodeError:    # the whole-file pass names it
        table, n_lines = None, 0
    if table is None:
        pipe.write(np.array([1, n_lines, 0], np.int64).tobytes())
        return
    pipe.write(np.array([0, n_lines, len(table)], np.int64).tobytes())
    pipe.write(table.data)


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
                    status, n, n_rows = np.array(
                        [_recv(path, pid, pipe, np.zeros(3, np.int64))
                         for pid, pipe in workers], np.int64).reshape(-1, 3).T
                    n_lines += int(n.sum())
                    ok = table is not None and not status.any()
                    if ok and workers:    # sized from the parsed row counts
                        ends = len(table) + np.cumsum(n_rows)
                        joined = np.empty(ends[-1], table.dtype)
                        joined[:len(table)] = table
                        for (pid, pipe), a, b in zip(workers, ends - n_rows,
                                                     ends):
                            _recv(path, pid, pipe, joined[a:b])
                        table = joined
            if (not ok or n_lines != rows or len(table) != rows
                    or not np.all((table["y"] >= 1) & (table["y"] <= k + 1))
                    or not np.isfinite(table["x"]).all()):
                _raise_bad_row(path, fd, dim, k, rows)
        finally:
            os.close(fd)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    # contiguous rows: every later matmul sees one memory layout
    return synthdata.FeatureBatch(np.ascontiguousarray(table["x"]),
                                  np.ascontiguousarray(table["y"])), k


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
            if not 1 <= row["y"][0] <= k + 1:
                raise FormatError(f"{path}:{i}: label {row['y'][0]} out of "
                                  f"range 1..{k + 1}")
            if non_finite is None and not np.isfinite(row["x"]).all():
                non_finite = i
    if non_finite is not None:
        raise FormatError(f"{path}:{non_finite}: non-finite value")
    raise FormatError(f"{path}: rejected, but no line is at fault; "
                      f"did the file change while it was read?")
