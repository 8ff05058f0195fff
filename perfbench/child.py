"""Child-process entry points of the oodkit benchmark.

    python3 perfbench/child.py env
        Print, as one JSON object, the interpreter and library versions, the
        CPU, and the BLAS thread count actually in effect in this process.
    python3 perfbench/child.py trace OUT.json -- <oodkit command and flags>
        Run one oodkit command with every traced function wrapped (see
        tracer.py), write spans and counters to OUT.json, and exit with the
        command's exit code.

Both expect ``oodkit`` to be importable (run.py puts ``src`` on PYTHONPATH).
"""

import ctypes
import json
import os
import platform
import sys
import time

from tracer import Tracer


def _blas_libraries():
    """Paths of the OpenBLAS builds mapped into this process."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    return sorted(p for p in paths if p.startswith("/"))


def _blas_threads(path):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own BLAS)
    blas = {os.path.basename(p): _blas_threads(p) for p in _blas_libraries()}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": max((n for n in blas.values() if n is not None),
                            default=None),
        "blas_libraries": blas,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def trace(out_path, argv):
    tracer = Tracer().install()
    from oodkit import cli
    start = time.perf_counter()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        payload = tracer.to_dict()
        payload["wall_s"] = time.perf_counter() - start
        with open(out_path, "w") as fh:
            json.dump(payload, fh)
    return code


def main(argv):
    if argv[:1] == ["env"]:
        print(json.dumps(environment()))
        return 0
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return trace(argv[1], argv[3:])
    print("usage: child.py env | child.py trace OUT.json -- <oodkit args>",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
