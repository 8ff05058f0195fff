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
