"""Span tracer for the oodkit benchmark.

Wraps each traced oodkit function at every place it is looked up: its own
module, and every other oodkit module that imported it by name (for example
``oodkit.harness.grod_augment_batch`` or the ``mahalanobis_sq`` that
``oodkit.outliers`` imports from ``oodkit.numerics``).  Each wrapper pushes a
span on a stack, so a function's self time is its span minus the spans of the
traced functions it called.

A traced name that the program no longer defines is not an error: it reports
0 calls and is listed in ``missing``, so that a refactor which deletes a
function leaves the benchmark running.
"""

import functools
import importlib
import sys
import time

# module -> public functions whose calls, total time and self time are
# recorded.  Names are reported as "<module>.<function>".
TRACED = {
    "outliers": ("grod_augment_batch", "update_centers",
                 "id_reference_distances", "initialize_state",
                 "build_ood_centers", "sample_fake_ood", "filter_fake_ood",
                 "soft_labels"),
    "numerics": ("mahalanobis_sq", "regularized_inverse", "sample_covariance"),
    "projections": ("pca_fit", "lda_fit", "mine_boundary"),
    "transformer": ("forward_trunk", "head_forward", "head_backward",
                    "trunk_backward", "adamw_step", "save_model",
                    "load_model"),
    "loss": ("batch_loss_and_grad",),
    "harness": ("train_model", "evaluate_model", "read_feature_file",
                "write_feature_file"),
    "postprocess": ("adjust_logits", "vim_calibrate", "vim_score",
                    "energy_score", "score_report"),
    "metrics": ("auroc", "aupr", "fpr_at_tpr"),
}

TRACED_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items()
                     for fn in fns)

COUNTERS = ("outliers.warmup_calls", "outliers.candidates",
            "outliers.survivors", "outliers.all_filtered",
            "projections.lda_fit.degenerate", "harness.read_feature_file.rows")


# Counter hooks see the call's positional arguments and either its result or
# the exception it raised.  Exceptions are matched by class name so that the
# tracer does not depend on where the program defines them.

def _count_augment(counters, args, result, exc):
    if exc is None and result[2]["warmup"]:
        counters["outliers.warmup_calls"] += 1


def _count_filter(counters, args, result, exc):
    if exc is None:
        counters["outliers.candidates"] += len(args[0])
        counters["outliers.survivors"] += len(result)
    elif type(exc).__name__ == "AllFiltered":
        counters["outliers.candidates"] += len(args[0])
        counters["outliers.all_filtered"] += 1


def _count_lda(counters, args, result, exc):
    if type(exc).__name__ == "DegenerateScatter":
        counters["projections.lda_fit.degenerate"] += 1


def _count_read(counters, args, result, exc):
    if exc is None:
        counters["harness.read_feature_file.rows"] += len(result[0].labels)


HOOKS = {
    "outliers.grod_augment_batch": _count_augment,
    "outliers.filter_fake_ood": _count_filter,
    "projections.lda_fit": _count_lda,
    "harness.read_feature_file": _count_read,
}


class Tracer:
    """Per-function [calls, total seconds, self seconds] plus counters."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED_NAMES}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        self.hook_errors = []
        self._stack = []   # time spent in traced children of each open span

    def install(self, package="oodkit"):
        """Wrap every traced function of ``package``; returns self."""
        for module_name, functions in TRACED.items():
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ModuleNotFoundError:
                module = None
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                self._rebind(package, original, self._wrap(name, original))
        return self

    @staticmethod
    def _rebind(package, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if hook is not None:
                    self._run_hook(name, hook, args, result, error)

        return wrapper

    def _run_hook(self, name, hook, args, result, error):
        # A hook that no longer fits the function's signature must not
        # break the traced program; the failure is reported instead.
        try:
            hook(self.counters, args, result, error)
        except (AttributeError, IndexError, KeyError, TypeError):
            if name not in self.hook_errors:
                self.hook_errors.append(name)

    def to_dict(self):
        return {"stats": self.stats, "counters": self.counters,
                "missing": self.missing, "hook_errors": self.hook_errors}
