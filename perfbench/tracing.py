"""Span tracing of gssd's layers from outside the package.

``Tracer.installed()`` replaces the hooked public functions with timing
wrappers for the duration of a ``with`` block and puts the originals back on
exit.  Nothing under ``src/`` changes.  A hook whose target no longer exists
is reported as missing and skipped, so the benchmark keeps running as the API
drifts.

Each span records its name, start, end, parent span and op id (one op is one
execution of a workload's job).  Spans are kept in memory; ``write_csv``
writes them out when the benchmark ends.  The wrappers keep one span stack per
thread, but the benchmark traces jobs run with ``workers=1`` only, so that a
child span's interval lies inside its parent's and self times add up.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _n_normals(args, kwargs):
    return {"rng.normals_words": int(kwargs.get("n", args[1] if len(args) > 1 else 0))}


def _project_bytes(args, kwargs):
    n, d = np.shape(getattr(args[0], "data", args[0]))
    return {"slicing.project_bytes": 8 * n * d}


def _kernel_evals(args, kwargs):
    n, m = np.size(args[0]), np.size(args[1])
    return {"divergences.mmd_kernel_evals": n * n + 2 * n * m + m * m}


def _csv_bytes(args, kwargs):
    return {"experiments.read_csv_bytes": os.path.getsize(args[0])}


def _sinkhorn_diagnostics(args, kwargs, result):
    """Solver diagnostics that ``power_value`` drops; read from the returned result."""
    n, m = np.size(args[0]), np.size(args[1])
    iters = int(getattr(result, "iterations", 0))
    return {
        "divergences.sinkhorn_iterations": iters,
        "divergences.sinkhorn_unconverged": 0 if getattr(result, "converged", True) else 1,
        "divergences.sinkhorn_marginal_err_max": float(getattr(result, "marginal_error", 0.0)),
        # each iteration updates both potentials of one of the three problems
        # (x-y, x-x, y-y); the average cells per problem is exact when n == m
        "divergences.sinkhorn_cell_updates": iters * 2 * (n * m + n * n + m * m) // 3,
    }


# (module, attribute, span name, counts from the arguments, counts from the result)
HOOKS = [
    ("gssd.rng", "RngStream.__init__", "rng.stream", None, None),
    ("gssd.rng", "RngStream.normals", "rng.normals", _n_normals, None),
    ("gssd.estimator", "sample_direction", "slicing.direction", None, None),
    ("gssd.estimator", "project", "slicing.project", _project_bytes, None),
    ("gssd.estimator", "smooth_double", "slicing.smooth", None, None),
    ("gssd.estimator", "power_value", "divergences.power_value", None, None),
    ("gssd.estimator", "smoothed_wasserstein_oracle", "divergences.oracle", None, None),
    ("gssd.estimator", "estimate", "estimator.estimate", None, None),
    ("gssd.estimator", "sweep_sigma", "estimator.sweep", None, None),
    ("gssd.divergences", "wasserstein_pp", "divergences.wasserstein", None, None),
    ("gssd.divergences", "mmd_sq", "divergences.mmd", _kernel_evals, None),
    ("gssd.divergences", "bandwidth_mean_pairwise", "divergences.bandwidth", None, None),
    ("gssd.divergences", "sinkhorn_div", "divergences.sinkhorn", None, _sinkhorn_diagnostics),
    ("gssd.experiments", "read_matrix_csv", "experiments.read_csv", _csv_bytes, None),
    ("gssd.experiments", "compare", "experiments.compare", None, None),
]

ROOT = "bench.job"  # the span around one whole job; its self time is the benchmark's own

SPAN = np.dtype([("span", "i8"), ("parent", "i8"), ("op", "i8"), ("name", "i8"), ("start", "i8"), ("end", "i8")])


class Tracer:
    """Collects spans and counters for the ops run inside ``installed()``.

    Call ``end_op`` after each op: it packs that op's spans into a compact
    array, so a job of 10^5 spans costs about 5 MB of memory.  Span ids come
    from one counter and spans are appended to one list, both safe under the
    interpreter lock; the counters assume one thread runs the traced job.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ops: dict[int, np.ndarray] = {}  # op -> its spans, ordered by span id
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: dict[str, str] = {}  # hook target that is gone -> its span name
        self.op = 0
        self._codes: dict[str, int] = {}
        self._open: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        code = self._code(name)
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._open.append((sid, parent, self.op, code, start, end))

    def end_op(self) -> None:
        spans = np.array(self._open, dtype=SPAN)
        spans.sort(order="span")
        self.ops[self.op] = spans
        self._open = []
        self.op += 1

    def _add(self, counts: dict) -> None:
        bucket = self.counts[self.op]
        for key, value in counts.items():
            if key.endswith("_max"):
                bucket[key] = max(bucket[key], value)
            else:
                bucket[key] += value

    def _wrap(self, fn, name, arg_counts, result_counts):
        tracer = self
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            counts = {calls: 1}
            if arg_counts is not None:
                counts.update(arg_counts(args, kwargs))
            if result_counts is not None:
                counts.update(result_counts(args, kwargs, result))
            tracer._add(counts)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook target that exists; restore the originals on exit."""
        patched = []  # (owner, attribute, original)
        wrappers = {}  # id of an original -> its wrapper, so each is wrapped once
        self.missing = {}
        try:
            for module_name, attr, name, arg_counts, result_counts in HOOKS:
                module = sys.modules.get(module_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, leaf, None) if owner is not None else None
                if original is None:
                    self.missing[f"{module_name}.{attr}"] = name
                    continue
                wrapper = wrappers.setdefault(id(original), self._wrap(original, name, arg_counts, result_counts))
                if owner_name:
                    patched.append((owner, leaf, original))
                    setattr(owner, leaf, wrapper)
                    continue
                # a function is looked up by name in every gssd module that imported it
                for key, mod in list(sys.modules.items()):
                    if key != "gssd" and not key.startswith("gssd."):
                        continue
                    for attr_name, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr_name, original))
                            setattr(mod, attr_name, wrapper)
            yield self
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)

    def times(self, op: int) -> tuple[dict[str, float], dict[str, float]]:
        """(total, self) seconds per span name for one op.

        Self time is a span's duration minus the durations of its children.
        """
        spans = self.ops[op]
        dur = (spans["end"] - spans["start"]).astype(np.float64) * 1e-9
        child = np.zeros(spans.size)
        has_parent = spans["parent"] >= 0
        np.add.at(child, np.searchsorted(spans["span"], spans["parent"][has_parent]), dur[has_parent])
        k = len(self.names)
        total = np.bincount(spans["name"], weights=dur, minlength=k)
        own = np.bincount(spans["name"], weights=dur - child, minlength=k)
        return dict(zip(self.names, total.tolist())), dict(zip(self.names, own.tolist()))

    def write_csv(self, path: str, op: int) -> None:
        """Write the spans of one op, one per line, names spelled out."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for sid, parent, op_id, code, start, end in self.ops[op].tolist():
                fh.write(f"{sid},{parent},{op_id},{self.names[code]},{start},{end}\n")
