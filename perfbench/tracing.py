"""Outside-in span tracing of charspec's public entry points.

The tracer replaces functions at the names their callers resolve (a module
attribute or a class method) with wrappers that record one span per call:
name, start, end, parent span and job id.  Spans stay in memory until the
benchmark writes them out.  Nothing inside the package is edited; every
patch is undone by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (span name, owner, attribute).  Owners are resolved at install time;
# each entry is the binding the caller actually looks up, so the span sees
# every call from that caller.
PATCH_POINTS = (
    ("cli.run_job", "charspec.cli", "run_job"),
    ("cli.emit_report", "charspec.cli", "emit_report"),
    ("cli.parse_config", "charspec.cli", "parse_config"),
    ("cli.certify", "charspec.cli", "kernel_vectors"),
    ("cli.certify", "charspec.cli", "eigenfunction"),
    ("cli.certify", "charspec.cli", "eigen_residual"),
    ("cli.certify", "charspec.cli", "char_matrix"),
    ("rootscan.find_zeros", "charspec.cli", "find_zeros"),
    ("rootscan.winding_count", "charspec.rootscan", "winding_count"),
    ("rootscan.newton_refine", "charspec.rootscan", "newton_refine"),
    ("charfn.value", "charspec.charfn:CharFunction", "value"),
    ("charfn.values", "charspec.charfn:CharFunction", "values"),
    ("catalog.functional_on_basis", "charspec.charfn", "functional_on_basis"),
    ("catalog.apply_functional", "charspec.charfn", "apply_functional"),
    ("catalog.apply_functional", "charspec.oracle", "apply_functional"),
    ("oracle.dense_eigenvalues", "charspec.cli", "dense_eigenvalues"),
    ("oracle.fd_discretize", "charspec.cli", "fd_discretize"),
    ("oracle.eigensolve", "scipy.linalg", "eigvals"),
    ("linop.lu_decompose", "charspec.linop", "lu_decompose"),
    ("linop.solve", "charspec.linop", "solve"),
)

# spans whose second positional argument is the lambda (or array of them)
_POINT_SPANS = {"charfn.value", "charfn.values"}


def _resolve(path):
    """A module, or a class given as ``module:Class``."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Collects spans and per-name counters while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.raised = {}
        self.points = {}
        self.job = None
        self._stack = []
        self._patches = []

    def install(self):
        for name, owner_path, attr in PATCH_POINTS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_points = name in _POINT_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_points:
                self.points[name] = self.points.get(name, 0) + int(np.size(args[1]))
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[name] = self.raised.get(name, 0) + 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
        return out
