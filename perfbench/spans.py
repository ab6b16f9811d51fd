"""Spans around the public functions of ``lieiso``, recorded from outside.

``Tracer.install`` wraps every public module-level function of the traced
modules and rebinds the wrapper under every name that held the original, in
every ``lieiso`` module: ``from .curvature import levi_civita`` binds the
function in ``isometry``, ``symmetry`` and ``reports`` too, and each of those
bindings must be wrapped or its calls go unseen.  The program's source is not
touched.

A span is ``(function, start, end, parent span, op)``.  Spans stay in memory
while the workload runs and are written out when it ends.  A span's self time
is its duration minus the durations of its child spans, which run one after
another inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

import numpy as np

TRACED_MODULES = ("algebra", "linalg", "metrics", "curvature", "isometry", "symmetry", "reports", "groups", "cli")


def _svd_rows(args, kwargs) -> tuple[int, bool]:
    """Rows of the matrix handed to ``rank_and_kernel`` and whether its SVD runs.

    Mirrors the function's own early exit: at scale zero it returns without
    decomposing.
    """
    m = np.atleast_2d(np.asarray(args[0], dtype=float))
    scale = args[2] if len(args) > 2 else kwargs.get("scale")
    if scale is None:
        scale = float(np.max(np.abs(m))) if m.size else 0.0
    return m.shape[0], scale > 0.0


class BindingError(RuntimeError):
    """A traced function was reached through a binding that is not wrapped."""


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.op = -1
        self.spans: list = []
        self.notes: dict[int, tuple[int, bool]] = {}  # span slot -> rank_and_kernel shape data
        self.names: list[str] = []
        self.originals: dict = {}  # original function -> its wrapper
        self._stack: list[int] = []
        self._wrapper_code = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"lieiso.{short}")
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    self.originals[obj] = self._wrap(obj, f"{short}.{name}")
        for mod in self._lieiso_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.originals:
                    setattr(mod, name, self.originals[obj])

    def _wrap(self, fn, qualname: str):
        idx = len(self.names)
        self.names.append(qualname)
        note = _svd_rows if qualname == "linalg.rank_and_kernel" else None
        spans, stack, notes, tracer = self.spans, self._stack, self.notes, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            if note is not None:
                notes[slot] = note(args, kwargs)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[slot] = (idx, t0, t1, parent, tracer.op)

        self._wrapper_code = traced.__code__
        return traced

    @staticmethod
    def _lieiso_modules():
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "lieiso" or name.startswith("lieiso."))]

    # -- binding checks -----------------------------------------------------

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still hold an original traced function."""
        return [f"{mod.__name__}.{name}"
                for mod in self._lieiso_modules()
                for name, obj in list(vars(mod).items())
                if inspect.isfunction(obj) and obj in self.originals]

    def watch_calls(self, run) -> list[str]:
        """Run ``run()`` and list traced functions entered other than through
        their wrapper (so through a binding the scan above cannot see)."""
        codes = {fn.__code__: f"{fn.__module__}.{fn.__name__}" for fn in self.originals}
        wrapper_code = self._wrapper_code
        missed: list[str] = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                caller = frame.f_back
                if caller is None or caller.f_code is not wrapper_code:
                    missed.append(codes[frame.f_code])

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        return missed

    def self_test(self, run) -> dict[str, int]:
        """Fail unless every traced call goes through a wrapper, and unless
        both checks catch a planted unwrapped binding."""
        bad = self.unwrapped_bindings() + self.watch_calls(run)
        if bad:
            raise BindingError(f"traced functions reached without a wrapper: {sorted(set(bad))}")
        # every workload reaches skew_algebra, which calls rank_and_kernel
        # through the binding in lieiso.metrics
        metrics = importlib.import_module("lieiso.metrics")
        wrapper = metrics.rank_and_kernel
        original = next(fn for fn, w in self.originals.items() if w is wrapper)
        metrics.rank_and_kernel = original
        try:
            planted_static = self.unwrapped_bindings()
            planted_dynamic = self.watch_calls(run)
        finally:
            metrics.rank_and_kernel = wrapper
        if "lieiso.metrics.rank_and_kernel" not in planted_static or not planted_dynamic:
            raise BindingError("the binding checks missed a planted unwrapped binding")
        return {"wrapped_functions": len(self.originals), "bindings_checked": self.binding_count()}

    def binding_count(self) -> int:
        wrappers = set(map(id, self.originals.values()))
        return sum(1 for mod in self._lieiso_modules() for obj in vars(mod).values() if id(obj) in wrappers)

    # -- aggregation --------------------------------------------------------

    def aggregate(self, op_count: int) -> dict[str, float]:
        """Per-layer figures over all spans, normalised by ``op_count``.

        For every traced function: ``<name>.calls_per_op``, ``.self_ms_per_op``
        and ``.total_ms_per_op`` (the total counts only a function's outermost
        span); for ``rank_and_kernel`` also the largest matrix it was given
        (``.max_rows``) and the bytes of the full ``U`` factor its SVDs build.
        """
        spans = self.spans
        n_fn = len(self.names)
        calls = [0] * n_fn
        total = [0.0] * n_fn
        self_t = [0.0] * n_fn
        child = [0.0] * len(spans)
        for idx, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for slot, (idx, t0, t1, parent, _) in enumerate(spans):
            dur = t1 - t0
            calls[idx] += 1
            self_t[idx] += dur - child[slot]
            p = parent
            while p >= 0 and spans[p][0] != idx:
                p = spans[p][3]
            if p < 0:
                total[idx] += dur
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls_per_op"] = calls[idx] / op_count
            out[f"{name}.self_ms_per_op"] = 1000.0 * self_t[idx] / op_count
            out[f"{name}.total_ms_per_op"] = 1000.0 * total[idx] / op_count
        shapes = list(self.notes.values())
        out["linalg.rank_and_kernel.max_rows"] = max((rows for rows, _ in shapes), default=0)
        out["linalg.svd_u_bytes_per_op"] = sum(8 * rows * rows for rows, ran in shapes if ran) / op_count
        return out

    def nonempty_singer_share(self) -> float:
        """Share of ``singer_isotropy`` calls whose Ricci-prefiltered search
        space was not empty: only those call ``rank_and_kernel`` directly, to
        solve the constraint system."""
        singer = self.names.index("isometry.singer_isotropy")
        rank = self.names.index("linalg.rank_and_kernel")
        spans = self.spans
        calls = sum(1 for s in spans if s[0] == singer)
        solved = sum(1 for s in spans if s[0] == rank and s[3] >= 0 and spans[s[3]][0] == singer)
        return solved / calls if calls else 0.0

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([self.names[idx], t0, t1, parent, op]) + "\n")

