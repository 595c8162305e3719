"""In-process spans around the public functions of each `magnet` layer.

:class:`Tracer` replaces the layer functions in every loaded ``magnet``
module with wrappers that record a span (run id, span id, parent id, name,
start, end, work units) and restores the originals on exit.  Spans are kept
in memory and written out by the caller.  Nothing under ``src/`` changes.

Scalar per-draw helpers (``_rng.mix64``, ``word_at``, ``uniform_at``) are
not wrapped: at one call per rejection draw a span would cost more than the
call, so their time stays in the caller's self time.  ``model`` is not
wrapped either; its calls take microseconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

import numpy as np

#: Layer modules and the functions wrapped in each, beyond the module's
#: ``__all__`` functions.  Span names are ``<layer>.<function>``.
_EXTRA = {
    "cli": ("main",),
    "_rng": ("uniforms_at", "words_at", "mix64_array"),
}
LAYERS = ("cli", "_rng", "sampler", "degree_dist", "limits", "bounds", "stats", "experiments")
_TABLE_METHODS = ("from_model", "log_pmf", "pmf", "cdf", "quantile", "prob_zero")


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


#: Work units recorded per call, computed from the arguments.
_WORK = {
    "rng.uniforms_at": lambda a, k: _size(_arg(a, k, 1, "indices")),
    "rng.words_at": lambda a, k: _size(_arg(a, k, 1, "indices")),
    "rng.mix64_array": lambda a, k: _size(_arg(a, k, 0, "x")),
    "sampler.sample_graph": lambda a, k: (lambda n: n * (n - 1) // 2)(_arg(a, k, 1, "n")),
    "sampler.sample_degrees_direct": lambda a, k: _arg(a, k, 3, "count"),
    "sampler.sample_degrees_fullgraph":
        lambda a, k: _arg(a, k, 3, "count") * (_arg(a, k, 1, "n") - 1),
    "sampler.write_degrees_csv": lambda a, k: _arg(a, k, 0, "samples").count,
    "sampler.write_edge_list": lambda a, k: _arg(a, k, 0, "graph").edge_count,
    "degree_dist.log_pmf": lambda a, k: _size(_arg(a, k, 1, "d")),
    "degree_dist.pmf": lambda a, k: _size(_arg(a, k, 1, "d")),
    "degree_dist.cdf": lambda a, k: _size(_arg(a, k, 1, "d")),
    "limits.cdf_approx": lambda a, k: _size(_arg(a, k, 0, "t")),
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (run, id, parent, name, start, end, work)
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A worker thread: its spans hang under the span open in the
            # thread that installed the tracer.
            stack = self._local.stack = self._main_stack[-1:]
        return stack

    def _wrap(self, name: str, fn):
        work = _WORK.get(name)
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                units = work(args, kwargs) if work else 1
                if name == "experiments.run_experiment":
                    name_ = f"{name}.{_arg(args, kwargs, 0, 'config').kind.value}"
                else:
                    name_ = name
                spans.append((self.run_id, sid, parent, name_, t0, t1, units))

        return traced

    def __enter__(self) -> "Tracer":
        from magnet.degree_dist import DegreePmfTable

        self._local.stack = self._main_stack
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"magnet.{layer}")
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n))] + list(_EXTRA.get(layer, ()))
            for n in names:
                fn = getattr(mod, n)
                originals[fn] = self._wrap(f"{layer.lstrip('_')}.{n}", fn)
        # Replace every reference, including names other modules imported.
        for modname, mod in list(sys.modules.items()):
            if modname == "magnet" or modname.startswith("magnet."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in originals:
                        self._saved.append((mod, attr, val))
                        setattr(mod, attr, originals[val])
        for m in _TABLE_METHODS:
            raw = DegreePmfTable.__dict__[m]
            self._saved.append((DegreePmfTable, m, raw))
            if isinstance(raw, classmethod):
                setattr(DegreePmfTable, m, classmethod(self._wrap(f"degree_dist.{m}", raw.__func__)))
            else:
                setattr(DegreePmfTable, m, self._wrap(f"degree_dist.{m}", raw))
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, val in reversed(self._saved):
            setattr(obj, attr, val)
        self._saved.clear()


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, parent, _, t0, t1, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for _, sid, _, _, t0, t1, _ in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0) - covered
    return out


def span_cost(n: int = 20000) -> float:
    """Seconds one span adds to a call, from timing a wrapped no-op."""
    tracer = Tracer()
    noop = tracer._wrap("bench.noop", lambda: None)
    plain = lambda: None  # noqa: E731
    tracer._local.stack = tracer._main_stack
    t0 = time.perf_counter()
    for _ in range(n):
        plain()
    t1 = time.perf_counter()
    for _ in range(n):
        noop()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)
