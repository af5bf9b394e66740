"""Span tracer for the traced benchmark run.

It wraps every public function in each tlbt layer module's ``__all__``
and patches every module attribute in the package that binds one: the
package re-imports names, so ``tlbt.gramians.expm``, ``tlbt.bounds.
spectrum_separation`` and the names ``tlbt.cli`` imports are separate
bindings of the same function. ``InputSignal.evaluate`` and its class
alias ``__call__`` (which ``simulate`` calls) are wrapped as one span
name. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("linalg", "gramians", "balancing", "bounds", "simulation", "systems", "mmio", "cli")

# spans of these names record whether their first (square) argument has
# the full model order n rather than a reduced order r
FULL_ORDER = frozenset({"linalg.expm", "linalg.solve_lyapunov", "linalg.spectrum_separation"})
# spans of these record the file size after the call
BYTES = frozenset({"mmio.read_matrix", "mmio.write_matrix"})
# spans of this record the integrator steps taken, and whether the
# model simulated is the full one
SIMULATE = "simulation.simulate"
EVALUATE = "systems.InputSignal.evaluate"


@dataclass
class Span:
    name: str
    thread: int
    start: float
    parent: "Span | None"
    job: object
    end: float = 0.0
    full: bool = False
    # bytes for mmio spans, integrator steps for simulate spans
    size: int = 0


@dataclass
class Tracer:
    """Records a span per call of a wrapped function.

    ``full_order`` is the state dimension n of the model under reduction.
    ``job`` labels the spans recorded next (a pass number or "setup").
    """

    full_order: int
    job: object = None
    spans: list = field(default_factory=list)

    def __post_init__(self):
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list = []
        self._patched: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's outermost span belongs to whatever the
            # main thread is running (the sweep's cli.main)
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, threading.get_ident(), 0.0, parent, self.job)
        if name in FULL_ORDER:
            span.full = np.shape(args[0])[:1] == (self.full_order,)
        elif name == SIMULATE:
            span.full = getattr(args[0], "n", None) == self.full_order
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if name in BYTES:
            span.size = os.path.getsize(args[0])
        elif name == SIMULATE:
            span.size = len(result.times) - 1
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Patch every binding of every public layer function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import tlbt.cli  # noqa: F401  (the package does not import its CLI)
        from tlbt.systems import InputSignal

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"tlbt.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrapper(f"{layer}.{attr}", fn))
        mods = [m for name, m in sys.modules.items() if name == "tlbt" or name.startswith("tlbt.")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)][1])
        evaluate = InputSignal.__dict__["evaluate"]
        traced = self._wrapper(EVALUATE, evaluate)
        for attr in ("evaluate", "__call__"):
            self._patched.append((InputSignal, attr, InputSignal.__dict__[attr]))
            setattr(InputSignal, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part its child spans cover.

    Children on other threads (the sweep's workers) may overlap, so the
    covered part is the union of the children's intervals.
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = []
    for span in spans:
        kids = children.get(id(span), ())
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.end - span.start - _covered([c for c in clipped if c[1] > c[0]]))
    return out


def job_summary(spans, selfs, job) -> dict:
    """Per span name: calls, full-order calls, total and self seconds,
    and recorded bytes, over the spans of one job."""
    out: dict = {}
    for span, self_s in zip(spans, selfs):
        if span.job != job:
            continue
        rec = out.setdefault(span.name, {"calls": 0, "full_calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "bytes": 0})
        rec["calls"] += 1
        rec["full_calls"] += span.full
        rec["total_s"] += span.end - span.start
        rec["self_s"] += self_s
        rec["bytes"] += span.size
    return out


def worker_busy_frac(spans, job, jobs: int) -> float:
    """Time the sweep's worker threads spend inside tlbt spans, over
    jobs x the wall time of the sweep's cli.main span."""
    mains = [s for s in spans if s.job == job and s.name == "cli.main"]
    if not mains:
        return 0.0
    main = mains[0]
    wall = main.end - main.start
    by_thread: dict = {}
    for span in spans:
        if span.job == job and span.thread != main.thread:
            by_thread.setdefault(span.thread, []).append((span.start, span.end))
    busy = sum(_covered(iv) for iv in by_thread.values())
    return busy / (jobs * wall) if wall > 0 else 0.0


def write_spans(spans, path) -> None:
    """One CSV row per span: name, thread, start, end, parent, job."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,name,thread,start,end,parent,job\n")
        for idx, s in enumerate(spans):
            parent = "" if s.parent is None else index[id(s.parent)]
            fh.write(f"{idx},{s.name},{s.thread},{s.start:.9f},{s.end:.9f},{parent},{s.job}\n")
