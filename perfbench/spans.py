"""Spans around the public functions of qngm's modules, patched from outside.

``Tracer.installed()`` replaces every public function of each traced module
with a wrapper that records a span, wherever the function is looked up:
its own module's globals (so internal calls such as ``states.evaluate`` ->
``states.gate_unitary`` are caught) and every module that bound it with
``from .x import name`` (``qfim.hermitian_eig``, ``optimizer.solve_sym``,
...).  It also counts calls to ``numpy.linalg.eigh`` and ``eigvalsh``.
Everything is restored on exit.

Spans live in memory for one op.  A span's parent is the innermost open
span of the same thread; a span opened by a worker thread with no open span
of its own gets the innermost open span of the thread that opened the
tracer (the CLI's sweep pool runs inside ``cli.run_experiment``).  Self time
is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("states", "qfim", "petz", "linalg", "optimizer", "divergence", "classical", "cli")


class Tracer:
    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.owner = threading.get_ident()
        self.owner_stack = []
        self.local = threading.local()
        self.lock = threading.Lock()  # counters are bumped from the sweep's threads
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent span or None]
        self.eig_calls = 0
        self.csv_bytes = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def _stack(self):
        if threading.get_ident() == self.owner:
            return self.owner_stack
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer.owner_stack
                parent = owner[-1] if owner else None
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        if name == "cli.write_csv":
            traced = self._count_bytes(traced)
        elif name == "cli.run_experiment":
            traced = self._count_cpu(traced)
        return traced

    def _count_bytes(self, fn):
        def write_csv(path, trajectory):
            fn(path, trajectory)
            size = os.path.getsize(path)
            with self.lock:
                self.csv_bytes += size

        return write_csv

    def _count_cpu(self, fn):
        def run_experiment(config):
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                return fn(config)
            finally:
                cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
                with self.lock:
                    self.cpu_s += cpu
                    self.wall_s += wall

        return run_experiment

    def _count_eig(self, fn):
        def counted(*args, **kwargs):
            with self.lock:
                self.eig_calls += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site of the traced functions; restore on exit."""
        wrappers = {}
        for short, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        saved = []
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])
        for attr in ("eigh", "eigvalsh"):
            saved.append((np.linalg, attr, getattr(np.linalg, attr)))
            setattr(np.linalg, attr, self._count_eig(getattr(np.linalg, attr)))
        try:
            yield self
        finally:
            for module, attr, obj in reversed(saved):
                setattr(module, attr, obj)

    def summary(self):
        """Per-name [calls, self seconds] for the spans of the last op."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        stats = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            name, start, end, _ = span
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start - _covered(children.get(id(span), ()), start, end)
        return dict(stats)


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
