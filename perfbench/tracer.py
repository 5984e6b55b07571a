"""Timing shims around the package's public functions, for traced jobs only.

The benchmark measures from outside the package: `Tracer.installed()` replaces
every binding of each target function in the loaded `distbandit` modules (the
defining module, the modules that imported it, the package namespace) with a
shim, and puts the originals back on exit, so an untraced job runs the
package's own function objects. Each call through a shim is one span -- name,
parent span, start, end -- kept in flat in-memory arrays. A span's self time is
its duration minus the durations of its direct children.

A shim costs about a microsecond, most of it outside the span it times, so
uncorrected it would be charged to the caller: a simulation loop that calls a
shimmed function every round would report mostly the tracer's cost as its own.
`Tracer.calibrate` measures that cost on a shimmed no-op, and `layers` takes it
out of every span's duration (once per descendant span) before subtracting
children. The benchmark rescales the calibration by the CPU-speed probe, since
the speed of a shared CPU can change between the calibration and the job.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _count_lanes(tracer, result) -> None:
    tracer.counters["policies.klucb_index_batch.lanes"] += int(np.size(result))


def _count_comm_rounds(tracer, result) -> None:
    tracer.counters["schedule.comm_rounds"] += bool(result)


def _keep_state(tracer, result) -> None:
    tracer.states.append(result)


def _ignore(tracer, result) -> None:
    pass


def _noop(state, cfg):
    return None


@dataclass(frozen=True)
class Target:
    name: str  # the layer and function, as the per-layer metrics name it
    module: str
    attr: str  # a module attribute, or Class.method
    on_result: Callable = _ignore  # (tracer, result) -> None


TARGETS = (
    Target("cli.main", "distbandit.cli", "main"),
    Target("config.experiment_runs", "distbandit.config", "experiment_runs"),
    Target("analysis.bound_report", "distbandit.analysis", "bound_report"),
    Target("analysis.compare", "distbandit.analysis", "compare"),
    Target("engine.run_monte_carlo", "distbandit.engine", "run_monte_carlo"),
    Target("engine.init_state", "distbandit.engine", "init_state", _keep_state),
    Target("engine.step", "distbandit.engine", "step"),
    Target("engine.merge_views", "distbandit.engine", "merge_views"),
    Target("policies.klucb_index_batch", "distbandit.policies", "klucb_index_batch", _count_lanes),
    Target("policies.count_prediction_batch", "distbandit.policies", "count_prediction_batch"),
    Target(
        "schedule.is_comm_round",
        "distbandit.schedule",
        "CommunicationSchedule.is_comm_round",
        _count_comm_rounds,
    ),
    Target("core.exploration_value", "distbandit.core", "exploration_value"),
)

COUNTERS = ("policies.klucb_index_batch.lanes", "schedule.comm_rounds")

# About half a second of calibration per traced job on the tuning VM.
CALIBRATION_CALLS = 20000
CALIBRATION_ROUNDS = 9


@dataclass(frozen=True)
class ShimCost:
    """Tracer cost of one shimmed call, in clock units: `outer` is spent outside
    the call's span and so charged to the caller, `inner` inside the span beyond
    what a plain call costs."""

    outer: float = 0.0
    inner: float = 0.0

    def scaled(self, factor: float) -> ShimCost:
        return ShimCost(self.outer * factor, self.inner * factor)


@dataclass(frozen=True)
class Layer:
    calls: int
    s: float
    self_s: float


class Tracer:
    def __init__(self, targets=TARGETS, clock=time.perf_counter_ns):
        self.targets = tuple(targets)
        self.clock = clock
        self.names = [t.name for t in self.targets]
        self.cost = ShimCost()  # taken out of the spans by layers(); see calibrate()
        self.reset()

    def reset(self) -> None:
        """Drop all spans, counters and kept states."""
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.states = []

    def _open(self, name_id: int) -> int:
        i = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._start.append(0)
        self._end.append(0)
        self._stack.append(i)
        self._start[i] = self.clock()
        return i

    def _close(self, i: int) -> None:
        self._end[i] = self.clock()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a whole job."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _shim(self, name_id: int, fn, on_result):
        def shim(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            on_result(self, result)
            return result

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", "shim")
        shim.trace_shim = True
        return shim

    @contextlib.contextmanager
    def installed(self):
        """Shim every target for the duration of the block."""
        undo = []
        try:
            modules = [
                m for n, m in list(sys.modules.items())
                if m is not None and (n == "distbandit" or n.startswith("distbandit."))
            ]
            for name_id, target in enumerate(self.targets):
                owner = importlib.import_module(target.module)
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner).get(leaf)
                if original is None:
                    print(f"trace: {target.module}.{target.attr} not found", file=sys.stderr)
                    continue
                shim = self._shim(name_id, original, target.on_result)
                owners = [owner] if path else modules
                for obj in owners:
                    for key, value in list(vars(obj).items()):
                        if value is original:
                            setattr(obj, key, shim)
                            undo.append((obj, key, original))
            yield self
        finally:
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

    def calibrate(self) -> ShimCost:
        """The cost of one shimmed call: medians over CALIBRATION_ROUNDS rounds of
        CALIBRATION_CALLS calls to a shimmed no-op inside one span, against a bare
        loop and plain calls. Recorded spans are left alone; assign the result to
        `cost` to apply it."""
        clock, n = self.clock, CALIBRATION_CALLS
        t = Tracer((), clock)
        shim = t._shim(t._name_id("noop"), _noop, _ignore)
        outer, inner = [], []
        for _ in range(CALIBRATION_ROUNDS):
            t0 = clock()
            for _ in range(n):
                pass
            bare = clock() - t0
            t0 = clock()
            for _ in range(n):
                _noop(n, clock)
            plain = clock() - t0 - bare
            t.reset()
            with t.span("loop"):
                for _ in range(n):
                    shim(n, clock)
            dur = np.asarray(t._end) - np.asarray(t._start)
            children = dur[1:].sum()
            outer.append((dur[0] - children - bare) / n)
            inner.append((children - plain) / n)
        return ShimCost(max(0.0, float(np.median(outer))), max(0.0, float(np.median(inner))))

    def _durations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Name id, parent and duration of every span, the duration net of the
        calibrated tracer cost of the span itself and of all its descendants."""
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end, dtype=np.int64) - np.asarray(self._start, dtype=np.int64)
        # Depth of each span (a parent always precedes its children), then
        # descendant counts bottom-up, one vectorised pass per level.
        depth = np.zeros(len(name), dtype=np.int64)
        nested = parent >= 0
        while True:
            new = np.where(nested, depth[parent] + 1, 0)
            if np.array_equal(new, depth):
                break
            depth = new
        descendants = np.zeros(len(name))
        for d in range(int(depth.max(initial=0)), 0, -1):
            at = depth == d
            descendants += np.bincount(parent[at], weights=1 + descendants[at], minlength=len(name))
        inner, outer = self.cost.inner, self.cost.outer
        return name, parent, dur - inner - (inner + outer) * descendants

    def layers(self) -> dict[str, Layer]:
        """Calls, total and self time per span name, over the recorded spans,
        net of the calibrated tracer cost."""
        name, parent, dur = self._durations()
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - children
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_total = np.bincount(name, weights=self_ns, minlength=k)
        return {
            n: Layer(int(calls[i]), total[i] / 1e9, self_total[i] / 1e9)
            for i, n in enumerate(self.names)
        }

    def durations_ns(self, name: str) -> np.ndarray:
        """Durations of every span with this name, in call order, net of the
        calibrated tracer cost."""
        if name not in self.names:
            return np.zeros(0)
        names, _, dur = self._durations()
        return dur[names == self.names.index(name)]

    @property
    def span_count(self) -> int:
        return len(self._name)


def is_shim(fn) -> bool:
    return getattr(fn, "trace_shim", False) is True
