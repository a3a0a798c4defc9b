"""In-memory span recorder for the traced benchmark run.

The traced run wraps the public entry points each ``ioslab`` module offers
the layer above (see ``install``).  Every wrapped call records one span:
name, start, end and the index of the enclosing span.  Spans nest strictly
(the benchmark is single-threaded), so self time is exact: a span's
duration minus the durations of its direct children.  Per-name totals are
kept as the run goes; the raw spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span index, child time]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.open_depth: dict[str, int] = {}
        # id(system) -> (system, [(input signal, trajectory), ...]), a few per system
        self.trajectories: dict = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name: str) -> bool:
        return self.open_depth.get(name, 0) > 0

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; ``after(args, kwargs, result)`` adds counts."""
        tracer = self
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.span_name)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            tracer.open_depth[name] = tracer.open_depth.get(name, 0) + 1
            t0 = time.perf_counter()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.open_depth[name] -= 1
                tracer.span_end[idx] = t1
                dur = t1 - t0
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total[name] = tracer.total.get(name, 0.0) + dur
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path) -> None:
        """Dump every span as [name id, start us, end us, parent index]."""
        if len(self.span_start):
            t0 = self.span_start[0]
            start = np.round((np.frombuffer(self.span_start) - t0) * 1e6, 3)
            end = np.round((np.frombuffer(self.span_end) - t0) * 1e6, 3)
        else:
            start = end = np.zeros(0)
        spans = np.column_stack([np.frombuffer(self.span_name, dtype=np.int32),
                                 start, end, np.frombuffer(self.span_parent, dtype=np.int32)])
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_us", "end_us", "parent"],
                       "spans": spans.tolist()}, fh, separators=(",", ":"))


class _Undo:
    def __init__(self):
        self._saved = []

    def patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def install(tracer: Tracer) -> _Undo:
    """Wrap the layer boundaries that calls cross inside ``ioslab``.

    Call-site spans (verify, estimate_gain, falsify, the witness replays and
    the construction recipes) are opened by the workloads through
    ``Tracer.call``; this function covers the boundaries that the package
    crosses internally.
    """
    from ioslab import comparison, properties

    undo = _Undo()

    def after_simulate(args, kwargs, traj):
        sys = args[0] if args else kwargs["sys"]
        u = args[2] if len(args) > 2 else kwargs["u"]
        tracer.count("simulate.steps", len(traj.times) - 1)
        if traj.blow_up is not None:
            tracer.count("simulate.blowups")
        if tracer.inside("properties.falsify"):
            tracer.count("falsify.sims")
        kept = tracer.trajectories.setdefault(id(sys), (sys, []))[1]
        if len(kept) < 8:
            kept.append((u, traj))
        tracer.count(f"steps_of.{id(sys)}", len(traj.times) - 1)

    undo.patch(properties, "simulate",
               tracer.wrap("systems.simulate", properties.simulate, after_simulate))

    data = tracer.wrap("properties.probeset.data", properties.ProbeSet.data)

    @functools.wraps(properties.ProbeSet.data)
    def data_counting_misses(self, probe):
        before = tracer.calls.get("systems.simulate", 0)
        result = data(self, probe)
        if tracer.calls.get("systems.simulate", 0) != before:
            tracer.count("probeset.misses")
        return result

    undo.patch(properties.ProbeSet, "data", data_counting_misses)

    def after_points(key):
        def after(args, kwargs, result):
            tracer.count(key, np.size(result))
        return after

    undo.patch(comparison.KLFn, "__call__",
               tracer.wrap("comparison.kl", comparison.KLFn.__call__, after_points("kl.points")))
    undo.patch(comparison.ScalarFn, "__call__",
               tracer.wrap("comparison.scalar", comparison.ScalarFn.__call__,
                           after_points("scalar.points")))
    undo.patch(comparison, "check_kl", tracer.wrap("comparison.check_kl", comparison.check_kl))
    undo.patch(properties.Certificate, "__post_init__",
               tracer.wrap("properties.certificate", properties.Certificate.__post_init__))
    return undo
