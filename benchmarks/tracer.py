"""Span tracer that times cargosim's layers from outside the package.

Installing a :class:`Tracer` replaces each target function at every
``cargosim`` module attribute that holds it -- ``runner`` imports
``pid_step``, ``estimate_pose``, ``wavegate_select``, ``smooth_track`` and
``cargo_position_from_detection`` by name, so patching only the defining
module would record nothing -- and each target method on its class.
Leaving the ``with`` block restores every original.

Spans are kept in memory as ``(name, start_ns, end_ns, parent)`` tuples and
summarised (or written out) after tracing ends.  A layer's self time is its
spans' duration minus the part covered by its child spans, so the self
times of all layers add up to the duration of the outermost spans.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (defining module, attribute, span name).  "Class.method" patches the class.
TIMED = [
    ("cargosim.runner", "run_mission", "runner.run_mission"),
    ("cargosim.sim_world", "SimWorld.step", "sim_world.step"),
    ("cargosim.sim_world", "SimWorld.sense_uwb", "sim_world.sense_uwb"),
    ("cargosim.sim_world", "SimWorld.sense_qr", "sim_world.sense_qr"),
    ("cargosim.sim_world", "SimWorld.sense_cargo", "sim_world.sense_cargo"),
    ("cargosim.sim_world", "SimWorld.sense_imu", "sim_world.sense_imu"),
    ("cargosim.uwb_localization", "ekf_predict", "uwb_localization.ekf_predict"),
    ("cargosim.uwb_localization", "ekf_update", "uwb_localization.ekf_update"),
    ("cargosim.uwb_localization", "fuse_labels", "uwb_localization.fuse_labels"),
    ("cargosim.uwb_localization", "yaw_from_labels",
     "uwb_localization.yaw_from_labels"),
    ("cargosim.qr_localization", "estimate_pose", "qr_localization.estimate_pose"),
    ("cargosim.hybrid_localizer", "arbitrate", "hybrid_localizer.arbitrate"),
    ("cargosim.perception", "wavegate_select", "perception.wavegate_select"),
    ("cargosim.perception", "cargo_position_from_detection",
     "perception.cargo_position_from_detection"),
    ("cargosim.perception", "smooth_track", "perception.smooth_track"),
    ("cargosim.mission", "MissionExecutive.tick", "mission.executive_tick"),
    ("cargosim.control", "pid_step", "control.pid_step"),
    ("cargosim.runner", "write_log", "runner.write_log"),
    ("cargosim.runner", "read_log", "runner.read_log"),
    ("cargosim.runner", "metrics_from_log", "runner.metrics_from_log"),
]

# Counted but not timed: their time stays in the caller's self time.
COUNTED = [
    ("cargosim.planner", "plan_coverage", "planner.plan_coverage"),
]

SMOOTH_TRACK = "perception.smooth_track"


class Tracer:
    """Context manager that records spans and call counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.smooth_accepted = 0  # smooth_track calls that kept the sample
        self.absent: list[str] = []  # targets the package no longer has
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.absent = []
        for module, attr, name in TIMED:
            self._install(module, attr, name, timed=True)
        for module, attr, name in COUNTED:
            self._install(module, attr, name, timed=False)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install(self, module: str, attr: str, name: str, timed: bool) -> None:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.absent.append(name)
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = None if cls is None else cls.__dict__.get(meth)
            if not callable(original):
                self.absent.append(name)
                return
            holders = [(cls, meth)]
        else:
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                return
            holders = [(mod, key) for mod in _package_modules()
                       for key, value in list(vars(mod).items())
                       if value is original]
        wrapper = (self._timed(name, original) if timed
                   else self._counted(name, original))
        for holder, key in holders:
            self._restore.append((holder, key, original))
            setattr(holder, key, wrapper)

    def _timed(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = name == SMOOTH_TRACK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if observe and result.rejects == 0:
                    self.smooth_accepted += 1
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> tuple[dict[str, int], Counter]:
        """Self time in ns and call count per span name (counted names too)."""
        self_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter(self.counts)
        for name, start, end, parent in self.spans:
            duration = end - start
            self_ns[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= duration
        return dict(self_ns), calls

    def write(self, path) -> None:
        """Write every span as CSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent"])
            for index, span in enumerate(self.spans):
                writer.writerow([index, *span])


def span_cost_ns(calls: int = 20_000, blocks: int = 11) -> float:
    """Median time in ns that the timed wrapper adds to one call.

    Blocks of direct and wrapped calls of a no-op alternate, so the
    host's drifting speed affects both sides of each difference alike.
    """
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._timed("calibration", noop)
    extra = []
    for _ in range(blocks):
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter_ns()
        extra.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return statistics.median(extra)


def _package_modules() -> list:
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "cargosim"
                                    or key.startswith("cargosim."))]
