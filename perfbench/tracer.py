"""Span tracing around the public calls into each curvepath layer.

Tracing wraps functions and methods from outside the program: a wrapped
function is replaced in every curvepath module that holds it by name (for
example simulate's imported corridor_from_polynomial), and a wrapped method
is replaced on its class. Spans stay in memory as (name, start, end,
parent, op, size) tuples and are written out when the run ends; counts and
self times are derived from them.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (layer module, attribute path, span name, size of the work from args/result)
_TARGETS = (
    ("road", "corridor_from_polynomial", "road.corridor", None),
    ("road", "Corridor.transformed", "road.corridor", None),
    ("road", "Corridor.window", "road.corridor", None),
    ("road", "Corridor.project", "road.project", None),
    ("clothoid", "fit_g1", "clothoid.fit", None),
    ("clothoid", "fit_composite", "clothoid.fit_composite", None),
    ("clothoid", "CompositePath.__init__", "clothoid.composite", None),
    ("clothoid", "ClothoidSegment.pose_at", "clothoid.pose", None),
    ("clothoid", "ClothoidSegment.sample", "clothoid.sample", "points"),
    ("planner", "plan_path", "planner.plan_path", None),
    ("planner", "plan_path_from_offsets", "planner.plan", None),
    ("simulate", "fit_lane_polynomial", "simulate.lane_fit", None),
    ("simulate", "generate_synthetic_driver_log", "simulate.synth", None),
    ("simulate", "run_replay", "simulate.replay", "replans"),
    ("simulate", "DriveLog.write_csv", "simulate.csv_write", "bytes"),
    ("simulate", "load_drive_log", "simulate.csv_read", None),
    ("calibration", "assemble_dataset", "calibration.assemble", None),
    ("calibration", "fit_gain_matrix", "calibration.fit_gain", None),
    ("calibration", "optimize_node_distances", "calibration.optimize", "windows"),
    ("calibration", "node_count_tradeoff", "calibration.sweep", None),
    ("metrics", "project_onto", "metrics.project_onto", None),
    ("metrics", "safety_metrics", "metrics.score", None),
    ("metrics", "performance_metrics", "metrics.score", None),
)


def _size(kind, args, result):
    if kind == "points":
        s = args[1] if len(args) > 1 else 0
        return int(getattr(s, "size", 1))
    if kind == "replans":
        gaps = sum(1 for r in result.replans if r.gap)
        return (len(result.replans) - gaps, gaps)
    if kind == "windows":
        return (len(result.window_optima), result.skipped_windows)
    if kind == "bytes":
        return os.path.getsize(args[1])
    return None


class Tracer:
    """Collects spans from wrapped calls; `op` tags spans with the benchmark
    operation that caused them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._replaced = []  # (owner, attribute, original) to restore
        self.op = -1

    def wrap(self, name, fn, size_kind):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            if size_kind is not None:
                spans[idx] = (name, start, end, parent, self.op, _size(size_kind, args, result))
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded curvepath module."""
        modules = [m for n, m in sys.modules.items() if n == "curvepath" or n.startswith("curvepath.")]
        for layer, path, name, size_kind in _TARGETS:
            owner = sys.modules[f"curvepath.{layer}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, attr, self.wrap(name, cls.__dict__[attr], size_kind))
                continue
            original = getattr(owner, path)
            traced = self.wrap(name, original, size_kind)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, traced)

    def _replace(self, owner, attr, traced):
        self._replaced.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, traced)

    def uninstall(self):
        """Put every wrapped function and method back."""
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op,size\n")
            for i, (name, start, end, parent, op, size) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op},{'' if size is None else size}\n")

    def layer_metrics(self):
        """Per-layer counts and times derived from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        sizes = defaultdict(list)
        fits_in_optimize = 0
        for i, (name, start, end, parent, _, size) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            if size is not None:
                sizes[name].append(size)
        # composite fits under each optimisation call, found by walking parents
        optimize_ids = {i for i, s in enumerate(spans) if s[0] == "calibration.optimize"}
        if optimize_ids:
            for name, _, _, parent, _, _ in spans:
                if name != "clothoid.fit_composite":
                    continue
                while parent >= 0 and parent not in optimize_ids:
                    parent = spans[parent][3]
                fits_in_optimize += parent >= 0

        def mean(name, scale=1.0):
            return scale * total[name] / calls[name] if calls[name] else 0.0

        points = sum(sizes["clothoid.sample"])
        planner_self = self_time["planner.plan"] + self_time["planner.plan_path"]
        replans = sum(r for r, _ in sizes["simulate.replay"])
        gaps = sum(g for _, g in sizes["simulate.replay"])
        used = sum(u for u, _ in sizes["calibration.optimize"])
        skipped = sum(s for _, s in sizes["calibration.optimize"])
        n_replay = calls["simulate.replay"]
        csv_bytes = sizes["simulate.csv_write"]
        return {
            "road.corridor_calls": (calls["road.corridor"], "count"),
            "road.corridor_us": (mean("road.corridor", 1e6), "us"),
            "road.project_calls": (calls["road.project"], "count"),
            "road.project_us": (mean("road.project", 1e6), "us"),
            "clothoid.fit_calls": (calls["clothoid.fit"], "count"),
            "clothoid.fit_us": (mean("clothoid.fit", 1e6), "us"),
            "clothoid.composite_us": (mean("clothoid.composite", 1e6), "us"),
            "clothoid.pose_calls": (calls["clothoid.pose"], "count"),
            "clothoid.sample_points": (points, "count"),
            "clothoid.sample_us_per_point": (1e6 * total["clothoid.sample"] / points if points else 0.0, "us"),
            "planner.plans": (calls["planner.plan"], "count"),
            "planner.plan_self_us": (1e6 * planner_self / calls["planner.plan"] if calls["planner.plan"] else 0.0, "us"),
            "simulate.lane_fit_calls": (calls["simulate.lane_fit"], "count"),
            "simulate.lane_fit_us": (mean("simulate.lane_fit", 1e6), "us"),
            "simulate.replay_self_s": (self_time["simulate.replay"] / n_replay if n_replay else 0.0, "s"),
            "simulate.replans": (replans, "count"),
            "simulate.replay_gaps": (gaps, "count"),
            "simulate.csv_write_s": (mean("simulate.csv_write"), "s"),
            "simulate.csv_read_s": (mean("simulate.csv_read"), "s"),
            "simulate.csv_bytes": (sum(csv_bytes) / len(csv_bytes) if csv_bytes else 0.0, "B"),
            "calibration.assemble_s": (mean("calibration.assemble"), "s"),
            "calibration.fit_gain_s": (mean("calibration.fit_gain"), "s"),
            "calibration.optimize_s": (mean("calibration.optimize"), "s"),
            "calibration.composite_fits_per_window": (fits_in_optimize / used if used else 0.0, "count"),
            "calibration.windows_used": (used, "count"),
            "calibration.windows_skipped": (skipped, "count"),
            "calibration.sweep_s": (mean("calibration.sweep"), "s"),
            "metrics.project_onto_s": (mean("metrics.project_onto"), "s"),
            "metrics.score_s": (mean("metrics.score"), "s"),
        }
