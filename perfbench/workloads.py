"""The three benchmark workloads: inputs from the seed, timed rounds, checks.

Each workload builds its inputs in `setup`. A round runs every one of the
workload's operations once, and the run repeats whole rounds until its time
is used up; call latencies are calibrated to a fixed machine speed
(speed.py, Stats). Every repeat's output must equal the first one's.
`check` compares the first outputs with independent computations
(oracles.py) or with properties the method must have, and `self_check`
corrupts one output per check and confirms the check notices.

The program is always called through its module attributes
(`simulate.run_replay(...)`) so the wrappers installed by tracer.py are
seen.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time

import numpy as np

import oracles
import speed
from curvepath import calibration, metrics, planner, road, simulate

clock = time.perf_counter

PARAMS = planner.NodePointParams()
RETRIGGER = 30
NOISE_SIGMA = 0.05
CORRIDOR_STEP = 0.5


def _ratio(a, b):
    """a / b, or NaN when no operation of the kind succeeded."""
    return a / b if b else math.nan


def _warm_call(fn, *args, **kwargs):
    """One untimed call before measuring. A failure is not raised here: the
    measured pass attempts the same operations and counts them."""
    try:
        fn(*args, **kwargs)
    except Exception:
        pass


def random_gains(rng):
    """Driver gain matrix: diagonal in [20, 60], off-diagonal N(0, 3)."""
    diag = rng.uniform(20.0, 60.0, 3)
    off = rng.normal(0.0, 3.0, (3, 3))
    return planner.GainMatrix(np.diag(diag) + off - np.diag(np.diag(off)))


def tight_scenario():
    """Left then right curve peaking at 0.015 1/m, driven at 15 m/s.

    0.015 1/m is the sharpest curvature the synthetic cubic lane fit follows
    over the 150 m preview; beyond it the fitted polynomial folds back and
    the corridor builder rejects it.
    """
    seg = simulate.RoadSegmentSpec
    return simulate.ScenarioSpec(
        segments=(
            seg.straight(150.0),
            seg.transition(50.0, 0.0, 0.010),
            seg.arc(60.0, 0.010),
            seg.transition(80.0, 0.010, -0.015),
            seg.arc(50.0, -0.015),
            seg.transition(60.0, -0.015, 0.0),
            seg.straight(200.0),
        ),
        speed=15.0,
    )


def straight_scenario():
    return simulate.ScenarioSpec(segments=(simulate.RoadSegmentSpec.straight(600.0),))


class Stats:
    """Counts and call latencies of one measured pass.

    Every call latency is kept raw and calibrated (speed.py): scaled by the
    mean of the speed probes taken just before and just after it. A call's
    calibrated latency in the run is the median over its repeats; an
    operation's latency is the sum over its calls.
    """

    def __init__(self):
        self.rounds = 0
        self.samples = {}  # (operation, call) -> [(raw latency, scale)]
        self.cycles = {}  # operation -> drive-log cycles it handles
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._pending = []
        self._scale = None

    def probe(self):
        """Measure the host's speed; calibrate the calls made since the last probe."""
        now = speed.scale()
        around = now if self._scale is None else 0.5 * (self._scale + now)
        for key, raw in self._pending:
            self.samples.setdefault(key, []).append((raw, around))
        self._pending.clear()
        self._scale = now

    def call(self, op, name, latency):
        """Latency of one call made by an attempt of `op`."""
        self._pending.append(((op, name), latency))

    def done(self, op, cycles):
        """A successful attempt of `op`, which handles `cycles` log cycles."""
        self.attempted += 1
        self.cycles[op] = cycles

    def fail(self, exc):
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def call_latency(self, key, raw=False):
        """Median calibrated latency of a call, or its fastest raw one."""
        values = self.samples[key]
        if raw:
            return min(r for r, _ in values)
        return statistics.median(r * s for r, s in values)

    def op_latency(self, op, raw=False):
        return sum(self.call_latency(k, raw) for k in self.samples if k[0] == op)

    def call_total(self, name):
        return sum(self.call_latency(k) for k in self.samples if k[1] == name)

    def call_samples(self, name):
        """Every calibrated repeat of every call named `name`."""
        return [r * s for k, values in self.samples.items() if k[1] == name for r, s in values]

    def latencies(self, raw=False):
        return [self.op_latency(op, raw) for op in self.cycles]

    def op_ms_mean(self, raw=False):
        lat = self.latencies(raw)
        return 1e3 * statistics.fmean(lat) if lat else math.nan


class Outputs:
    """First output per operation key, plus the keys whose later repeats
    returned something else."""

    def __init__(self):
        self.first = {}
        self.fingerprints = {}
        self.unstable = []

    def keep(self, key, output, fingerprint):
        if key not in self.first:
            self.first[key] = output
            self.fingerprints[key] = fingerprint
        elif fingerprint != self.fingerprints[key]:
            self.unstable.append(key)

    def errors(self):
        return [f"operation {key}: a repeat returned a different result" for key in self.unstable[:5]]


# --------------------------------------------------------------------------
# online-plan


class OnlinePlan:
    """Closed loop, one caller: plan every STRIDE-th recorded cycle of four
    drives, one plan after the other."""

    STRIDE = 2
    CHECK_SAMPLE_PER_DRIVE = 8
    # The planner measures station by chord length on a polyline resampled
    # every 0.5 m, so its subsection mean curvatures differ from the exact
    # arc-length ones; the gap measured on these roads stays below 1e-4 of
    # the largest offset the gain row can produce (|P_k|_1 times the peak
    # lane curvature), 9e-5 on the tight road. The tolerance is 5e-4 of it.
    OFFSET_REL_TOL = 5e-4
    OFFSET_TOL_FLOOR_M = 1e-7
    CLOSURE_POS_TOL_M = 1e-6
    CLOSURE_HEADING_TOL_RAD = 1e-8
    START_TOL_M = 1e-9
    MIDLINE_TOL_M = 1e-9

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        scenarios = (
            ("straight", straight_scenario(), 0.0),
            ("s-curve", simulate.s_curve_scenario(), NOISE_SIGMA),
            ("winding", simulate.winding_scenario(), NOISE_SIGMA),
            ("tight", tight_scenario(), NOISE_SIGMA),
        )
        self.drives = []
        for label, spec, sigma in scenarios:
            midline = simulate.build_scenario_road(spec)
            gains = random_gains(rng)
            driver = simulate.SyntheticDriverSpec(gains, sigma, int(rng.integers(0, 2**31 - 1)))
            log = simulate.generate_synthetic_driver_log(
                midline, driver, PARAMS, RETRIGGER, speed=spec.speed
            )
            inputs = [(log.polynomial(i), log.pose(i), float(log.lane_width[i])) for i in range(len(log))]
            self.drives.append((label, gains, inputs))
        self.check_rng = np.random.default_rng([seed, 1])
        self.outputs = Outputs()

    def warm(self):
        for _, gains, inputs in self.drives:
            _warm_call(self._plan, gains, *inputs[0])

    @staticmethod
    def _plan(gains, poly, pose, lane_width):
        corr = road.corridor_from_polynomial(poly, CORRIDOR_STEP, lane_width=lane_width).transformed(pose)
        return planner.plan_path(corr, gains, PARAMS, road.PlanningFrame(origin=pose))

    def round(self, r, stats, tracer=None):
        for d, (_, gains, inputs) in enumerate(self.drives):
            for i in range(0, len(inputs), self.STRIDE):
                if i % (64 * self.STRIDE) == 0:
                    stats.probe()
                if tracer is not None:
                    tracer.op = stats.attempted
                t0 = clock()
                try:
                    plan = self._plan(gains, *inputs[i])
                except Exception as exc:  # counted, reported, and the run goes on
                    stats.fail(exc)
                    continue
                stats.call((d, i), "plan", clock() - t0)
                stats.done((d, i), 1)
                fingerprint = tuple(
                    (g.start.x, g.start.y, g.start.theta, g.kappa0, g.kappa_rate, g.length)
                    for g in plan.path.segments
                )
                self.outputs.keep((d, i), plan, fingerprint)

    def details(self, stats):
        # percentiles over every calibrated repeat of every plan, so a stall
        # in a single repeat reaches the tail
        samples = 1e3 * np.asarray(stats.call_samples("plan"))
        p50, p99 = np.percentile(samples, (50, 99)) if samples.size else (math.nan, math.nan)
        return [
            ("plan_ms_p50", float(p50), "ms"),
            ("plan_ms_p99", float(p99), "ms"),
            ("plans", len(stats.cycles), "count"),
            ("plan_samples", samples.size, "count"),
            ("samples_beyond_p99", int(np.count_nonzero(samples > p99)), "count"),
            ("repeats", stats.rounds, "count"),
        ]

    # checks ---------------------------------------------------------------

    def _start_error(self, plan, pose):
        s0 = plan.path.segments[0].start
        o = plan.frame.origin
        gx = o.x + math.cos(o.theta) * s0.x - math.sin(o.theta) * s0.y
        gy = o.y + math.sin(o.theta) * s0.x + math.cos(o.theta) * s0.y
        err = math.hypot(gx - pose.x, gy - pose.y)
        dth = abs(math.remainder(o.theta + s0.theta - pose.theta, 2 * math.pi))
        if err > self.START_TOL_M or dth > self.START_TOL_M:
            return f"path starts {err:.2e} m / {dth:.2e} rad away from the vehicle pose"
        return None

    def _closure_errors(self, segments, node_poses):
        out = []
        for k, seg in enumerate(segments):
            x, y, th = oracles.spiral_end_pose(
                seg.start.x, seg.start.y, seg.start.theta, seg.kappa0, seg.kappa_rate, seg.length
            )
            target = node_poses[k + 1]
            gap = math.hypot(x - target.x, y - target.y)
            dth = abs(math.remainder(th - target.theta, 2 * math.pi))
            if gap > self.CLOSURE_POS_TOL_M or dth > self.CLOSURE_HEADING_TOL_RAD:
                out.append(f"segment {k} ends {gap:.2e} m / {dth:.2e} rad from node {k + 1}")
        return out

    def _offset_errors(self, poly, gains_p, node_poses):
        c = poly.coefficients
        kbar = oracles.subsection_curvatures(c, PARAMS.distances, poly.preview_length)
        expected = gains_p @ kbar
        peak = oracles.lane_peak_curvature(c, PARAMS.d_far)
        out = []
        for k, d in enumerate(PARAMS.distances):
            x, y, th = oracles.polyline_station_pose(c, poly.preview_length, CORRIDOR_STEP, d)
            node = node_poses[k + 1]
            got = oracles.signed_offset((node.x, node.y), (x, y), th)
            tol = self.OFFSET_TOL_FLOOR_M + self.OFFSET_REL_TOL * np.abs(gains_p[k]).sum() * peak
            if abs(got - expected[k]) > tol:
                out.append(f"node {k + 1} offset {got:.9f} m, gain model gives {expected[k]:.9f} m (tol {tol:.1e})")
        return out

    def _midline_errors(self, plan):
        o = plan.frame.origin
        out = []
        for node in plan.node_poses:
            lateral = o.y + math.sin(o.theta) * node.x + math.cos(o.theta) * node.y
            if abs(lateral) > self.MIDLINE_TOL_M:
                out.append(f"straight-road node {lateral:.2e} m off the midline")
        for seg in plan.path.segments:
            turn = abs(seg.start.theta + o.theta) + abs(seg.kappa0) * seg.length + abs(seg.kappa_rate) * seg.length**2
            if turn > self.MIDLINE_TOL_M:
                out.append(f"straight-road segment turns {turn:.2e} rad")
        return out

    def _sample(self):
        by_drive = {}
        for n, (d, _) in enumerate(self.planned):
            by_drive.setdefault(d, []).append(n)
        picks = []
        for d in sorted(by_drive):
            pool = by_drive[d]
            k = min(self.CHECK_SAMPLE_PER_DRIVE, len(pool))
            picks += [pool[j] for j in self.check_rng.choice(len(pool), size=k, replace=False)]
        return picks

    def check(self):
        self.planned = list(self.outputs.first)
        failures = self.outputs.errors()
        for d, i in self.planned:
            plan = self.outputs.first[(d, i)]
            label, _, inputs = self.drives[d]
            err = self._start_error(plan, inputs[i][1])
            if err:
                failures.append(f"{label} cycle {i}: {err}")
            if label == "straight":
                failures += [f"{label} cycle {i}: {e}" for e in self._midline_errors(plan)]
        self.sampled = self._sample()
        for n in self.sampled:
            d, i = self.planned[n]
            plan = self.outputs.first[(d, i)]
            label, gains, inputs = self.drives[d]
            errs = self._closure_errors(plan.path.segments, plan.node_poses)
            errs += self._offset_errors(inputs[i][0], gains.p, plan.node_poses)
            failures += [f"{label} cycle {i}: {e}" for e in errs]
        return failures

    def self_check(self):
        """Corrupt one output per check; a check whose outputs all failed
        to be produced has nothing to corrupt and is skipped."""
        missed = []
        if not self.sampled:
            return missed
        d, i = self.planned[self.sampled[0]]
        plan = self.outputs.first[(d, i)]
        pose = self.drives[d][2][i][1]
        seg0 = plan.path.segments[0]
        shifted = type(plan)(
            path=type(plan.path)((type(seg0)(
                start=road.Pose(seg0.start.x + 1e-6, seg0.start.y, seg0.start.theta),
                kappa0=seg0.kappa0, kappa_rate=seg0.kappa_rate, length=seg0.length,
            ),)),
            node_poses=plan.node_poses,
            frame=plan.frame,
        )
        if self._start_error(shifted, pose) is None:
            missed.append("start check missed a 1e-6 m shifted path start")
        nodes = list(plan.node_poses)
        nodes[2] = road.Pose(nodes[2].x + 1e-5, nodes[2].y, nodes[2].theta)
        if not self._closure_errors(plan.path.segments, nodes):
            missed.append("closure check missed a 1e-5 m shifted segment end pose")
        missed += self._offset_self_check()
        missed += self._midline_self_check()
        return missed

    def _offset_self_check(self):
        # scale the gain entry that contributes most to a curved-road offset
        best = None
        for n in self.sampled:
            d, i = self.planned[n]
            label, gains, inputs = self.drives[d]
            if label == "straight":
                continue
            c = inputs[i][0].coefficients
            kbar = oracles.subsection_curvatures(c, PARAMS.distances, inputs[i][0].preview_length)
            contrib = np.abs(gains.p * kbar[None, :])
            j = np.unravel_index(np.argmax(contrib), contrib.shape)
            if best is None or contrib[j] > best[0]:
                best = (contrib[j], n, j)
        if best is None:
            return []
        _, n, j = best
        d, i = self.planned[n]
        plan = self.outputs.first[(d, i)]
        scaled = np.array(self.drives[d][1].p)
        scaled[j] *= 1.01
        if not self._offset_errors(self.drives[d][2][i][0], scaled, plan.node_poses):
            return ["offset check missed a gain entry scaled by 1.01"]
        return []

    def _midline_self_check(self):
        straight = next((p for (d, _), p in self.outputs.first.items() if self.drives[d][0] == "straight"), None)
        if straight is None:
            return []
        moved = list(straight.node_poses)
        moved[3] = road.Pose(moved[3].x, moved[3].y + 1e-6, moved[3].theta)
        if not self._midline_errors(type(straight)(path=straight.path, node_poses=tuple(moved), frame=straight.frame)):
            return ["midline check missed a node moved 1e-6 m off the midline"]
        return []


# --------------------------------------------------------------------------
# cohort-evaluate


class CohortEvaluate:
    """The synth + evaluate flow per driver on the winding road, for a
    cohort of two drivers drawn from the seed: one noise-free, one with
    offset noise NOISE_SIGMA."""

    GAIN_TOL = 1e-9
    RMS_BAND = (0.75, 1.25)
    METRIC_TOL = 1e-9

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        self.seed = seed
        self.scenario = simulate.winding_scenario()
        self.road = simulate.build_scenario_road(self.scenario)
        self.segments = metrics.detect_curve_segments(self.road)
        self.vehicle = metrics.VehicleSpec()
        self.drivers = self._drivers(seed)
        self.outputs = Outputs()

    @staticmethod
    def _drivers(seed):
        rng = np.random.default_rng(seed)
        return [
            simulate.SyntheticDriverSpec(random_gains(rng), sigma, int(rng.integers(0, 2**31 - 1)))
            for sigma in (0.0, NOISE_SIGMA)
        ]

    def _evaluate(self, midline, spec, driver, segments, path, stats=None, op=None):
        """One driver through the pipeline. With `stats`, every call is timed
        and followed by a speed probe."""

        def timed(name, fn, *args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            if stats is not None:
                stats.call(op, name, clock() - t0)
                stats.probe()
            return result

        log = timed("synth", simulate.generate_synthetic_driver_log, midline, driver, PARAMS, RETRIGGER,
                    speed=spec.speed)
        timed("csv_write", log.write_csv, path)
        loaded = timed("csv_read", simulate.load_drive_log, path)
        result = timed("calibrate", lambda: calibration.fit_gain_matrix(
            calibration.assemble_dataset(loaded, PARAMS, RETRIGGER)))
        planned = timed("replay_validation", simulate.run_replay, loaded, result.gains, PARAMS, RETRIGGER,
                        mode="validation")
        reference = timed("replay_estimation", simulate.run_replay, loaded, result.gains, PARAMS, RETRIGGER,
                          mode="estimation")
        planned_p, reference_p = timed("project", lambda: (
            metrics.project_onto(planned, midline), metrics.project_onto(reference, midline)))
        safety, performance = timed("score", lambda: (
            metrics.safety_metrics(planned_p, midline, self.vehicle, segments),
            metrics.performance_metrics(planned_p, reference_p, segments)))
        return dict(driver=driver, log=log, loaded=loaded, result=result, planned=planned,
                    reference=reference, safety=safety, performance=performance)

    def warm(self):
        spec = simulate.s_curve_scenario()
        midline = simulate.build_scenario_road(spec)
        path = os.path.join(self.workdir, "warm.csv")
        _warm_call(self._evaluate, midline, spec, self._drivers(self.seed + 1)[1],
                   metrics.detect_curve_segments(midline), path)
        if os.path.exists(path):
            os.remove(path)

    def round(self, r, stats, tracer=None):
        for k, driver in enumerate(self.drivers):
            stats.probe()
            if tracer is not None:
                tracer.op = stats.attempted
            path = os.path.join(self.workdir, f"driver_{k}.csv")
            try:
                out = self._evaluate(self.road, self.scenario, driver, self.segments, path, stats, k)
                with open(path, "rb") as fh:
                    csv_digest = hashlib.sha256(fh.read()).hexdigest()
            except Exception as exc:  # counted, reported, and the run goes on
                stats.fail(exc)
                continue
            finally:
                if os.path.exists(path):
                    os.remove(path)
            stats.done(k, len(out["log"]))
            fingerprint = (
                csv_digest,
                tuple(out["result"].gains.row_major()),
                out["safety"].min_border_distance,
                out["performance"].avg_distance,
                hashlib.sha256(out["planned"].x.tobytes() + out["reference"].y.tobytes()).hexdigest(),
            )
            self.outputs.keep(k, out, fingerprint)

    def details(self, stats):
        cycles = sum(stats.cycles.values())
        replay = stats.call_total("replay_validation") + stats.call_total("replay_estimation")
        return [
            ("synth_cycles_per_s", _ratio(cycles, stats.call_total("synth")), "cycles/s"),
            ("replay_cycles_per_s", _ratio(2 * cycles, replay), "cycles/s"),
            ("cohort_drivers_per_s", _ratio(len(stats.cycles), sum(stats.latencies())), "drivers/s"),
            ("drivers", len(stats.cycles), "count"),
            ("repeats", stats.rounds, "count"),
        ]

    # checks ---------------------------------------------------------------

    @staticmethod
    def _csv_errors(log, loaded):
        out = []
        if not np.array_equal(log.cycle, loaded.cycle):
            out.append("CSV round trip changed the cycle column")
        for name in simulate.DriveLog._FLOAT_COLUMNS:
            a, b = getattr(log, name), getattr(loaded, name)
            if a.shape != b.shape or not np.array_equal(a.view(np.int64), b.view(np.int64)):
                out.append(f"CSV round trip changed column {name}")
        return out

    def _gain_errors(self, driver, gains_p, rms):
        if driver.offset_noise_sigma == 0.0:
            err = float(np.max(np.abs(gains_p - driver.gains_true.p)))
            return [f"noise-free gains off by {err:.2e}"] if err > self.GAIN_TOL else []
        lo, hi = (f * driver.offset_noise_sigma for f in self.RMS_BAND)
        return [] if lo <= rms <= hi else [f"residual rms {rms:.4f} m outside [{lo:.4f}, {hi:.4f}]"]

    @staticmethod
    def _estimation_errors(loaded, reference):
        step = float(loaded.speed[0]) * loaded.sample_time
        ahead = [int(np.argmin(np.abs(np.arange(400) * step - d))) for d in PARAMS.distances]
        out = []
        for rec in reference.replans:
            if rec.gap:
                continue
            expected = [-float(loaded.c0[rec.cycle + a]) for a in ahead]
            if list(rec.offsets.as_array()) != expected:
                out.append(f"estimation offsets at cycle {rec.cycle} differ from the log")
        return out

    def _score_errors(self, planned, reference, safety, performance):
        def arrays(trace):
            return {"cycle": trace.cycle, "x": trace.x, "y": trace.y}

        mid = {"x": self.road.x, "y": self.road.y, "s": self.road.s}
        segs = [(seg.start_s, seg.end_s) for seg in self.segments]
        ref = oracles.score_brute_force(
            arrays(planned), arrays(reference), mid, self.road.lane_width, self.vehicle.width, segs
        )
        got = {
            "min_border_distance": safety.min_border_distance,
            "violation_ratio": safety.border_violation_ratio,
            "avg_distance": performance.avg_distance,
            "max_distance": performance.max_distance,
            "side_correctness": performance.side_correctness,
        }
        return [
            f"{k} {got[k]!r} differs from brute force {ref[k]!r}"
            for k in ref if abs(got[k] - ref[k]) > self.METRIC_TOL
        ]

    def check(self):
        failures = self.outputs.errors()
        for n, o in self.outputs.first.items():
            errs = self._csv_errors(o["log"], o["loaded"])
            errs += self._gain_errors(o["driver"], o["result"].gains.p, o["result"].residual_rms)
            errs += self._estimation_errors(o["loaded"], o["reference"])
            errs += self._score_errors(o["planned"], o["reference"], o["safety"], o["performance"])
            failures += [f"driver {n}: {e}" for e in errs]
        return failures

    def self_check(self):
        """Corrupt one output per check, on the drivers whose pipeline ran."""
        missed = []
        clean, noisy = self.outputs.first.get(0), self.outputs.first.get(1)
        if noisy is not None and not self._gain_errors(
            noisy["driver"], noisy["result"].gains.p, 2.0 * noisy["result"].residual_rms
        ):
            missed.append("residual check missed a doubled residual")
        if clean is None:
            return missed
        scaled = np.array(clean["result"].gains.p)
        scaled[0, 1] *= 1.0 + 1e-6
        if not self._gain_errors(clean["driver"], scaled, 0.0):
            missed.append("gain check missed an entry scaled by 1 + 1e-6")
        loaded = clean["loaded"]
        saved = loaded.c2[7]
        loaded.c2[7] = np.nextafter(saved, np.inf)
        if not self._csv_errors(clean["log"], loaded):
            missed.append("CSV check missed a one-ulp change")
        loaded.c2[7] = saved
        rec = next(r for r in clean["reference"].replans if not r.gap)
        saved = loaded.c0[rec.cycle + 8]
        loaded.c0[rec.cycle + 8] = saved + 1e-9
        if not self._estimation_errors(loaded, clean["reference"]):
            missed.append("estimation check missed a 1e-9 m offset change")
        loaded.c0[rec.cycle + 8] = saved
        planned = clean["planned"]
        in_curve = np.flatnonzero(self.segments[0].contains(metrics.project_onto(planned, self.road).station))
        inside = in_curve[in_curve.size // 2]
        saved = planned.x[inside]
        planned.x[inside] = saved + 0.3
        if not self._score_errors(planned, clean["reference"], clean["safety"], clean["performance"]):
            missed.append("score check missed a trace point moved 0.3 m")
        planned.x[inside] = saved
        return missed


# --------------------------------------------------------------------------
# identify-nodes


# Node distances the identification logs are built from. Each log's lane
# preview reaches 3 m past its far node, so the far node is identifiable.
NODE_TRUTHS = ((6.0, 25.0, 100.0), (9.0, 33.0, 110.0), (10.0, 39.0, 137.0), (14.0, 55.0, 145.0))
RECOVERY_TOL_M = 2.0
INITIAL_GUESS = planner.NodePointParams(20.0, 60.0, 180.0)
CHAIN_BLOCKS = 2
# Logs per node-distance truth, each with its own drawn offsets: the median
# over eight identifications depends less on one seed's draws than over four.
LOGS_PER_TRUTH = 2
WINDOW_ROWS = 120


def chained_node_log(midline, params, patterns, speed=25.0, sample_time=0.05):
    """Drive log whose path is a chain of three-piece plans with the given
    node distances and offsets; each plan starts where the previous one was
    left, so the path's curvature-rate breaks sit at the node distances."""
    step = speed * sample_time
    preview = params.d_far + 3.0
    block_rows = int(round(params.d_far / step))
    cols = {k: [] for k in simulate.DriveLog._FLOAT_COLUMNS}
    station = 0.0
    pose = simulate.offset_pose_on(midline, 0.0, 0.0, 0.0)
    i = 0
    for pattern in patterns:
        poly = simulate.fit_lane_polynomial(midline, pose, station=station, preview=preview)
        corr = road.corridor_from_polynomial(poly, lane_width=midline.lane_width).transformed(pose)
        plan = planner.plan_path_from_offsets(
            corr, planner.OffsetVector(*pattern), params, road.PlanningFrame(origin=pose)
        )
        for j in range(block_rows):
            ego = road.from_planning_frame(plan.path.pose_at(min(j * step, plan.path.length)), plan.frame)
            st, off = midline.project(ego.x, ego.y)
            p = poly if j == 0 else simulate.fit_lane_polynomial(
                midline, ego, station=st, preview=preview, anchor_c0=-off
            )
            for name, value in zip(("t", "x", "y", "theta", "speed", "lane_width"),
                                   (i * sample_time, ego.x, ego.y, ego.theta, speed, midline.lane_width)):
                cols[name].append(value)
            for name, value in zip(("c0", "c1", "c2", "c3"), p.coefficients):
                cols[name].append(value)
            i += 1
        pose = road.from_planning_frame(plan.path.pose_at(min(block_rows * step, plan.path.length)), plan.frame)
        station, _ = midline.project(pose.x, pose.y)
    log = simulate.DriveLog(
        cycle=np.arange(i), sample_time=sample_time, preview_length=preview,
        **{k: np.asarray(v) for k, v in cols.items()},
    )
    return log, block_rows


class IdentifyNodes:
    """Node-distance identification on chained logs plus the node-count sweep.

    A round identifies the node distances of LOGS_PER_TRUTH logs per entry
    of NODE_TRUTHS and runs the 1..10 node-count sweep on an S-curve drive.
    """

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        midline = simulate.build_scenario_road(simulate.winding_scenario(10))
        self.logs = []
        for truth in NODE_TRUTHS * LOGS_PER_TRUTH:
            sign = rng.choice((-1.0, 1.0))
            patterns = []
            for b in range(CHAIN_BLOCKS):
                amp = rng.uniform(0.35, 0.5, 3)
                patterns.append(tuple(sign * (-1.0) ** (b + k) * amp[k] for k in range(3)))
            params = planner.NodePointParams(*truth)
            log, block_rows = chained_node_log(midline, params, patterns)
            self.logs.append((truth, log, block_rows))
        s_curve = simulate.build_scenario_road(simulate.s_curve_scenario())
        driver = simulate.SyntheticDriverSpec(random_gains(rng), 0.0, int(rng.integers(0, 2**31 - 1)))
        self.sweep_log = simulate.generate_synthetic_driver_log(s_curve, driver, PARAMS, RETRIGGER)
        self.outputs = Outputs()

    def warm(self):
        _, log, block_rows = self.logs[0]
        _warm_call(calibration.optimize_node_distances, log, INITIAL_GUESS, window=WINDOW_ROWS, stride=len(log),
                   grid_step=20.0)
        _warm_call(calibration.node_count_tradeoff, self.sweep_log, counts=(1, 2), repeats=1)

    def round(self, r, stats, tracer=None):
        for n, (truth, log, block_rows) in enumerate(self.logs):
            stats.probe()
            if tracer is not None:
                tracer.op = stats.attempted
            t0 = clock()
            try:
                result = calibration.optimize_node_distances(
                    log, INITIAL_GUESS, window=WINDOW_ROWS, stride=block_rows
                )
            except Exception as exc:  # counted, reported, and the run goes on
                stats.fail(exc)
                continue
            stats.call(n, "identify", clock() - t0)
            stats.done(n, len(log))
            self.outputs.keep(n, result, (result.params.distances, result.window_optima))
        stats.probe()
        if tracer is not None:
            tracer.op = stats.attempted
        t0 = clock()
        try:
            sweep = calibration.node_count_tradeoff(self.sweep_log, counts=range(1, 11))
        except Exception as exc:  # counted, reported, and the run goes on
            stats.fail(exc)
            return
        stats.call("sweep", "sweep", clock() - t0)
        stats.done("sweep", len(self.sweep_log))
        # the sweep's third column is its own wall-time measurement
        self.outputs.keep("sweep", sweep, tuple(row[:2] for row in sweep))

    def details(self, stats):
        identify = [stats.op_latency(n) for n in range(len(self.logs)) if n in stats.cycles]
        return [
            ("identify_s", statistics.median(identify) if identify else math.nan, "s"),
            ("sweep_s", stats.op_latency("sweep") if "sweep" in stats.cycles else math.nan, "s"),
            ("logs", len(identify), "count"),
            ("repeats", stats.rounds, "count"),
        ]

    @staticmethod
    def _recovery_errors(truth, recovered, flat):
        if flat:
            return [f"truth {truth}: cost landscape reported flat"]
        err = np.abs(np.asarray(recovered) - np.asarray(truth))
        if np.any(err > RECOVERY_TOL_M):
            return [f"truth {truth}: recovered {np.round(recovered, 3).tolist()}"]
        return []

    @staticmethod
    def _sweep_errors(sweep):
        errors = [row[1] for row in sweep]
        out = []
        if max(errors) != 1.0:
            out.append(f"normalised error peaks at {max(errors)!r}, not 1.0")
        for k, (a, b) in enumerate(zip(errors, errors[1:])):
            if b > a * 1.05 + 1e-12:
                out.append(f"error grows from {k + 1} to {k + 2} nodes: {a:.4f} -> {b:.4f}")
        return out

    def check(self):
        failures = self.outputs.errors()
        for n, (truth, _, _) in enumerate(self.logs):
            if n in self.outputs.first:
                result = self.outputs.first[n]
                failures += self._recovery_errors(truth, result.params.distances, result.flat_cost)
        if "sweep" in self.outputs.first:
            failures += self._sweep_errors(self.outputs.first["sweep"])
        return failures

    def self_check(self):
        """Corrupt one output per check, on the operations that ran."""
        missed = []
        n = next((n for n in range(len(self.logs)) if n in self.outputs.first), None)
        if n is not None:
            d = list(self.outputs.first[n].params.distances)
            d[0], d[1] = d[1], d[0]
            if not self._recovery_errors(self.logs[n][0], d, False):
                missed.append("recovery check missed swapped near and mid distances")
        if "sweep" in self.outputs.first:
            sweep = list(self.outputs.first["sweep"])
            sweep[1], sweep[-1] = sweep[-1], sweep[1]
            if not self._sweep_errors(sweep):
                missed.append("sweep check missed an error series out of order")
        return missed


def make(name, workdir):
    if name == "online-plan":
        return OnlinePlan()
    if name == "cohort-evaluate":
        return CohortEvaluate(workdir)
    if name == "identify-nodes":
        return IdentifyNodes()
    raise ValueError(f"unknown workload {name!r}")
