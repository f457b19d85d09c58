"""Benchmark command for curvepath.

    python3 perfbench/run.py --workload online-plan --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the workload's inputs from the seed,
measures for about --seconds seconds in one process, checks every output
and prints the workload's figures, then one JSON line with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run measures once untraced and once
with spans around every layer call, and the metrics are per-layer counts
and times plus the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread: the benchmark is a single caller in one process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import logging
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-ups timed per run, after the measured pass and its memory reading.
# Each imports the program's own modules again and builds the inputs again;
# what it builds is discarded. Garbage is collected before each, so none is
# left over from the measured pass or an earlier sample, as in a fresh
# process.
SETUP_SAMPLES = 9
WORKLOADS = ("online-plan", "cohort-evaluate", "identify-nodes")


class _WarningCounter(logging.Handler):
    """Counts the program's log warnings instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def _import_program():
    """Import curvepath from the checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "curvepath" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no curvepath package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import curvepath
    import curvepath.calibration
    import curvepath.metrics  # noqa: F401  (layer modules the workloads call)
    elapsed = time.perf_counter() - t0
    if Path(curvepath.__file__).resolve().parent != (src / "curvepath").resolve():
        raise SystemExit(f"run.py: imported curvepath from {curvepath.__file__}, not from {src}")
    return elapsed


def _program_modules():
    return {n: m for n, m in sys.modules.items() if n == "curvepath" or n.startswith("curvepath.")}


def _reimport_program():
    """Import curvepath's modules again, with numpy and scipy staying
    loaded, then put the original modules back in place."""
    saved = _program_modules()
    for name in saved:
        del sys.modules[name]
    try:
        for name in ("curvepath", "curvepath.calibration", "curvepath.metrics"):
            importlib.import_module(name)
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _timed(fn, *args):
    """Calibrated duration of fn(*args) (see speed.py) and the raw one."""
    import speed

    before = speed.scale()
    t0 = time.perf_counter()
    fn(*args)
    raw = time.perf_counter() - t0
    return raw * 0.5 * (before + speed.scale()), raw


def _measure(workload, seconds=None, rounds=None, tracer=None):
    """Run whole rounds until `seconds` have passed or `rounds` are done."""
    from workloads import Stats

    stats = Stats()
    start = time.perf_counter()
    stats.probe()
    while True:
        workload.round(stats.rounds, stats, tracer)
        stats.probe()
        stats.rounds += 1
        if stats.rounds == rounds or (seconds is not None and time.perf_counter() - start >= seconds):
            break
    return stats


def main(argv=None):
    parser = argparse.ArgumentParser(description="curvepath benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_raw = _import_program()
    import workloads
    from tracer import Tracer

    warnings = _WarningCounter()
    program_log = logging.getLogger("curvepath")
    program_log.addHandler(warnings)
    program_log.propagate = False

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    outdir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, str(workdir))
        first_setup_raw = _timed(wl.setup, args.seed)[1]
        wl.warm()
        plain = _measure(wl, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times = []
        for _ in range(SETUP_SAMPLES):
            gc.collect()
            imp, imp_raw = _timed(_reimport_program)
            build, build_raw = _timed(workloads.make(args.workload, str(workdir)).setup, args.seed)
            setup_times.append((imp + build, imp_raw + build_raw))
        setup_s = statistics.median(t for t, _ in setup_times)
        passes = [plain]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                # the same rounds again, so traced minus untraced is the overhead
                traced = _measure(wl, rounds=plain.rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            passes.append(traced)
            layer = tracer.layer_metrics()
            spans = len(tracer.spans)
            outdir.mkdir(exist_ok=True)
            tracer.write(outdir / f"spans_{args.workload}_seed{args.seed}.csv")

        failures = wl.check()
        missed = wl.self_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    op_ms_mean = plain.op_ms_mean()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("  calibrated to the reference speed (speed.py); raw: fastest wall-clock repeat")
    print(f"  {'setup_s':<22}{setup_s:>14.4f} s        raw set-ups "
          + ", ".join(f"{r:.3f}" for _, r in setup_times)
          + f" s; first import {import_raw:.3f} s, first set-up {first_setup_raw:.3f} s")
    for name, value, unit in wl.details(plain):
        print(f"  {name:<22}{value:>14.4f} {unit}")
    print(f"  {'op_ms_mean':<22}{op_ms_mean:>14.4f} ms       raw {plain.op_ms_mean(raw=True):.4f} ms")
    print(f"  {'peak_rss_mb':<22}{peak_rss_mb:>14.4f} MB")
    print(f"  attempted {attempted}, failed {failed}, program warnings {warnings.count}")
    for p in passes:
        for err in p.errors:
            print(f"  failed operation: {err}", file=sys.stderr)
    for msg in failures[:20]:
        print(f"  CHECK FAILED: {msg}", file=sys.stderr)
    for msg in missed:
        print(f"  SELF-CHECK FAILED: {msg}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        metrics["trace.overhead_op_ms_mean"] = {"value": traced.op_ms_mean() - op_ms_mean, "unit": "ms"}
        metrics["trace.spans"] = {"value": spans, "unit": "count"}
        for name, m in metrics.items():
            print(f"  {name:<38}{m['value']:>16.4f} {m['unit']}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_ms_mean": {"value": op_ms_mean, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    correct = not failures and not missed and attempted > failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
