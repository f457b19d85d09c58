#!/usr/bin/env python3
"""Parity check between two versions of curvepath.

`write` runs the command line on fixed seeds and writes its canonical
outputs into a directory: two synthetic cohorts with their manifests, two
calibrations, one of them with node-distance optimisation and the
node-count sweep (without the fields that name the time or the log path,
and without the sweep's wall-time column), validation and estimation traces
with their replans, both case-study series and the evaluation reports of
both cohorts. `compare` checks two such directories file by file and
prints the largest deviation of each. `check` does the same for only the
files that its reference directory holds, such as the committed
scripts/parity_reference (the result files without the drive logs, traces
and replans).

    PYTHONPATH=src python scripts/parity.py write out/new
    PYTHONPATH=../parent/src python scripts/parity.py write out/parent
    python scripts/parity.py compare out/parent out/new
    python scripts/parity.py check scripts/parity_reference out/new

A change that moves a reference value regenerates the reference from a
fresh `write` (copy the files it holds) and states the `compare` output.

`write` imports curvepath from the Python path, so pointing PYTHONPATH at
another checkout's `src` (for example a `git worktree` of the parent
commit) writes that version's outputs; nothing is fetched.

`compare` requires equal file sets, headers, JSON structure, integers
(cycles, path ids, counts), booleans (replan gaps) and strings, and exits
with 1 otherwise. It names every value found in only one of two files
(an added or missing key) and still compares the values they share. Floats must agree within ABSOLUTE for lengths, angles
and slopes, and within RELATIVE of the largest magnitude of their column
(or JSON key) for every other quantity.
"""

import argparse
import json
import sys
from pathlib import Path

# column or JSON key -> absolute tolerance (metres, radians, seconds, slopes)
ABSOLUTE = dict.fromkeys(("t", "x", "y", "theta", "speed", "lane_width", "offset", "offsets", "c0", "c1",
                          "length"), 1e-9)
# every other float column or key, relative to its largest magnitude
RELATIVE = 1e-9


def write(out: Path) -> None:
    from curvepath.cli import main

    def run(*argv):
        if main([str(a) for a in argv]) != 0:
            raise SystemExit(f"curvepath {argv[0]} failed")

    print(f"writing with {sys.modules['curvepath'].__file__}")
    cohorts = {"s_curve": ("s-curve", 11, 30), "winding": ("winding", 5, 20)}
    for name, (scenario, seed, retrigger) in cohorts.items():
        run("synth", "--scenario", scenario, "--drivers", 2, "--seed", seed, "--sigma", 0.05,
            "--retrigger", retrigger, "--out-dir", out / name)
        run("evaluate", "--cohort", out / name / "cohort.json", "--out-dir", out / f"{name}_reports")
    # retrigger 7 reaches the log's end: calibration skips cycles, estimation records a gap
    log = out / "winding" / "driver_01.csv"
    calibration = out / "calibrate.json"
    run("calibrate", "--log", log, "--out", calibration, "--retrigger", 7)
    _drop_provenance(calibration)
    for mode in ("validation", "estimation"):
        run("simulate", "--log", log, "--gains", calibration, "--mode", mode, "--retrigger", 7,
            "--out-prefix", out / mode)
    run("case-study", "--log", log, "--gains", calibration, "--scenario", "winding", "--out-prefix",
        out / "case_study")
    # node distances and the sweep's errors come from thousands of composite fits
    distances = out / "calibrate_distances.json"
    sweep = out / "sweep.csv"
    run("calibrate", "--log", log, "--out", distances, "--optimize-distances", "--sweep-nodes",
        "--sweep-out", sweep)
    _drop_provenance(distances)
    _drop_column(sweep, "norm_planning_time")


def _drop_provenance(path: Path) -> None:
    """Remove the calibration fields that name the time and the log path."""
    payload = json.loads(path.read_text())
    del payload["provenance"]["timestamp"], payload["provenance"]["log_file"]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _drop_column(path: Path, name: str) -> None:
    """Remove one column, such as a wall-time measurement, from a CSV table."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    keep = [i for i, column in enumerate(rows[0]) if column != name]
    path.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in rows), encoding="utf-8")


def _value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _leaves(path: Path) -> list:
    """(location, name, value) of every CSV cell or JSON scalar, in file order."""
    if path.suffix == ".csv":
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        out = [("header", "header", lines[0])]
        for row, line in enumerate(lines[1:], start=1):
            out += [(f"row {row}", name, _value(cell)) for name, cell in zip(header, line.split(","))]
        return out

    def walk(node, name, where):
        if isinstance(node, dict) and node:
            for key in sorted(node):
                yield from walk(node[key], key, f"{where}/{key}")
        elif isinstance(node, list) and node:
            for i, item in enumerate(node):
                yield from walk(item, name, f"{where}/{i}")
        else:
            # a scalar, or an empty dict or list, which is a value of its own
            yield where, name, node

    return list(walk(json.loads(path.read_text(encoding="utf-8")), "", ""))


def compare_file(base: Path, new: Path) -> tuple[list[str], dict]:
    """Exact-match errors, and per float name (deviation, tolerance, kind)."""
    a, b = ({(where, name): value for where, name, value in _leaves(path)} for path in (base, new))
    only = [f"{where} {name}: only in {side}" for side, one, other in (("base", a, b), ("new", b, a))
            for where, name in one if (where, name) not in other]
    errors = []
    floats: dict = {}
    for (where, name), x in a.items():
        if (where, name) not in b:
            continue
        y = b[where, name]
        if type(x) is float and type(y) is float:
            floats.setdefault(name, []).append((x, y))
        elif type(x) is not type(y) or x != y:
            errors.append(f"{where} {name}: {x!r} against {y!r}")
    deviations = {}
    for name, pairs in floats.items():
        gap = max(abs(x - y) for x, y in pairs)
        if name in ABSOLUTE:
            deviations[name] = (gap, ABSOLUTE[name], "abs")
        else:
            scale = max(abs(x) for x, _ in pairs)
            deviations[name] = (gap / scale if scale else gap, RELATIVE, "rel")
    return only + errors[:5], deviations


def compare(base: Path, new: Path, base_files_only: bool = False) -> int:
    """Compare the files of two directories; with base_files_only, only the
    files base holds, each of which new must hold too."""
    names = sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
    others = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    differ = set(names) - others if base_files_only else set(names) ^ others
    failed = bool(differ)
    if failed:
        print(f"file sets differ: {sorted(map(str, differ))}")
    for name in names:
        if not (new / name).is_file():
            continue
        errors, deviations = compare_file(base / name, new / name)
        over = [k for k, (dev, tol, _) in deviations.items() if dev > tol]
        failed |= bool(errors or over)
        if deviations:
            worst = max(deviations, key=lambda k: deviations[k][0] / deviations[k][1])
            dev, tol, kind = deviations[worst]
            summary = f"largest {kind} deviation {dev:.2e} in {worst} (tolerance {tol:.0e})"
        else:
            summary = "no floats"
        verdict = "FAIL" if errors or over else "ok"
        print(f"{verdict:4s} {str(name):40s} {summary}")
        moved = [f"{k} {dev:.1e}" for k, (dev, _, _) in deviations.items() if dev]
        if moved:
            print(f"       {', '.join(moved)}")
        for line in errors + [f"{k}: {deviations[k][0]:.2e} over {deviations[k][1]:.0e}" for k in over]:
            print(f"       {line}")
    return int(failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("write", help="write the canonical outputs into a new directory")
    p.add_argument("out", type=Path)
    p = sub.add_parser("compare", help="compare two directories written by `write`")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    p = sub.add_parser("check", help="compare the files a reference directory holds with a directory written by `write`")
    p.add_argument("base", type=Path, metavar="reference")
    p.add_argument("new", type=Path)
    args = parser.parse_args()
    if args.mode == "write":
        if args.out.exists() and any(args.out.iterdir()):
            parser.error(f"{args.out} is not empty")
        write(args.out)
        return 0
    return compare(args.base, args.new, base_files_only=args.mode == "check")


if __name__ == "__main__":
    sys.exit(main())
