#!/usr/bin/env python3
"""Node-count trade-off: midline fitting error versus planning time.

Fits paths through 1..10 equidistant midline node points at every replan of
a synthetic S-curve drive and prints both indicators normalised by their
maxima.
"""

import argparse

from curvepath.calibration import SWEEP_HEADER, node_count_tradeoff
from curvepath.planner import GainMatrix
from curvepath.simulate import (
    SyntheticDriverSpec,
    build_scenario_road,
    generate_synthetic_driver_log,
    s_curve_scenario,
    write_csv,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-count", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="optional CSV output path")
    args = parser.parse_args()

    road = build_scenario_road(s_curve_scenario())
    driver = SyntheticDriverSpec(gains_true=GainMatrix.zeros(), seed=2)
    log = generate_synthetic_driver_log(road, driver)
    sweep = node_count_tradeoff(log, counts=range(1, args.max_count + 1), repeats=args.repeats)

    print(f"{'nodes':>5} {'norm error':>12} {'norm time':>12}")
    for count, err, elapsed in sweep:
        print(f"{count:>5} {err:>12.4f} {elapsed:>12.4f}")
    print(f"skipped replans without a valid corridor: {sweep.skipped_replans}")

    if args.out:
        write_csv(args.out, SWEEP_HEADER, list(zip(*sweep)))
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
