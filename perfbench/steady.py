"""Steadiness check: two interleaved sets of benchmark runs.

    python3 perfbench/steady.py --runs 10

Run from the repository root. For i in 1..runs it runs every workload of
BENCHMARK.json once for set A (seed i) and once for set B (seed 1000 + i),
with BENCHMARK.json's run_seconds, alternating which set goes first, one
run at a time. It then prints, per workload and end-to-end metric, each
set's median and quartiles, each set's spread (interquartile distance over
the median), and how much worse set B's median is than set A's. A metric
passes when both spreads and the drift stay within its bound from
BENCHMARK.json; a workload passes when every metric does and both sets fail the same share
of operations. Exit code 0 when everything passes, 1 otherwise. Raw
results go to .perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = {w: {"A": [], "B": []} for w in names}
    for i in range(1, args.runs + 1):
        order = (("A", i), ("B", 1000 + i)) if i % 2 else (("B", 1000 + i), ("A", i))
        for label, seed in order:
            for w in names:
                r = run_once(w, seed, bench["run_seconds"])
                results[w][label].append(r)
                print(f"set {label} seed {seed:>4} {w:<16} wall {r['wall_s']:6.1f} s  correct {r['correct']}  "
                      + "  ".join(f"{k}={m['value']:.4f}" for k, m in r["metrics"].items()), flush=True)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print()
    print(f"{'workload':<16} {'metric':<13} {'set A median [q1, q3]':>34} {'set B median [q1, q3]':>34}"
          f" {'sprA':>6} {'sprB':>6} {'drift':>6} {'bound':>6}  verdict")
    for w in names:
        runs_a, runs_b = results[w]["A"], results[w]["B"]
        correct = all(r["correct"] for r in runs_a + runs_b)
        shares = {label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for label, rs in (("A", runs_a), ("B", runs_b))}
        for m in bench["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs_a]
            b = [r["metrics"][m["name"]]["value"] for r in runs_b]
            qa1, ma, qa3, sa = spread(a)
            qb1, mb, qb3, sb = spread(b)
            drift = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            steady = sa <= m["bound"] and sb <= m["bound"]
            agree = drift <= m["bound"]
            ok &= steady and agree
            verdict = "ok" if steady and agree else ("SPREAD" if not steady else "DRIFT")
            print(f"{w:<16} {m['name']:<13} {ma:>12.4f} [{qa1:>9.4f}, {qa3:>9.4f}] {mb:>12.4f} [{qb1:>9.4f}, {qb3:>9.4f}]"
                  f" {sa:6.3f} {sb:6.3f} {drift:+6.3f} {m['bound']:6.3f}  {verdict}")
        same_share = shares["A"] == shares["B"]
        ok &= correct and same_share
        print(f"{w:<16} correct in every run: {correct}; failed share A {shares['A']:.6f}, B {shares['B']:.6f}"
              f"{'' if same_share else '  MISMATCH'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
