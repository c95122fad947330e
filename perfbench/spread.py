"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py WORKLOAD...

Runs run.py once for each of the seeds 1-10 (untraced, with
BENCHMARK.json's run_seconds) and prints, per metric, the median of the
runs and the distance between the first and third quartiles as a share
of the median.  A spread at or above a third of the metric's bound is
flagged: the benchmark is not steady enough to resolve that bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    opts = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    unsteady = 0
    for workload in opts.workloads:
        values = {}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  UNSTEADY"
            unsteady += bool(flag)
            print(f"{workload:9s} {m['name']:12s} median {med:10.4g} "
                  f"{m['unit']:3s} spread {spread:6.1%} "
                  f"(bound {m['bound']:.0%}){flag}", flush=True)
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
