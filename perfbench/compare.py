"""Compare the benchmark records of two commits.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the untraced run records (`<workload>-seed<n>-trace0.json`,
as run.py leaves them in .perfbench_out/) of one commit.  For every
workload and end-to-end metric this prints each side's median and
quartiles and the change of the median, and flags a change worse than
the metric's bound in BENCHMARK.json.  Records made with different
kernel backends (`gkzflop.kernels.BACKEND`) are different programs: the
comparison is refused.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {metric: [values]}} and the set of backends seen."""
    values, backends = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        backends.add(rec["provenance"]["backend"])
        per = values.setdefault(rec["provenance"]["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return values, backends


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, base_backends = load(argv[0])
    new, new_backends = load(argv[1])
    backends = base_backends | new_backends
    if len(backends) > 1:
        sys.exit(f"refusing to compare runs of different kernel backends: "
                 f"{sorted(backends)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = 0
    print(f"{'workload':10s} {'metric':12s} {'base q1/med/q3':>26s} "
          f"{'new q1/med/q3':>26s} {'change':>8s}")
    for workload in sorted(set(base) & set(new)):
        for name, m in spec.items():
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            qb, qn = quartiles(b), quartiles(n)
            change = (qn[1] - qb[1]) / qb[1]
            if m["better"] == "higher":
                change = -change
            flag = "WORSE" if change > m["bound"] else ""
            worse += bool(flag)
            print(f"{workload:10s} {name:12s} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>26s} "
                  f"{'/'.join(f'{v:.4g}' for v in qn):>26s} "
                  f"{change:+8.1%} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
