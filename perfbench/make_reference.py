"""Regenerate reference.json: the eps-independent outputs checked per job.

    python3 perfbench/make_reference.py

Stores, per fixture, the undeformed transform matrix from `gkzflop fm`
(the eps^0 value of the Laurent mode, which `verify` reports as
`laurent.entries` and `ac` must reproduce).  Run it only on a commit
whose outputs are known to be right; the benchmark's correctness check
is only as good as these values.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# Relative to the largest reference entry; the matrices are computed in
# double precision from exact data and reproduce to ~1e-15 here.
RTOL = 1e-9


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gkzflop import cli, report

    out = {"rtol": RTOL, "source": "gkzflop fm --fixture F (undeformed_limit)",
           "matrices": {}}
    for fixture, name in workloads.FIXTURE_NAMES.items():
        args = cli.build_parser().parse_args(["fm", "--fixture", fixture])
        status, rep = cli.run("fm", args)
        if status != 0:
            sys.exit(f"fm on {fixture} exited {status}")
        m = checks.matrix(json.loads(report.render(rep, "json")))
        out["matrices"][name] = [[[v.real, v.imag] for v in row] for row in m]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
