"""Job lists of the three benchmark workloads, drawn from a seed.

A job is one CLI invocation: a subcommand and the argv that
`gkzflop.cli.build_parser()` parses for it.  The seed only draws the
deformation samples (`--eps`); everything else is fixed so that later
changes can cite the workloads by name.
"""

import math
import random

P2_FIXTURE = "perfbench/fixtures/local_p2.txt"
FIXTURE_NAMES = {"a1": "a1", "conifold": "conifold", P2_FIXTURE: "p2"}

EPS_RANGE = (1e-3, 1e-2)
EPS_COUNT = {"verify": 3, "oracle": 2, "fm": 2}   # ac shares fm's samples

TRANSFORM_COMMANDS = ("fm", "ac")
SERIES_COMMANDS = ("gamma-eval", "dual-eval")

WORKLOADS = ("crossing", "oracle", "algebra")

# The kind of calibration chunk whose time scales each workload's times
# (calibrate.py).
CALIBRATION = {"crossing": "gamma", "oracle": "gamma", "algebra": "rational"}


def draw_eps(rng, count):
    """`count` distinct samples, log-uniform on EPS_RANGE, as flag text."""
    lo, hi = (math.log(v) for v in EPS_RANGE)
    out = []
    while len(out) < count:
        text = f"{math.exp(rng.uniform(lo, hi)):.2e}"
        if text not in out:
            out.append(text)
    return out


def _argv(command, fixture, eps):
    argv = [command, "--fixture", fixture]
    for e in eps:
        argv += ["--eps", e]
    return argv


def jobs(workload, seed):
    """Ordered [(command, fixture, argv)] for one pass of the workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("crossing", "oracle"):
        command = "verify" if workload == "crossing" else "oracle"
        eps = draw_eps(rng, EPS_COUNT[command])
        return [(command, f, _argv(command, f, eps))
                for f in ("a1", "conifold")]
    eps = draw_eps(rng, EPS_COUNT["fm"])
    out = []
    for fixture in ("a1", "conifold", P2_FIXTURE):
        for command in ("fm", "ac", "gamma-eval", "dual-eval"):
            # Local P2 lies outside the hard-coded |y| = 0.1 endpoint's
            # convergence radius (1/27): gamma-eval exits 1 there.
            if command == "gamma-eval" and fixture == P2_FIXTURE:
                continue
            job_eps = eps if command in TRANSFORM_COMMANDS else []
            out.append((command, fixture, _argv(command, fixture, job_eps)))
    return out


def fixtures(workload):
    """Fixtures the workload loads, in first-use order."""
    seen = []
    for _, fixture, _ in jobs(workload, 0):
        if fixture not in seen:
            seen.append(fixture)
    return seen
