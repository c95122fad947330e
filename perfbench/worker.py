"""Child process of run.py: runs one workload's jobs and checks them.

Usage (run.py starts it with BLAS pools limited to one thread):

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 [--spans PATH]

One client, closed loop: the jobs of a pass run one at a time in a fixed
order, each driven through `gkzflop.cli.run` with arguments parsed by
`cli.build_parser()` and rendered by `report.render`, as `cli.main` does.
Passes repeat until S seconds have gone, at least once, and end early
if the next one might not end within --budget.
Each job's CPU time is scaled to the reference host speed by the
calibration chunks a profiling timer runs during it (calibrate.py).
With --trace 1 one more pass runs under the outside-in tracer.  The last
stdout line is a JSON object.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import calibrate  # noqa: E402  (sibling module; run as a script)
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import INTEGRAND, Tracer  # noqa: E402


class Runner:
    def __init__(self, cli, reporting, checker, probe):
        self.cli = cli
        self.reporting = reporting
        self.checker = checker
        self.probe = probe

    def run_job(self, command, argv):
        """(status, rendered report) as `gkzflop.cli.main` produces them."""
        args = self.cli.build_parser().parse_args(argv)
        status, rep = self.cli.run(command, args)
        return status, self.reporting.render(rep, args.format)

    def attempt(self, job_id, job, tracer=None):
        """Run and check one job: ((raw, scaled) CPU seconds, report, errors).

        The worker is one thread doing no I/O, so its thread CPU time is
        the job's cost; unlike wall time it does not count the periods
        when the host runs something else.  The scaled time also takes out
        the host's changes of speed (calibrate.py).
        """
        command, fixture, argv = job
        self.probe.sample()
        first = len(self.probe.samples) - 1
        t0 = time.thread_time()
        try:
            if tracer is None:
                status, text = self.run_job(command, argv)
            else:
                with tracer.job_span(job_id, f"job.{command}"):
                    status, text = self.run_job(command, argv)
            seconds = self.probe.job(first, t0, time.thread_time())
            return seconds, text, self.checker.check(command, fixture,
                                                     status, text)
        except (Exception, SystemExit):
            # A job that escapes the CLI's own error handling, or a report
            # the checks cannot read, is a failed job, not the end of the
            # benchmark.
            last = traceback.format_exc().strip().splitlines()[-1]
            return (self.probe.job(first, t0, time.thread_time()), "",
                    [f"{command} {fixture}: raised {last}"])

    def run_pass(self, jobs, tracer=None):
        self.checker.begin_pass()
        raw, times, errors, failed = [], [], [], 0
        for job_id, job in enumerate(jobs):
            (raw_s, seconds), _, errs = self.attempt(job_id, job, tracer)
            raw.append(raw_s)
            times.append(seconds)
            errors += errs
            failed += bool(errs)
        return {"raw": raw, "times": times, "errors": errors,
                "failed": failed}


def p2_start_check(runner):
    """inspect and fm on local P2, counted as two attempted jobs."""
    fixture = workloads.P2_FIXTURE
    errors, failed = [], 0
    for command, extra in (("inspect", checks.p2_inspect_errors),
                           ("fm", checks.p2_fm_errors)):
        _, text, errs = runner.attempt(
            -1, (command, fixture, [command, "--fixture", fixture]))
        errs = errs or extra(text)
        errors += errs
        failed += bool(errs)
    return {"times": [], "errors": errors, "failed": failed, "attempted": 2}


def per_layer(tracer, traced_s):
    """Flat {metric: value} from one traced pass."""
    agg = tracer.aggregate()
    out = {}
    for name, a in agg.items():
        out[f"{name}.calls"] = a["calls"]
        out[f"{name}.s"] = a["s"]
        out[f"{name}.self_s"] = a["self_s"]

    def calls(name):
        return agg.get(name, {"calls": 0})["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    out["rings.builds_per_sector"] = ratio(
        calls("rings.SectorAlgebra"), len(set(tracer.algebra_keys)))
    out["rings.distinct_sectors"] = len(set(tracer.algebra_keys))
    out["wall.integrand_calls_per_oracle"] = ratio(
        tracer.calls_under(INTEGRAND, "wall.mb_contour_oracle"),
        calls("wall.mb_contour_oracle"))
    out["kernels.calls_per_integrand"] = ratio(
        calls("kernels.recip_gamma_series"), calls(INTEGRAND))
    out["wall.residue_groups_per_sum"] = ratio(
        calls("wall.residue_at"), calls("wall.left_residue_sum"))
    out["trace.wall_s"] = traced_s
    # Spans times the cost of one: unlike traced minus untraced pass time,
    # this does not swing with the host's load.
    out["trace.spans"] = len(tracer.start)
    out["trace.overhead_s"] = len(tracer.start) * Tracer.span_cost_s()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="write the traced pass's spans here (.npz)")
    ap.add_argument("--budget", type=float, default=math.inf,
                    help="wall seconds this process may take in all")
    opts = ap.parse_args(argv)
    began = time.perf_counter()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    from gkzflop import cli, kernels
    from gkzflop import report as reporting

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    probe = calibrate.Probe(workloads.CALIBRATION[opts.workload])
    runner = Runner(cli, reporting, checks.OutputChecker(reference), probe)
    jobs = workloads.jobs(opts.workload, opts.seed)

    start = {"attempted": 0, "errors": [], "failed": 0}
    if workloads.P2_FIXTURE in workloads.fixtures(opts.workload):
        start = p2_start_check(runner)

    # Passes repeat for --seconds, but no new pass starts unless it, the
    # traced pass and a margin of one more fit in --budget at the speed
    # of the last pass: on a host that slows down a lot, the run still
    # ends in time, with fewer passes.
    passes = []
    probe.start()
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(runner.run_pass(jobs))
        now = time.perf_counter()
        if (now - t0 >= opts.seconds or
                now - began + (now - p0) * (2 + opts.trace) > opts.budget):
            break
    probe.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers, absent = None, []
    if opts.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        layers = per_layer(tracer, sum(traced["raw"]))
        absent = tracer.absent
        if opts.spans:
            tracer.save(opts.spans)

    attempted = start["attempted"] + sum(len(p["times"]) for p in passes)
    failed = start["failed"] + sum(p["failed"] for p in passes)
    errors = start["errors"] + [e for p in passes for e in p["errors"]]
    print(json.dumps({
        "passes": [p["times"] for p in passes[:len(passes) - opts.trace]],
        "raw_passes": [p["raw"] for p in passes[:len(passes) - opts.trace]],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_kb": peak_rss_kb,
        "chunk_s": statistics.median(c for _, _, c in probe.samples),
        "chunks": len(probe.samples),
        "per_layer": layers,
        "absent": absent,
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }))


if __name__ == "__main__":
    main()
