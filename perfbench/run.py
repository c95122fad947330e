"""Benchmark of the gkzflop crossing battery, end to end and per layer.

    python3 perfbench/run.py --workload crossing|oracle|algebra \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's jobs run in one
child process (worker.py), one at a time, with BLAS pools limited to one
thread.  With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 the per-layer metrics, taken
from one extra traced pass.  Every job's output is checked; the exit
status is 1 if any job failed.  Each run also leaves a record with its
provenance in .perfbench_out/ (compare records with compare.py).
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_STARTS = 10
# A round number below the CPU seconds of SETUP_BASE, which read
# 0.13-0.18 s on a 2-vCPU sandbox (Python 3.11, numpy 2.4).
SETUP_BASE_S = 0.1
DEADLINE_S = 170.0
# Wall seconds kept back from the worker's budget for its start and exit.
WORKER_MARGIN_S = 10.0
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS")}
SETUP_BASE = "import numpy\n"
SETUP_PROBE = ("import sys\n"
               "import gkzflop.cli as cli\n"
               "for f in sys.argv[1:]:\n"
               "    cli.load_fixture(f)\n")


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ, **SINGLE_THREAD)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def children_cpu_s():
    """(user, system) CPU seconds of the waited-for children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime, usage.ru_stime


def cpu_of_child(code, args=()):
    """User + system CPU seconds of a fresh interpreter running `code`."""
    user0, sys0 = children_cpu_s()
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    user1, sys1 = children_cpu_s()
    if proc.returncode != 0:
        raise BenchmarkError(f"setup probe failed:\n{proc.stderr}")
    return (user1 - user0) + (sys1 - sys0)


def measure_setup(fixtures, starts):
    """(base, raw, scaled) CPU times of fresh interpreters.

    Each start is timed by its user + system CPU time.  Before each one a
    base interpreter that only imports numpy is timed the same way; the
    program cannot change it.  Each start is scaled by SETUP_BASE_S over
    its base: it reads as CPU seconds on a host where the base takes
    SETUP_BASE_S.  The base is the same kind of work as most of a start
    (exec, imports of compiled modules, page faults), so it tracks the
    host's speed for it better than a chunk of work in one process can.
    """
    base, raw = [], []
    for _ in range(starts):
        base.append(cpu_of_child(SETUP_BASE))
        raw.append(cpu_of_child(SETUP_PROBE, fixtures))
    return base, raw, [t * SETUP_BASE_S / b for t, b in zip(raw, base)]


def run_worker(opts, spans_path, deadline):
    left = max(deadline - time.monotonic(), 1.0)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds), "--trace", str(opts.trace),
           "--budget", f"{left - WORKER_MARGIN_S:.1f}"]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker still running after {left:.0f} s; "
                             f"stopped") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    """sha256 over the program's and the benchmark's source files."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(
                ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def end_to_end(jobs, res, setup_s):
    """One pass, as the sum over its jobs of each job's median time."""
    kinds = [command for command, _, _ in jobs]
    job_s = [statistics.median(ts) for ts in zip(*res["passes"])]

    def part(commands):
        # Workloads with no job of the kind report the whole pass.
        picked = [t for t, c in zip(job_s, kinds) if c in commands]
        return sum(picked) if picked else sum(job_s)

    return {"setup_s": setup_s,
            "wall_s": sum(job_s),
            "transform_s": part(workloads.TRANSFORM_COMMANDS),
            "series_s": part(workloads.SERIES_COMMANDS),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0}


def counts_repeat(opts, per_layer, digest):
    """Errors if this traced run's counts differ from an earlier one's.

    Runs with the same workload, seed and source must count the same
    calls at every boundary; the first such run stores its counts.
    """
    counts = {k: v for k, v in per_layer.items()
              if k.endswith(".calls") or k == "rings.distinct_sectors"}
    path = os.path.join(OUT_DIR, f"counts-{opts.workload}-seed{opts.seed}"
                                 ".json")
    if os.path.exists(path):
        with open(path) as fh:
            prev = json.load(fh)
        if prev["source"] == digest:
            return [f"count {k} = {counts.get(k)} differs from an earlier "
                    f"run's {prev['counts'].get(k)}"
                    for k in sorted(set(counts) | set(prev["counts"]))
                    if counts.get(k) != prev["counts"].get(k)]
    with open(path, "w") as fh:
        json.dump({"source": digest, "counts": counts}, fh, sort_keys=True)
    return []


def main(argv=None):
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gkzflop", "cli.py")):
        sys.exit("perfbench: no gkzflop sources under src/; run from the "
                 "root of a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    spans_path = os.path.join(OUT_DIR, f"spans-{tag}.npz") \
        if opts.trace else None

    # One CPU for this process and every child: the start interpreters of
    # setup_s then run where their base interpreters ran (the host's slow
    # state need not hit both vCPUs at once).
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})

    jobs = workloads.jobs(opts.workload, opts.seed)
    fixtures = workloads.fixtures(opts.workload)
    setup_base, setup_raw, setup = measure_setup(fixtures, SETUP_STARTS)
    setup_s = statistics.median(setup)
    res = run_worker(opts, spans_path, deadline)
    digest = source_digest()
    errors = list(res["errors"])
    if opts.trace:
        errors += counts_repeat(opts, res["per_layer"], digest)
        values, listed = res["per_layer"], spec["per_layer"]
    else:
        values, listed = end_to_end(jobs, res, setup_s), spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in listed}

    provenance = {
        "workload": opts.workload, "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace,
        "commit": commit_id(), "source_sha256": digest,
        "backend": res["backend"], "python": res["python"],
        "numpy": res["numpy"], "nproc": os.cpu_count(),
        "affinity": len(allowed), "cpu": min(allowed),
        "argv": [argv for _, _, argv in jobs], "passes": len(res["passes"]),
        "chunk_s": res["chunk_s"], "chunks": res["chunks"],
        "absent": res["absent"],
    }
    result = {"correct": not errors and res["failed"] == 0,
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump({"provenance": provenance, "result": result,
                   "pass_times": res["passes"],
                   "raw_pass_times": res["raw_passes"],
                   "raw_setup_times": setup_raw,
                   "setup_base_times": setup_base, "errors": errors,
                   "all_per_layer": res["per_layer"]}, fh, indent=1)

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for err in errors:
        print(f"FAIL {err}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':40s} {res['failed'] / res['attempted']:>14.6g} "
          f"ratio ({res['failed']}/{res['attempted']} jobs)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: {exc}")
