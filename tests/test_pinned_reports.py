"""Pinned reports: the transform, series and oracle paths may not move.

tests/data/oracle_reports.json holds, per fixture, the exit status and
the report without its timings of

    gkzflop oracle --fixture NAME --eps 1e-2 --eps 1e-3

and tests/data/command_reports.json holds the same, keyed
"COMMAND NAME", for the other jobs of JOBS: fm and ac at the same eps,
gamma-eval, dual-eval, inspect, box and essential at their defaults,
and verify at depth 0.  The jobs of CIRCUIT_JOBS are also pinned on the
circuit fixture of CIRCUIT (sectors of dimension 3, whose labels and
lifts carry the denominator 3), written to a temporary file; its
report's config names it CIRCUIT_NAME, not the file's path.  There
oracle runs at --y-abs 0.02, where its tails close.  The jobs of FLAG_JOBS, keyed by their command line, are
pinned with the exit status and error name each must end in: a line
left of a ratio pole, integrands that overflow, a divisor shift a eps
that overflows, a half-height too short for the tails, a half-height
whose node count is no finite float, one line placed by hand that
passes, verify at its default depth 2, whose battery's lines share
their factors, gamma-eval and dual-eval at --trunc 400, whose
deepest terms carry a power-of-two exponent past the float range, and
oracle with an explicit --depth, which it refuses.

Every field that is not a float must match exactly, and every float
within 1e-14 max(|v|, 1).  A change that moves a value on purpose
rewrites both files on a checkout it has checked by other means:

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

import json
import tempfile
from pathlib import Path

import pytest

from gkzflop import cli
from gkzflop.fixtures import write_fixture
from gkzflop.report import strip_timings
from support import circuit_fixture

ORACLE_PINS = Path(__file__).parent / "data" / "oracle_reports.json"
COMMAND_PINS = Path(__file__).parent / "data" / "command_reports.json"
FIXTURES = ("a1", "conifold")
EPS = ["--eps", "1e-2", "--eps", "1e-3"]
JOBS = {"oracle": EPS, "fm": EPS, "ac": EPS, "gamma-eval": [],
        "dual-eval": [], "verify": ["--depth", "0"], "inspect": [],
        "box": [], "essential": []}
COMMANDS = tuple(c for c in JOBS if c != "oracle")
CIRCUIT = (1, 1, 1, -3)
CIRCUIT_NAME = "circuit(1,1,1,-3)"
CIRCUIT_JOBS = {**{c: JOBS[c] for c in ("fm", "ac", "dual-eval", "inspect",
                                         "box", "essential", "verify")},
                "oracle": EPS + ["--y-abs", "0.02"]}
FLAG_JOBS = {
    "oracle a1 --contour-re -2.5": (2, "PoleRightOfLine"),
    "oracle conifold --eps 1e3": (1, "NonFiniteValue"),
    "oracle a1 --eps 9e307": (1, "NonFiniteValue"),
    "oracle conifold --eps 9e307": (1, "NonFiniteValue"),
    "oracle a1 --contour-t 300": (1, "NonFiniteValue"),
    "oracle a1 --contour-t 1e308": (2, "InfeasibleArgs"),
    "verify conifold --contour-t 1e308": (2, "InfeasibleArgs"),
    "verify a1 --contour-t 0.5": (1, "TailBoundViolated"),
    "oracle a1 --contour-re 0.5": (0, None),
    "verify a1 --depth 2": (0, None),
    "verify conifold --depth 2": (0, None),
    "gamma-eval a1 --trunc 400": (0, None),
    "dual-eval a1 --trunc 400": (0, None),
    "oracle a1 --depth 5": (2, "InputError"),
}
RTOL = 1e-14


def pinned_run(command, fixture, flags=None):
    """Exit status and stripped report of one pinned job.

    flags default to the command's flags in JOBS, or in CIRCUIT_JOBS on
    the circuit fixture.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = fixture
        if fixture == CIRCUIT_NAME:
            path = Path(tmp) / "circuit.txt"
            path.write_text(write_fixture(*circuit_fixture(CIRCUIT)))
        out = Path(tmp) / "report.json"
        if flags is None:
            flags = (CIRCUIT_JOBS if fixture == CIRCUIT_NAME
                     else JOBS)[command]
        status = cli.main([command, "--fixture", str(path), *flags,
                           "--out", str(out)])
        report = strip_timings(json.loads(out.read_text()))
    report["config"]["fixture"] = fixture
    return {"status": status, "report": report}


def mismatches(got, want, path="$"):
    """Paths where got departs from want beyond the pin's tolerance."""
    if isinstance(want, float) and not isinstance(want, bool):
        ok = isinstance(got, float) \
            and abs(got - want) <= RTOL * max(abs(want), 1.0)
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k],
                                                    f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if type(got) is type(want) and got == want \
        else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_oracle_report_matches_its_pin(fixture):
    pinned = json.loads(ORACLE_PINS.read_text())[fixture]
    assert pinned["status"] == 0 and pinned["report"]["body"]["pass"]
    assert mismatches(pinned_run("oracle", fixture), pinned) == []


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_report_matches_its_pin(command, fixture):
    pinned = json.loads(COMMAND_PINS.read_text())[f"{command} {fixture}"]
    assert pinned["status"] == 0 and pinned["report"]["body"]["pass"]
    assert mismatches(pinned_run(command, fixture), pinned) == []


@pytest.mark.parametrize("command", sorted(CIRCUIT_JOBS))
def test_circuit_report_matches_its_pin(command):
    pinned = json.loads(COMMAND_PINS.read_text())[f"{command} {CIRCUIT_NAME}"]
    assert pinned["status"] == 0 and pinned["report"]["body"]["pass"]
    assert pinned["report"]["config"]["fixture"] == CIRCUIT_NAME
    assert mismatches(pinned_run(command, CIRCUIT_NAME), pinned) == []


@pytest.mark.parametrize("job", sorted(FLAG_JOBS))
def test_flagged_report_matches_its_pin(job):
    status, error = FLAG_JOBS[job]
    pinned = json.loads(COMMAND_PINS.read_text())[job]
    assert pinned["status"] == status
    assert pinned["report"]["body"].get("error") == error
    command, fixture, *flags = job.split()
    assert mismatches(pinned_run(command, fixture, flags), pinned) == []


def test_pin_comparison_is_strict():
    want = {"a": [1.0, 1e-3, "x", 2, True], "b": {"c": 1e20}}
    assert mismatches(json.loads(json.dumps(want)), want) == []
    for path, bad in (
            ("$.a[0]", {"a": [1.0 + 2e-14, 1e-3, "x", 2, True]}),
            ("$.a[1]", {"a": [1.0, 1e-3 + 2e-14, "x", 2, True]}),
            ("$.a[3]", {"a": [1.0, 1e-3, "x", 2.0, True]}),
            ("$.a[4]", {"a": [1.0, 1e-3, "x", 2, 1]}),
            ("$.b.c", {"b": {"c": 1e20 * (1 + 2e-14)}})):
        got = {**want, **bad}
        assert [m.split(":")[0] for m in mismatches(got, want)] == [path]


if __name__ == "__main__":
    ORACLE_PINS.write_text(json.dumps(
        {f: pinned_run("oracle", f) for f in FIXTURES},
        sort_keys=True, indent=1) + "\n")
    jobs = [(c, f) for c in COMMANDS for f in FIXTURES] \
        + [(c, CIRCUIT_NAME) for c in CIRCUIT_JOBS]
    pins = {f"{c} {f}": pinned_run(c, f) for c, f in jobs}
    for job in FLAG_JOBS:
        command, fixture, *flags = job.split()
        pins[job] = pinned_run(command, fixture, flags)
    COMMAND_PINS.write_text(json.dumps(pins, sort_keys=True, indent=1)
                            + "\n")
