"""Command-line front end: reports, exit codes, determinism."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gkzflop import cli, kernels, rational, rings, series, wall
from gkzflop import report as reporting
from gkzflop.deform import DeformationRing, EpsSeries
from gkzflop.fixtures import load_fixture, write_fixture
from gkzflop.toric import compute_box, find_circuit
from support import TRAPEZOID, circuit_fixture, subparser_reference


def run_cli(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    status = cli.main(list(argv) + ["--out", str(out)])
    return status, json.loads(out.read_text())


def test_inspect(tmp_path):
    status, rep = run_cli(["inspect", "--fixture", "a1"], tmp_path)
    assert status == 0
    assert rep["schema"] == 1
    assert rep["kind"] == "inspect"
    body = rep["body"]
    assert body["circuit"]["h"] == [1, -2, 1]
    assert body["circuit"]["I_minus"] == [2]
    assert all(v["total"] == 2 for v in body["sector_dims"].values())


def test_box_lists_both_sectors(tmp_path):
    status, rep = run_cli(["box", "--fixture", "a1"], tmp_path)
    assert status == 0
    minus = rep["body"]["minus"]
    coords = {tuple(e["coords"]) for e in minus}
    assert coords == {("0", "0", "0"), ("1/2", "0", "1/2")}
    twisted = next(e for e in minus if e["coords"] == ["1/2", "0", "1/2"])
    assert twisted["point"] == [1, 1]
    assert len(rep["body"]["plus"]) == 1


def test_reports_deterministic_after_stripping_timings(tmp_path):
    _, rep1 = run_cli(["box", "--fixture", "conifold"], tmp_path, "r1.json")
    _, rep2 = run_cli(["box", "--fixture", "conifold"], tmp_path, "r2.json")
    t1 = reporting.render_json(reporting.strip_timings(rep1))
    t2 = reporting.render_json(reporting.strip_timings(rep2))
    assert t1 == t2
    assert rep1["timings"]["total_s"] >= 0.0


def test_text_format(tmp_path):
    out = tmp_path / "r.txt"
    status = cli.main(["essential", "--fixture", "a1", "--format", "text",
                       "--out", str(out)])
    assert status == 0
    text = out.read_text()
    assert "essential" in text
    assert "pass" in text.lower()


def test_unknown_triangulation_label_is_input_error(tmp_path):
    status, rep = run_cli(["box", "--fixture", "a1", "--plus", "nope"],
                          tmp_path)
    assert status == 2
    assert rep["body"]["error"] == "InputError"
    assert "nope" in rep["body"]["message"]


def test_malformed_fixture_is_input_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("rank 2\npoints\n0 1\nbogus\n")
    status, rep = run_cli(["inspect", "--fixture", str(bad)], tmp_path)
    assert status == 2
    assert rep["body"]["error"] == "ParseError"


def test_duplicate_eps_rejected(tmp_path):
    status, rep = run_cli(["fm", "--fixture", "a1", "--eps", "1e-2",
                           "--eps", "1e-2"], tmp_path)
    assert status == 2
    assert "distinct" in rep["body"]["message"]


def test_nonfinite_contour_re_rejected(tmp_path):
    status, rep = run_cli(["oracle", "--fixture", "a1", "--contour-re", "inf"],
                          tmp_path)
    assert status == 2
    assert "--contour-re" in rep["body"]["message"]


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("value", ["1e9", "-1e9"])
@pytest.mark.parametrize("fixture", ["a1", "conifold"])
def test_far_contour_re_ends_before_the_kernel(tmp_path, monkeypatch,
                                               command, value, fixture):
    # the first line's Gamma arguments reach Re z ~ -1e9 on either side;
    # the kernel's shift loop once took one pass per unit of |Re z|, and
    # now the line is refused before any 1/Gamma is evaluated
    def never(z, kmax):
        raise AssertionError("the kernel was called")
    monkeypatch.setattr(kernels, "recip_gamma_series", never)
    status, rep = run_cli([command, "--fixture", fixture,
                           f"--contour-re={value}"], tmp_path)
    assert status == 1
    assert rep["body"]["error"] == "NonFiniteValue"
    assert "1/Gamma overflows" in rep["body"]["message"]


@pytest.mark.parametrize("height,error", [
    ("nan", "InputError"), ("inf", "InputError"), ("-1", "InputError"),
    # finite, but the trapezoid step would need 458,368 nodes on a line
    ("1e4", "InfeasibleArgs"),
])
def test_contour_t_out_of_range_rejected(tmp_path, height, error):
    status, rep = run_cli(["oracle", "--fixture", "a1", "--contour-t",
                           height], tmp_path)
    assert status == 2
    assert rep["body"]["error"] == error


@pytest.mark.parametrize("command", ["oracle", "verify", "gamma-eval",
                                     "dual-eval"])
@pytest.mark.parametrize("flag,value", [
    ("--amp", "nan"), ("--amp", "inf"), ("--y-abs", "nan"),
    ("--y-abs", "inf")])
def test_nonfinite_endpoint_flags_rejected(tmp_path, command, flag, value):
    status, rep = run_cli([command, "--fixture", "conifold", "--depth", "0",
                           flag, value], tmp_path)
    assert status == 2
    assert rep["body"]["error"] == "InputError"
    assert flag in rep["body"]["message"]


@pytest.mark.parametrize("command", ["oracle", "verify", "gamma-eval"])
@pytest.mark.parametrize("flag,value", [
    # y_abs^2 is 0.0, then subnormal with an infinite reciprocal
    ("--y-abs", "1e-300"), ("--y-abs", "1e-160"),
    # exp(amplitude * |h|^2) = exp(800) overflows
    ("--amp", "200")])
def test_endpoints_outside_the_float_range_rejected(tmp_path, command, flag,
                                                    value):
    status, rep = run_cli([command, "--fixture", "conifold", "--depth", "0",
                           flag, value], tmp_path)
    assert status == 2
    assert rep["body"]["error"] == "InfeasibleArgs"


@pytest.mark.parametrize("command", ["oracle", "fm"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_eps_rejected(tmp_path, command, value):
    status, rep = run_cli([command, "--fixture", "a1", "--eps", value],
                          tmp_path)
    assert status == 2
    assert rep["body"]["error"] == "InputError"
    assert "--eps" in rep["body"]["message"]


@pytest.mark.parametrize("argv", [
    ["fm", "--fixture", "conifold", "--eps", "1e10"],
    ["oracle", "--fixture", "a1", "--eps", "1e300"],
    ["verify", "--fixture", "a1", "--eps", "1e300", "--depth", "0"]])
def test_eps_whose_exp_overflows_is_a_report(tmp_path, argv):
    # finite, but e^(a_j eps) leaves the float range in a sector algebra
    status, rep = run_cli(argv, tmp_path)
    assert status == 1
    assert rep["body"]["error"] == "NonFiniteValue"


def test_oracle_sums_orbit_terms_past_the_factorial_overflow(tmp_path):
    # the right pole sum of (1,1,1,1,1,1,-6) runs to m = 30, where
    # l_7 = -180 and the term's 1/Gamma product reaches 179!: it is
    # finite, the check passes and numpy has nothing to warn about
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture((1, 1, 1, 1, 1, 1, -6))))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gkzflop", "oracle", "--fixture", str(path),
         "--y-abs", "1e-5"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == 0
    checks = json.loads(proc.stdout)["body"]["checks"]
    assert checks and all(math.isfinite(c["right_dev"]) for c in checks)


@pytest.mark.parametrize("fixture", ["a1", "conifold"])
def test_overflowing_integrand_fails_without_warnings(fixture):
    # at eps = 1e3 the line integrand overflows: a NonFiniteValue report,
    # and no numpy warning on stderr from the kernel or the products
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gkzflop", "oracle", "--fixture", fixture,
         "--eps", "1e3"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["body"]["error"] == "NonFiniteValue"


def test_oracle_searches_generators_within_trunc(tmp_path):
    # the twisted sector's orbit generator of (1,2,-3) has degree 3, so
    # --trunc 2 finds the untwisted one alone
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture((1, 2, -3))))
    found = {}
    for trunc in (["--trunc", "2"], []):
        status, rep = run_cli(["oracle", "--fixture", str(path), *trunc],
                              tmp_path)
        assert status == 0, rep["body"]
        found[len(trunc)] = {(c["sector"], tuple(c["lprime"]))
                             for c in rep["body"]["checks"]}
    assert found[2] == {("(0,0,0)", ("0", "0", "0"))}
    assert found[0] == found[2] | {("(1/2,0,1/2)", ("1/2", "1", "-3/2"))}


# a value other than the default for every flag that takes one
FLAG_VALUES = {"--fixture": "conifold", "--plus": "minus", "--minus": "plus",
               "--trunc": "7", "--eps": "3e-3", "--contour-t": "9.5",
               "--contour-re": "0.75", "--amp": "2.0", "--y-abs": "0.05",
               "--depth": "1", "--out": "r.json", "--format": "text"}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_flat_parser_reads_what_the_subparsers_read(command, capsys):
    flat, reference = cli.build_parser(), subparser_reference()
    every = [token for pair in FLAG_VALUES.items() for token in pair]
    for flags in ([], *map(list, FLAG_VALUES.items()),
                  every + ["--eps", "4e-3"]):
        want = vars(reference.parse_args([command, *flags]))
        assert vars(flat.parse_args([command, *flags])) == want
        # the flags may also come before the command
        assert vars(flat.parse_args([*flags, command])) == want
    for parser in (flat, reference):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "-h"])
        assert exc.value.code == 0


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (help_text, _) in cli.COMMANDS.items():
        assert [name, help_text] in [line.split(None, 1) for line in lines]


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nope", "--fixture", "a1"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--eps", "-1e-3"), ("--eps", "-2.5E-3"), ("--contour-re", "-1e0")])
def test_negative_value_with_an_exponent_parses(flag, value):
    parser = cli.build_parser()
    assert vars(parser.parse_args(["fm", flag, value])) \
        == vars(parser.parse_args(["fm", f"{flag}={value}"]))


def test_flag_as_eps_value_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["fm", "--eps", "-x"])
    assert exc.value.code == 2
    assert "--eps: expected one argument" in capsys.readouterr().err


def test_one_hnf_of_the_points_per_job(tmp_path, monkeypatch):
    # the points' lattice is built once and read by every later step
    points = [list(v) for v in load_fixture("conifold")[0].points]
    seen = []
    real = rational._hnf_full

    def spy(m):
        seen.append(m == points)
        return real(m)
    monkeypatch.setattr(rational, "_hnf_full", spy)
    status, _ = run_cli(["fm", "--fixture", "conifold"], tmp_path)
    assert status == 0
    assert seen.count(True) == 1


def test_bad_trunc_rejected(tmp_path):
    status, rep = run_cli(["gamma-eval", "--fixture", "a1", "--trunc", "0"],
                          tmp_path)
    assert status == 2


@pytest.mark.parametrize("command", ["fm", "ac", "verify", "oracle"])
def test_swapped_crossing_names_the_fixed_offsets(tmp_path, command):
    # with the sides swapped, index 1 of a1 is on the negative side and
    # the fixed offsets 0, 1, 2 give it offset 0
    status, rep = run_cli([command, "--fixture", "a1", "--plus", "minus",
                           "--minus", "plus"], tmp_path)
    assert status == 2
    assert rep["body"]["error"] == "InfeasibleArgs"
    assert "fixed deformation offsets" in rep["body"]["message"]
    assert "cannot separate the poles" in rep["body"]["message"]


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_moved_line_splits_the_orbit_where_it_integrates(tmp_path, command):
    # Re s = 1.5 is clear, one step right of the default line: the term
    # at m = 1 must be restored, not left to the line integral
    for fixture in ("a1", "conifold"):
        status, rep = run_cli([command, "--fixture", fixture, "--depth", "0",
                               "--contour-re", "1.5"], tmp_path)
        assert status == 0, (fixture, rep["body"])


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_line_left_of_a_ratio_pole_is_input_error(tmp_path, command):
    for fixture in ("a1", "conifold"):
        status, rep = run_cli([command, "--fixture", fixture, "--depth", "0",
                               "--contour-re", "-0.5"], tmp_path)
        assert status == 2, (fixture, rep["body"])
        assert rep["body"]["error"] == "PoleRightOfLine"
        assert "the largest at s = 0" in rep["body"]["message"]


@pytest.mark.parametrize("h, flags", [
    ((2, 3, -3, -2), []),                 # poles 1/6 apart
    ((1, 4, -5), ["--y-abs", "0.02"]),    # poles 1/5 apart
], ids=["h=2,3,-3,-2", "h=1,4,-5"])
def test_residue_circles_fit_between_close_poles(tmp_path, h, flags):
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture(h)))
    status, rep = run_cli(["oracle", "--fixture", str(path), "--eps", "1e-2",
                           *flags], tmp_path)
    assert status == 0, rep["body"]


def ladder_case(h, y_abs=None, defect=None):
    """One circuit of the ladder; a known defect is a strict xfail."""
    flags = ["--y-abs", y_abs] if y_abs else []
    marks = [pytest.mark.xfail(strict=True, reason=defect)] if defect else []
    name = "h=" + ",".join(map(str, h)) + (f"-y={y_abs}" if y_abs else "")
    return pytest.param(h, flags, marks=marks, id=name)


@pytest.mark.parametrize("h, flags", [
    ladder_case((1, 1, -2)),
    ladder_case((1, 1, 1, -3)),
    ladder_case((1, 2, -3)),
    ladder_case((1, 1, 1, -1, -2)),
    ladder_case((2, 3, -3, -2)),
    ladder_case((1, 1, 1, -1, -1, -1)),
    # the discriminant sits at |y| = 1/256
    ladder_case((1, 1, 1, 1, -4), "0.002"),
    # sectors whose support sigma has nonzero classes: end_to_end reads
    # 0.21, 0.60 and 0.145 when those classes are taken as zero
    ladder_case((1, 1, 1, 1, -2, -2), "0.01"),
    ladder_case((2, 2, -1, -3), "0.005"),
    ladder_case((2, 2, -2, -1, -1), "0.005"),
    ladder_case((1, 2, -1, -2), None,
                "ROADMAP item 2: vacuous, end_to_end max_dev 0.0"),
])
def test_circuit_ladder_crossing(tmp_path, h, flags):
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture(h)))
    status, rep = run_cli(["verify", "--fixture", str(path), "--depth", "0",
                           *flags], tmp_path)
    assert status == 0, rep["body"]
    assert rep["body"]["end_to_end"]["max_dev"] > 0


INVALID_FIXTURES = {
    # point 2 has degree 2
    "NonUnitDegree": "rank 2\n0 1\n1 2\n2 1\ndeg 0 1\n"
                     "triangulation plus\n1 2\n2 3\n"
                     "triangulation minus\n1 3\n",
    # the one plus cone {1,2} does not cover the cone of the points
    "NotATriangulation": "rank 2\n0 1\n1 1\n2 1\ndeg 0 1\n"
                         "triangulation plus\n1 2\n"
                         "triangulation minus\n1 3\n",
    # the points span a sublattice of index 3
    "SublatticeIndex": "rank 3\n0 0 1\n3 0 1\n0 3 1\n1 1 1\ndeg 0 0 1\n"
                       "triangulation plus\n1 2 4\n2 3 4\n1 3 4\n"
                       "triangulation minus\n1 2 3\n",
}


@pytest.mark.parametrize("error", sorted(INVALID_FIXTURES))
def test_every_command_validates_the_fixture(tmp_path, error):
    path = tmp_path / "bad.txt"
    path.write_text(INVALID_FIXTURES[error])
    for command in cli.COMMANDS:
        status, rep = run_cli([command, "--fixture", str(path)], tmp_path)
        assert status == 2, (command, rep["body"])
        assert rep["body"]["error"] == error, command


def test_tail_bound_violation_is_runtime_failure(tmp_path):
    status, rep = run_cli(["oracle", "--fixture", "a1", "--contour-t", "3.0",
                           "--eps", "1e-2"], tmp_path)
    assert status == 1
    assert rep["body"]["error"] == "TailBoundViolated"


@pytest.mark.parametrize("batched", [False, True],
                         ids=["series-value", "quadrature-node"])
def test_nan_kernel_value_never_passes(tmp_path, monkeypatch, batched):
    # one NaN coefficient, in the first series call (verify evaluates its
    # series at eps = 0, on the real axis) or in the first node of the
    # first quadrature call (nodes off the real axis)
    real = kernels.recip_gamma_series
    hit = []

    def poisoned(z, kmax):
        out = real(z, kmax)
        if bool(np.any(np.imag(z))) == batched and not hit:
            hit.append(z)
            out.flat[0] = np.nan
        return out

    monkeypatch.setattr(kernels, "recip_gamma_series", poisoned)
    status, rep = run_cli(["verify", "--fixture", "a1"], tmp_path)
    assert hit
    assert status == 1
    assert rep["body"]["pass"] is False
    if batched:
        assert rep["body"]["error"] == "NonFiniteValue"
    else:
        assert math.isnan(rep["body"]["end_to_end"]["max_dev"])


@pytest.mark.parametrize("command", ["gamma-eval", "dual-eval"])
def test_nan_series_term_never_passes(tmp_path, monkeypatch, command):
    # one NaN coefficient in the first kernel call: the series commands
    # refuse the battery instead of reporting NaN components
    real = kernels.recip_gamma_series
    hit = []

    def poisoned(z, kmax):
        out = real(z, kmax)
        if not hit:
            hit.append(z)
            out.flat[0] = np.nan
        return out

    monkeypatch.setattr(kernels, "recip_gamma_series", poisoned)
    status, rep = run_cli([command, "--fixture", "a1", "--depth", "0"],
                          tmp_path)
    assert hit
    assert status == 1
    assert rep["body"]["pass"] is False
    assert rep["body"]["error"] == "NonFiniteValue"


@pytest.mark.parametrize("fixture, command, calls", [
    ("a1", "gamma-eval", 3), ("a1", "dual-eval", 3),
    ("conifold", "gamma-eval", 2), ("conifold", "dual-eval", 2),
    ("p2", "dual-eval", 4)], ids=str)
def test_one_kernel_call_per_sector(tmp_path, monkeypatch, fixture, command,
                                    calls):
    # the battery is one term_values batch per sector and side, and a
    # batch sends every coordinate's centres at once: one kernel call per
    # (side, sector), whatever the depth; one call per coordinate made
    # 9, 9, 8, 8 and 16
    if fixture == "p2":
        path = tmp_path / "p2.txt"
        path.write_text(write_fixture(*circuit_fixture((1, 1, 1, -3))))
        fixture = str(path)
    real = kernels.recip_gamma_series
    count = []

    def counted(z, kmax):
        count.append(1)
        return real(z, kmax)

    monkeypatch.setattr(kernels, "recip_gamma_series", counted)
    for depth in ("0", "2"):
        del count[:]
        argv = [command, "--fixture", fixture, "--depth", depth]
        status, _ = cli.run(argv[0], cli.build_parser().parse_args(argv))
        assert status == 0
        assert len(count) == calls, depth


def test_dual_eval_reduces_to_rank_two(tmp_path):
    status, rep = run_cli(["dual-eval", "--fixture", "a1", "--trunc", "8",
                           "--depth", "1"], tmp_path)
    assert status == 0
    for ev in rep["body"]["evaluations"]:
        assert ev["module_dim"] == 2
        assert sum(len(v) for v in ev["reduced"].values()) == 2


def test_fm_matrix_conifold(tmp_path):
    status, rep = run_cli(["fm", "--fixture", "conifold", "--eps", "1e-2"],
                          tmp_path)
    assert status == 0
    body = rep["body"]
    assert body["samples"][0]["det"] > 1e-6
    limit = body["undeformed_limit"]
    assert limit["principal_ratio"] < 1e-9
    ent = limit["entries"]
    for i in range(2):
        for j in range(2):
            want = 1.0 if i == j else 0.0
            assert abs(ent[i][j]["re"] - want) < 1e-8
            assert abs(ent[i][j]["im"]) < 1e-8


def test_gamma_eval_smoke(tmp_path):
    status, rep = run_cli(["gamma-eval", "--fixture", "a1", "--trunc", "6",
                           "--depth", "0"], tmp_path)
    assert status == 0
    sides = {ev["side"] for ev in rep["body"]["evaluations"]}
    assert sides == {"plus", "minus"}
    minus = next(ev for ev in rep["body"]["evaluations"]
                 if ev["side"] == "minus")
    assert "(1/2,0,1/2)" in minus["components"]


def test_nan_pole_part_never_passes(tmp_path, monkeypatch):
    # every Laurent value reports a NaN pole part: the undeformed limit
    # must not be read off as if the pole part had cancelled
    real = DeformationRing.principal_ratio
    hit = []

    def nan_ratio(self, x):
        if isinstance(x, EpsSeries):
            hit.append(x)
            return math.nan
        return real(self, x)

    monkeypatch.setattr(DeformationRing, "principal_ratio", nan_ratio)
    status, rep = run_cli(["verify", "--fixture", "a1"], tmp_path)
    assert hit
    assert status == 1
    assert rep["body"]["pass"] is False


def test_degree_cap_failure_is_a_report(tmp_path, monkeypatch):
    # a reduction that finds no pivot leaves every power of a generator in
    # the basis, so the degree-by-degree build runs into its safety stop
    monkeypatch.setattr(rings, "rational", SimpleNamespace(
        rref=lambda rows: ([], [])))
    status, rep = run_cli(["inspect", "--fixture", "a1"], tmp_path)
    assert status == 1
    assert rep["body"]["error"] == "NilpotencyUnconfirmed"
    assert rep["body"]["pass"] is False


def record_builds(monkeypatch):
    """(triangulation, sector) key of every SectorAlgebra construction."""
    keys = []
    real = rings.SectorAlgebra.__init__

    def counted(self, data, t, sector):
        keys.append((t.label, sector.key()))
        real(self, data, t, sector)

    monkeypatch.setattr(rings.SectorAlgebra, "__init__", counted)
    return keys


def all_sector_keys(fixture):
    data, tris = load_fixture(fixture)
    return {(t.label, g.key()) for t in tris.values()
            for g in compute_box(data, t)}


@pytest.mark.parametrize("argv", [
    ["verify", "--fixture", "conifold", "--depth", "0"],
    ["gamma-eval", "--fixture", "conifold", "--trunc", "8"],
    ["dual-eval", "--fixture", "conifold", "--trunc", "8"],
], ids=lambda argv: argv[0])
def test_each_sector_algebra_built_once_per_command(monkeypatch, argv):
    keys = record_builds(monkeypatch)
    args = cli.build_parser().parse_args(argv)
    status, _ = cli.run(argv[0], args)
    assert status == 0
    assert sorted(keys) == sorted(all_sector_keys("conifold"))


def test_no_sector_algebra_outlives_a_run(monkeypatch):
    keys = record_builds(monkeypatch)
    argv = ["fm", "--fixture", "a1", "--eps", "1e-2", "--eps", "2e-3"]
    args = cli.build_parser().parse_args(argv)
    runs = []
    for _ in range(2):
        del keys[:]
        status, _ = cli.run("fm", args)
        assert status == 0
        runs.append(sorted(keys))
    assert runs[0] == runs[1] == sorted(all_sector_keys("a1"))


@pytest.mark.parametrize("argv", [
    ["verify", "--fixture", "a1", "--depth", "0"],
    ["fm", "--fixture", "a1", "--eps", "1e-2", "--eps", "2e-3"],
    ["ac", "--fixture", "a1", "--eps", "1e-2", "--eps", "2e-3"],
    ["oracle", "--fixture", "a1"],
], ids=lambda argv: argv[0])
def test_one_wall_context_per_command(monkeypatch, argv):
    counts = {"contexts": 0, "bases": 0}
    real_init, real_basis = wall.WallContext.__init__, wall.monomial_basis

    def counted_init(self, *args, **kwargs):
        counts["contexts"] += 1
        real_init(self, *args, **kwargs)

    def counted_basis(wc):
        counts["bases"] += 1
        return real_basis(wc)

    monkeypatch.setattr(wall.WallContext, "__init__", counted_init)
    monkeypatch.setattr(wall, "monomial_basis", counted_basis)
    status, _ = cli.run(argv[0], cli.build_parser().parse_args(argv))
    assert status == 0
    assert counts["contexts"] == 1
    assert counts["bases"] == (0 if argv[0] == "oracle" else 1)


def test_one_line_per_generator_per_command(monkeypatch):
    # each generator's Line lists its exact pole model once to place the
    # line and once more for its residue circles, which only oracle
    # reads; oracle builds one integrand per endpoint, eps and generator,
    # and verify one per stack, the lines of a sector on one node grid
    # (one stack per fixture here; one integrand per line made 23).
    # Per-call placement listed 24 and 69 times here, with 12 integrands
    # for oracle.  Every integrand takes a stack, a list of Lines.
    counts = {"listings": 0, "integrands": 0}
    real_model, real_integrand = wall.Line.points, wall.make_integrand

    def counted_model(*args):
        counts["listings"] += 1
        return real_model(*args)

    def counted_integrand(x, lines, ring, factors):
        assert isinstance(lines, list), lines
        counts["integrands"] += 1
        return real_integrand(x, lines, ring, factors)

    monkeypatch.setattr(wall.Line, "points", counted_model)
    monkeypatch.setattr(wall, "make_integrand", counted_integrand)
    for command, flags, listings, integrands in (
            ("oracle", ["--eps", "3e-3", "--eps", "5e-3"], 4, 8),
            ("verify", [], 23, 2)):
        counts.update(listings=0, integrands=0)
        for fixture in ("a1", "conifold"):
            argv = [command, "--fixture", fixture, *flags]
            status, _ = cli.run(command, cli.build_parser().parse_args(argv))
            assert status == 0, argv
        assert counts["listings"] <= listings, command
        assert counts["integrands"] == integrands, command


def test_invertibility_gate_ignores_the_basis_scale(tmp_path):
    # det 1.7e-9 here comes from the scale of the monomial basis; the
    # transform is well conditioned (sigma_min / sigma_max 7.4e-5)
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture((1, 1, 1, 1, 1, -5))))
    status, rep = run_cli(["fm", "--fixture", str(path), "--eps", "1e-2"],
                          tmp_path)
    assert status == 0, rep["body"]
    (sample,) = rep["body"]["samples"]
    assert sample["det"] < 1e-6
    assert 1e-8 < sample["rcond"] <= 1.0


@pytest.mark.parametrize("h", [(3, 3, -1, -1, -1, -3), (2, 2, 2, -1, -2, -3)],
                         ids=["h=3,3,-1,-1,-1,-3", "h=2,2,2,-1,-2,-3"])
def test_laurent_fm_reads_the_classes_of_sigma(tmp_path, h):
    # sectors whose support sigma has nonzero classes: with those classes
    # taken as zero the Laurent transform leaves its series window
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture(h)))
    status, rep = run_cli(["fm", "--fixture", str(path)], tmp_path)
    assert status == 0, rep["body"]


def test_localization_rank_failure_is_a_report(tmp_path, monkeypatch):
    def flat(chamber, rings, mons):
        width = sum(a.dim for a in chamber.algebras.values())
        return np.zeros((len(mons), width), dtype=complex)

    monkeypatch.setattr(wall, "localization_matrix", flat)
    status, rep = run_cli(["fm", "--fixture", "a1", "--eps", "1e-2"],
                          tmp_path)
    assert status == 1
    assert rep["body"]["error"] == "LocalizationRankDeficient"
    assert rep["body"]["pass"] is False


def test_series_terms_share_kernel_calls(monkeypatch):
    # each batch of series terms makes one Gamma-kernel call per
    # coordinate, not one per term and coordinate
    real = kernels.recip_gamma_series
    calls = []

    def counted(z, kmax):
        calls.append(1)
        return real(z, kmax)

    monkeypatch.setattr(kernels, "recip_gamma_series", counted)
    argv = ["verify", "--fixture", "conifold", "--depth", "0"]
    status, _ = cli.run(argv[0], cli.build_parser().parse_args(argv))
    assert status == 0
    assert 0 < len(calls) <= 40


@pytest.mark.parametrize("fixture", ["a1", "conifold"])
def test_battery_is_one_series_batch_per_sector(monkeypatch, fixture):
    # the depth-2 end-to-end battery evaluates its series terms as one
    # term_values batch per sector and side, whatever the number of c
    real_kernel, real_values = kernels.recip_gamma_series, wall.term_values
    kernel_calls, batches = [], []

    def counted_kernel(z, kmax):
        kernel_calls.append(1)
        return real_kernel(z, kmax)

    def counted_values(*args, **kwargs):
        batches.append(1)
        return real_values(*args, **kwargs)

    monkeypatch.setattr(kernels, "recip_gamma_series", counted_kernel)
    monkeypatch.setattr(wall, "term_values", counted_values)
    monkeypatch.setattr(series, "term_values", counted_values)
    argv = ["verify", "--fixture", fixture]
    status, rep = cli.run(argv[0], cli.build_parser().parse_args(argv))
    assert status == 0
    assert len(rep["body"]["end_to_end"]["battery"]) > 1
    data, tris = load_fixture(fixture)
    assert len(batches) == sum(len(compute_box(data, t))
                               for t in tris.values())
    if fixture == "conifold":
        assert len(kernel_calls) <= 130


@pytest.mark.parametrize("command", ["fm", "ac"])
def test_laurent_window_grows_with_the_circuit(tmp_path, command):
    # eight points: the eps^0 coefficient needs a window of n + 1 = 9
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture(
        (1, 1, 1, 1, -1, -1, -1, -1))))
    status, rep = run_cli([command, "--fixture", str(path), "--eps", "1e-2"],
                          tmp_path)
    assert status == 0, rep["body"]
    assert rep["body"]["undeformed_limit"]["principal_ratio"] < 1e-9


def test_laurent_transform_is_window_batched(monkeypatch):
    # a product of two eps-series is one ring multiply over the whole
    # window; one multiply per pair of coefficients would make 1,416 here
    data, tris = load_fixture("conifold")
    plus, minus = rings.Chamber(data, tris["plus"]), \
        rings.Chamber(data, tris["minus"])
    ctx = wall.WallContext(find_circuit(data, plus.t, minus.t), plus, minus)
    assert ctx.monomials
    real = rings.SectorAlgebra.multiply
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rings.SectorAlgebra, "multiply", counted)
    m = wall.fm_transform(ctx, None)
    assert m.principal_ratio < 1e-9
    assert 0 < len(calls) <= 150


def test_no_command_calls_einsum(monkeypatch):
    # every sector-algebra product, of elements, batches and eps-series,
    # goes through SectorAlgebra.multiply
    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", refuse)
    for argv in (["fm"], ["ac"], ["verify", "--depth", "0"], ["oracle"],
                 ["gamma-eval"], ["dual-eval"]):
        argv += ["--fixture", "conifold"]
        status, _ = cli.run(argv[0], cli.build_parser().parse_args(argv))
        assert status == 0, argv


def test_series_window_error_survives_optimized_mode(tmp_path):
    # python -O drops asserts; a window too narrow for eps^0 must still
    # end in a report with exit 1, not a traceback or a wrong value.
    # sitecustomize runs at interpreter start and narrows the window.
    (tmp_path / "sitecustomize.py").write_text(
        "from gkzflop import deform\n"
        "deform.laurent_window = lambda data: 3\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "gkzflop", "fm", "--fixture",
         "conifold"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["body"]["error"] == "SeriesWindowExceeded"
    assert "eps^0" in rep["body"]["message"]


def unmarked_assertions(source):
    """Lines of the asserts and AssertionError raises without a reason.

    A reason is "# internal:" on the statement's lines or in the comment
    block directly above it.
    """
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = getattr(node.exc, "func", node.exc)
            if not (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                continue
        elif not isinstance(node, ast.Assert):
            continue
        top = node.lineno - 1
        while top and lines[top - 1].lstrip().startswith("#"):
            top -= 1
        if not any("# internal:" in line
                   for line in lines[top:node.end_lineno]):
            out.append(node.lineno)
    return sorted(out)


def test_every_assertion_in_the_package_is_internal():
    # an assert guards an invariant that no input can break: a condition
    # the CLI can reach raises a GkzflopError instead, and python -O
    # would drop the assert
    checked = 0
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert unmarked_assertions(source) == [], path.name
        checked += sum(isinstance(node, ast.Assert)
                       for node in ast.walk(ast.parse(source)))
    assert checked > 10
    snippet = ("# internal: a\n# b\nassert x\nassert y, \\\n"
               "    'm'  # internal: c\n\nassert z\n"
               "raise AssertionError('no')\nraise ValueError('v')\nraise\n")
    assert unmarked_assertions(snippet) == [7, 8]


def test_trapezoid_invariance_has_signal(tmp_path):
    # the fifth point lies outside the circuit, so J = {5} and the blind
    # classes R^b (1 - R_5), one per transform column, are nonzero
    path = tmp_path / "trapezoid.txt"
    path.write_text(TRAPEZOID)
    status, rep = run_cli(["verify", "--fixture", str(path), "--depth", "0"],
                          tmp_path)
    assert status == 0
    inv = rep["body"]["invariance"]
    assert inv["J"] == [5] and inv["classes"] == 3
    assert inv["signal"] == 1.0 and inv["pass"]
