"""Command-line front end: reports, exit codes, determinism."""

import ast
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gkzflop import cli, deform, kernels, rational, rings, series, wall
from gkzflop import report as reporting
from gkzflop.fixtures import load_fixture, write_fixture
from gkzflop.toric import compute_box, find_circuit
from support import LOCAL_P2, SMALL_CIRCUITS, TRAPEZOID, circuit_fixture, \
    relabel, subparser_reference


def run_cli(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    status = cli.main(list(argv) + ["--out", str(out)])
    return status, json.loads(out.read_text())


def depth_flags(command, depth):
    """--depth depth, for the commands that take it (oracle takes none)."""
    return [] if command == "oracle" else ["--depth", depth]


@pytest.mark.parametrize("depth", ["0", "2", "5", "-1"])
def test_oracle_refuses_an_explicit_depth(tmp_path, depth):
    # oracle checks c = 0 alone: an explicit --depth, even the default,
    # is an input error; without one its config reads the default, 2
    status, rep = run_cli(["oracle", "--fixture", "a1", "--depth", depth],
                          tmp_path)
    assert status == 2 and rep["body"]["error"] == "InputError"
    assert "--depth" in rep["body"]["message"]
    assert rep["config"]["depth"] == int(depth)
    status, rep = run_cli(["oracle", "--fixture", "a1"], tmp_path)
    assert status == 0 and rep["config"]["depth"] == 2
    assert "ignores --depth" not in cli.build_parser().format_help()


def test_inspect(tmp_path):
    status, rep = run_cli(["inspect", "--fixture", "a1"], tmp_path)
    assert status == 0
    assert rep["schema"] == 1
    assert rep["kind"] == "inspect"
    body = rep["body"]
    assert body["circuit"]["h"] == [1, -2, 1]
    assert body["circuit"]["I_minus"] == [2]
    assert all(v["total"] == 2 for v in body["sector_dims"].values())


def test_inspect_rank_is_the_normalized_volume(tmp_path):
    # each side's K-theory rank, the total sector-algebra dimension, is
    # its normalized volume sum |det| over the maximal cones: on both
    # fixtures, local P^2, the trapezoid and every circuit of
    # SMALL_CIRCUITS, both sides
    texts = [LOCAL_P2, TRAPEZOID] + [write_fixture(*circuit_fixture(h))
                                     for h in SMALL_CIRCUITS]
    fixtures = ["a1", "conifold"]
    for i, text in enumerate(texts):
        path = tmp_path / f"case{i}.txt"
        path.write_text(text)
        fixtures.append(str(path))
    for fixture in fixtures:
        status, rep = run_cli(["inspect", "--fixture", fixture], tmp_path)
        dims = rep["body"]["sector_dims"]
        assert status == 0 and rep["body"]["pass"], fixture
        assert sorted(dims) == ["minus", "plus"]
        assert all(d["volume"] == d["total"] > 0 for d in dims.values())


def test_inspect_fails_on_a_dropped_sector(tmp_path, monkeypatch):
    # one sector dropped from the minus side's box: its rank falls below
    # its volume, and inspect says so
    real = rings.compute_box

    def dropped(data, t):
        box = real(data, t)
        return box[:-1] if t.label == "minus" else box

    monkeypatch.setattr(rings, "compute_box", dropped)
    status, rep = run_cli(["inspect", "--fixture", "a1"], tmp_path)
    dims = rep["body"]["sector_dims"]
    assert status == 1 and rep["body"]["pass"] is False
    assert dims["minus"]["total"] == 1 and dims["minus"]["volume"] == 2
    assert dims["plus"]["total"] == dims["plus"]["volume"] == 2


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


# sanitized report trees: str keys, and values of the exact types that
# sanitize returns
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.floats(), st.text())
JSON_TREES = st.recursive(
    JSON_LEAVES, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(), kids, max_size=4)), max_leaves=40)


@settings(max_examples=300)
@given(JSON_TREES)
@example({})
@example([])
@example({"b": [], "a": {}, "": [[], {}]})
@example({"\u00e9t\u00e9": [True, 1, False, 0, 1.0, None],
          "\U0001d53c": "\u00b1\n"})
@example([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 2 ** 70])
def test_render_json_writes_what_json_dumps_writes(tree):
    want = json.dumps(tree, sort_keys=True, indent=2) + "\n"
    assert reporting.render_json(tree) == want


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
    status, rep = run_cli([command, "--fixture", "conifold",
                           *depth_flags(command, "0"), flag, value], tmp_path)
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
    status, rep = run_cli([command, "--fixture", "conifold",
                           *depth_flags(command, "0"), flag, value], tmp_path)
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


# (argv, the scalar part whose exp overflows).  With several samples the
# error is the first that a sample raises alone, in sample order and, in
# verify, ac before fm: a stack that raises replays its samples alone.
EXP_OVERFLOWS = [
    (["fm", "--fixture", "conifold", "--eps", "1e10"],
     "1.000e+10-0.000e+00j"),
    (["oracle", "--fixture", "a1", "--eps", "1e300"],
     "1.667e+299+1.222e+299j"),
    (["verify", "--fixture", "a1", "--eps", "1e300", "--depth", "0"],
     "5.000e+299+0.000e+00j"),
    # 9e307's divisor shift is not finite, but 1e10 comes first
    (["fm", "--fixture", "conifold", "--eps", "1e10", "--eps", "9e307"],
     "1.000e+10-0.000e+00j"),
    (["ac", "--fixture", "conifold", "--eps", "1e-2", "--eps", "1e10"],
     "1.000e+10-0.000e+00j"),
    (["verify", "--fixture", "a1", "--eps", "1e10", "--eps", "1e300",
      "--depth", "0"], "5.000e+09+0.000e+00j"),
    (["verify", "--fixture", "conifold", "--eps", "1e-2", "--eps", "1e10",
      "--depth", "0"], "1.000e+10-0.000e+00j"),
]


@pytest.mark.parametrize("argv, scalar", EXP_OVERFLOWS,
                         ids=[f"argv{i}" for i in range(len(EXP_OVERFLOWS))])
def test_eps_whose_exp_overflows_is_a_report(argv, scalar):
    # finite, but e^(a_j eps) leaves the float range in a sector algebra:
    # a NonFiniteValue report, and no numpy overflow warning on stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gkzflop", *argv], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == 1
    body = json.loads(proc.stdout)["body"]
    assert body["error"] == "NonFiniteValue"
    assert body["message"] == f"exp of the scalar part {scalar} overflows"


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


@pytest.mark.parametrize("argv", [
    ["fm", "--eps", "-100"], ["ac", "--eps", "-100"],
    ["verify", "--depth", "0", "--eps", "-100"], ["fm", "--eps", "300"]],
    ids=["fm-100", "ac-100", "verify-100", "fm300"])
def test_overflowing_transform_fails_without_warnings(tmp_path, argv):
    # local P2's transforms at a large |eps| overflow in their products
    # and in det: the values carry inf or NaN and the rcond gate fails
    # (exit 1), with no numpy warning on stderr
    path = tmp_path / "p2.txt"
    path.write_text(LOCAL_P2)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gkzflop", *argv, "--fixture", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["body"]["pass"] is False


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


def test_line_node_near_a_removable_point_is_a_report():
    # a1's generator line Re s = 1/2 passes through the removable point
    # s = 1/2, and at --contour-t 1e-9 its two nodes sit 5e-10 from it:
    # the line's node guard refuses it before any evaluation, a
    # PoleProximity report (exit 1) with nothing on stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gkzflop", "oracle", "--fixture", "a1",
         "--contour-t", "1e-9"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == 1
    body = json.loads(proc.stdout)["body"]
    assert (body["error"], body["message"]) == (
        "PoleProximity", "s = (0.5-5e-10j) too close to a pole")


# oracle stacks whose samples fail alone in different places, and what
# they raise: the first failing sample's first error in check order.  At
# 1e3 the line integrand overflows, and its residue circles too, but the
# near quadrature is checked first; 9e307's divisor shift is not finite,
# so the stack's ring cannot be built and each sample is built alone
ORACLE_STACK_ERRORS = [
    (["--fixture", "conifold", "--eps", "1e-2", "--eps", "1e3"],
     "integrand is not finite on the line"),
    (["--fixture", "a1", "--eps", "1e-3", "--eps", "9e307"],
     "divisor shift 2 * eps is not finite at eps = 9e+307"),
    (["--fixture", "conifold", "--eps", "1e-2", "--eps", "-1e3"],
     "exp of the scalar part 1.000e+03-0.000e+00j overflows"),
]


@pytest.mark.parametrize("argv, message", ORACLE_STACK_ERRORS,
                         ids=["conifold-1e3", "a1-9e307", "conifold--1e3"])
def test_oracle_stack_raises_its_first_failing_sample(argv, message):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gkzflop", "oracle", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == 1
    body = json.loads(proc.stdout)["body"]
    assert (body["error"], body["message"]) == ("NonFiniteValue", message)


@pytest.mark.parametrize("argv, message", ORACLE_STACK_ERRORS,
                         ids=["conifold-1e3", "a1-9e307", "conifold--1e3"])
def test_oracle_reads_only_a_failure_of_the_whole_stack_again(
        monkeypatch, argv, message):
    # each fixture has one generator.  At 1e3 the failure is that
    # sample's own quadrature outcome, raised as the walk meets it: one
    # integrand, where reading every sample again built 3.  The stack's
    # ring at 9e307 fails as a whole, so the samples are read alone:
    # 1e-3 builds its integrand, 9e307 fails at its ring.  At -1e3 the
    # stack's integrand build fails as a whole, then 1e-2 alone builds
    # one and -1e3 alone fails in its build: 3 calls
    built = []
    real = wall.make_integrand

    def counted(xs, lines, ring):
        built.append(np.size(ring.eps))
        return real(xs, lines, ring)
    monkeypatch.setattr(wall, "make_integrand", counted)
    status, rep = cli.run("oracle", cli.build_parser().parse_args(
        ["oracle", *argv]))
    assert status == 1
    assert (rep["body"]["error"], rep["body"]["message"]) \
        == ("NonFiniteValue", message)
    assert built == {"1e3": [2], "9e307": [1], "-1e3": [2, 1, 1]}[argv[-1]]


def test_oracle_searches_generators_within_trunc(tmp_path):
    # the twisted sector's orbit generator of (1,2,-3) has degree 3, so
    # --trunc 2 finds the untwisted one alone, and the report fails and
    # names the essential sector it left unchecked
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture((1, 2, -3))))
    found = {}
    for trunc, want in ((["--trunc", "2"], 1), ([], 0)):
        status, rep = run_cli(["oracle", "--fixture", str(path), *trunc],
                              tmp_path)
        assert status == want, rep["body"]
        assert all(c["right_pass"] and c["left_pass"]
                   for c in rep["body"]["checks"])
        found[len(trunc)] = {(c["sector"], tuple(c["lprime"]))
                             for c in rep["body"]["checks"]}
        if trunc:
            assert rep["body"]["unchecked_sectors"] == ["(1/2,0,1/2)"]
        else:
            assert "unchecked_sectors" not in rep["body"]
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


SWAPPED = ["--plus", "minus", "--minus", "plus"]


def verdicts(rep):
    """The pass/fail of each block of a verify or oracle report (oracle:
    the sorted left and right verdicts of its checks), or its error."""
    body = rep["body"]
    if "error" in body:
        return body["error"]
    if rep["kind"] == "oracle":
        return sorted((c["left_pass"], c["right_pass"])
                      for c in body["checks"])
    return {k: v["pass"] for k, v in body.items()
            if isinstance(v, dict) and "pass" in v}


@pytest.mark.parametrize("command", ["fm", "ac", "oracle"])
def test_swapped_crossing_runs(tmp_path, command):
    # with the sides swapped, index 1 of each fixture is on the negative
    # side, and the deformation offsets move off 0 there
    for fixture in ("a1", "conifold"):
        status, rep = run_cli([command, "--fixture", fixture, *SWAPPED],
                              tmp_path)
        assert status == 0, (fixture, rep["body"])


def test_swapped_verify(tmp_path):
    # swapped conifold passes.  Swapped a1 has R = prod |h_j|^h_j = 4 >
    # 1, so the default --y-abs 0.1 puts its endpoints on the wrong side
    # of the discriminant (ROADMAP item 2): end_to_end alone fails, by
    # 1.2e-5 at depth 0 and 1.15e-3 at depth 2, and at --y-abs 0.01 it
    # passes with a line signal
    status, rep = run_cli(["verify", "--fixture", "conifold", *SWAPPED],
                          tmp_path)
    assert status == 0, rep["body"]
    for depth, dev in (("0", 1.18e-5), ("2", 1.15e-3)):
        status, rep = run_cli(["verify", "--fixture", "a1", "--depth", depth,
                               *SWAPPED], tmp_path)
        assert status == 1
        assert verdicts(rep) == {"end_to_end": False, "invariance": True,
                                 "laurent": True, "matrix": True}
        assert rep["body"]["end_to_end"]["max_dev"] \
            == pytest.approx(dev, rel=0.02)
    status, rep = run_cli(["verify", "--fixture", "a1", "--depth", "0",
                           "--y-abs", "0.01", *SWAPPED], tmp_path)
    assert status == 0, rep["body"]
    (row,) = rep["body"]["end_to_end"]["battery"]
    assert 0 < row["dev"] < 2e-12
    assert row["line_signal"] == pytest.approx(1.71, rel=0.01)


@pytest.mark.parametrize("fixture", ["a1", "conifold"])
@pytest.mark.parametrize("command", [["verify", "--depth", "0"], ["oracle"]],
                         ids=["verify", "oracle"])
def test_point_order_keeps_the_verdicts(tmp_path, fixture, command):
    # every order of the fixture's points gives the exit status and the
    # verdict of each block of the listed order
    data, tris = load_fixture(fixture)
    want = run_cli([*command, "--fixture", fixture], tmp_path)
    path = tmp_path / "relabeled.txt"
    orders = list(itertools.permutations(range(data.n)))
    for order in orders:
        path.write_text(write_fixture(*relabel(data, tris, order)))
        got = run_cli([*command, "--fixture", str(path)], tmp_path)
        assert got[0] == want[0], (order, got[1]["body"])
        assert verdicts(got[1]) == verdicts(want[1]), order
    assert len(orders) == {"a1": 6, "conifold": 24}[fixture]


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_moved_line_splits_the_orbit_where_it_integrates(tmp_path, command):
    # Re s = 1.5 is clear, one step right of the default line: the term
    # at m = 1 must be restored, not left to the line integral
    for fixture in ("a1", "conifold"):
        status, rep = run_cli([command, "--fixture", fixture,
                               *depth_flags(command, "0"),
                               "--contour-re", "1.5"], tmp_path)
        assert status == 0, (fixture, rep["body"])


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_line_left_of_a_ratio_pole_is_input_error(tmp_path, command):
    for fixture in ("a1", "conifold"):
        status, rep = run_cli([command, "--fixture", fixture,
                               *depth_flags(command, "0"),
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


@functools.lru_cache(maxsize=None)
def ladder_verify(h, flags):
    """Exit status and report of verify --depth 0 on the circuit h."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "circuit.txt"
        path.write_text(write_fixture(*circuit_fixture(h)))
        return run_cli(["verify", "--fixture", str(path), "--depth", "0",
                        *flags], Path(tmp))


# Every line integral of these crossings reads exactly 0.0: end_to_end
# then compares the orbit terms alone, which the transform carries over
# to its own roundoff (ROADMAP item 2)
ZERO_LINES = [(1, 2, -1, -2), (2, 3, -3, -2), (1, 1, 1, -1, -1, -1)]


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
    ladder_case((1, 2, -1, -2)),
])
def test_circuit_ladder_crossing(h, flags):
    status, rep = ladder_verify(h, tuple(flags))
    assert status == 0, rep["body"]
    signal = max(row["line_signal"] for row in rep["body"]["end_to_end"]
                 ["battery"])
    # the crossings of ZERO_LINES are strict xfails of the test below
    assert signal > 0 or h in ZERO_LINES


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: vacuous, every line "
                   "integral reads 0.0")
@pytest.mark.parametrize("h", ZERO_LINES,
                         ids=lambda h: "h=" + ",".join(map(str, h)))
def test_ladder_crossing_has_a_line_signal(h):
    status, rep = ladder_verify(h, ())
    assert status == 0, rep["body"]
    assert max(row["line_signal"]
               for row in rep["body"]["end_to_end"]["battery"]) > 0


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
    # one circle sample of every eps^0 read holds a NaN entry, so each
    # eps^-m coefficient is NaN: the undeformed limit must not be read
    # off as if the pole part had cancelled
    real = wall.circle_read
    hit = []

    def poisoned(values, samples, poles):
        values = values.copy()
        values[1, 0, 0] = math.nan
        hit.append(values)
        return real(values, samples, poles)

    monkeypatch.setattr(wall, "circle_read", poisoned)
    status, rep = run_cli(["verify", "--fixture", "a1"], tmp_path)
    assert hit
    assert status == 1
    assert rep["body"]["pass"] is False
    laurent = rep["body"]["laurent"]
    assert math.isnan(laurent["principal_ratio"]) and not laurent["pass"]
    status, rep = run_cli(["fm", "--fixture", "a1"], tmp_path)
    assert status == 1
    assert math.isnan(rep["body"]["undeformed_limit"]["principal_ratio"])


def test_uncancelled_pole_fails_the_undeformed_limit(tmp_path, monkeypatch):
    # a term P / eps added to one entry of every sampled transform is a
    # pole that does not cancel: the circle's eps^-1 coefficient reads
    # it, and fm and verify's laurent block fail on it
    real = wall._transform

    def with_pole(wc, eps, route):
        out = real(wc, eps, route)
        for m, e in zip(out, eps):
            m.entries[0, 0] += 1e-3 / e
        return out

    monkeypatch.setattr(wall, "_transform", with_pole)
    status, rep = run_cli(["fm", "--fixture", "a1"], tmp_path)
    limit = rep["body"]["undeformed_limit"]
    assert status == 1 and rep["body"]["pass"] is False
    assert limit["principal_ratio"] == pytest.approx(1e-3, rel=1e-6)
    status, rep = run_cli(["verify", "--fixture", "a1", "--depth", "0"],
                          tmp_path)
    assert status == 1
    assert rep["body"]["matrix"]["pass"]
    assert not rep["body"]["laurent"]["pass"]
    assert rep["body"]["laurent"]["principal_ratio"] == \
        pytest.approx(1e-3, rel=1e-6)


def test_laurent_gates_the_eps0_deviation_of_the_routes(tmp_path,
                                                       monkeypatch):
    # the transport angle theta = 1/2 of a1's pole at index 2, r = 1, moved
    # by 1e-6 in the circle's stacks alone: the real samples' matrices
    # still agree and the circle's pole part still cancels, so only
    # laurent.matrix_dev, ac - fm at eps^0, sees the moved angle
    real = wall._transform

    def moved(wc, eps, route):
        real_eps = tuple(e for e in eps if complex(e).imag == 0)
        out = real(wc, real_eps, route) if real_eps else []
        if len(real_eps) == len(eps):
            return out
        poles = wc.poles
        if route == "transport":
            [(key, entries)] = poles.items()
            k, r, angles = entries[1]
            theta, coords2 = angles["transport"]
            assert (k, r, theta) == (1, 1, Fraction(1, 2))
            wc.poles = {key: [entries[0], (k, r, {
                **angles, "transport": (theta + Fraction(1, 10 ** 6),
                                        coords2)})]}
        try:
            return out + real(wc, eps[len(real_eps):], route)
        finally:
            wc.poles = poles

    argv = ["verify", "--fixture", "a1", "--depth", "0"]
    status, rep = run_cli(argv, tmp_path)
    assert status == 0 and rep["body"]["laurent"]["matrix_dev"] < 1e-12
    monkeypatch.setattr(wall, "_transform", moved)
    status, rep = run_cli(argv, tmp_path)
    laurent = rep["body"]["laurent"]
    assert status == 1 and rep["body"]["matrix"]["pass"]
    assert max(laurent["principal_ratio"],
               laurent["nested_error"]) < wall.EPS0_TOL
    assert laurent["matrix_dev"] > 1e-7 and not laurent["pass"]


def test_laurent_fails_on_a_nan_eps0_deviation(tmp_path, monkeypatch):
    # a NaN in the ac route's eps^0 matrix alone fails the laurent gate
    real = wall.undeformed_transforms

    def nan_ac(wc, samples, routes):
        out = real(wc, samples, routes)
        out[0][1].entries[0, 0] = math.nan
        return out

    monkeypatch.setattr(wall, "undeformed_transforms", nan_ac)
    status, rep = run_cli(["verify", "--fixture", "a1", "--depth", "0"],
                          tmp_path)
    assert status == 1 and rep["body"]["matrix"]["pass"]
    assert math.isnan(rep["body"]["laurent"]["matrix_dev"])
    assert rep["body"]["laurent"]["pass"] is False


def test_circle_doubles_until_the_nested_estimate_meets_its_target(
        tmp_path, monkeypatch):
    # a circle of 4 samples is too coarse: each doubling is one more stack
    # of the circle alone, up to the first circle whose two nested rules
    # agree to CIRCLE_RTOL; capped at 4, the report fails with its numbers
    status, rep = run_cli(["fm", "--fixture", "a1"], tmp_path)
    want = rep["body"]["undeformed_limit"]
    stacks = []
    real = wall.sampled_transforms

    def counted(wc, samples, routes):
        stacks.append(len(samples))
        return real(wc, samples, routes)

    monkeypatch.setattr(wall, "sampled_transforms", counted)
    monkeypatch.setattr(wall, "CIRCLE_NODES", 4)
    status, rep = run_cli(["fm", "--fixture", "a1"], tmp_path)
    got = rep["body"]["undeformed_limit"]
    assert status == 0
    assert got["samples"] > 4 and got["nested_error"] <= wall.CIRCLE_RTOL
    assert stacks == [1 + 4] + [4 * 2 ** i
                                for i in range(1, len(stacks))]
    assert stacks[-1] == got["samples"]
    for row, ref in zip(got["entries"], want["entries"]):
        for v, w in zip(row, ref):
            assert abs(complex(v["re"], v["im"])
                       - complex(w["re"], w["im"])) < 1e-12
    monkeypatch.setattr(wall, "CIRCLE_MAX", 4)
    status, rep = run_cli(["fm", "--fixture", "a1"], tmp_path)
    got = rep["body"]["undeformed_limit"]
    assert status == 1 and rep["body"]["pass"] is False
    assert got["samples"] == 4 and got["nested_error"] > wall.EPS0_TOL


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
    # reads; oracle builds one integrand per generator, at both
    # endpoints and on the stack of its eps samples, whose far endpoint
    # also serves its residue circles (one per eps and generator made 4
    # here, and two per eps and generator 8), and verify one per stack, the
    # lines of a sector on one node grid (one stack per fixture here;
    # one integrand per line made 23).  Per-call placement listed 24 and
    # 69 times here, with 12 integrands for oracle.  Every integrand
    # takes a list of endpoints and a stack, a list of Lines.  oracle's
    # residue circles come in rounds of 4, 8, 8, ..., each round for
    # every eps: 5 rounds of 32 circles here, where a round per eps made
    # 10 rounds of 64 circles and rounds of 4, 8, 16, ... evaluated 80
    counts = {"listings": 0, "integrands": 0, "rounds": 0, "circles": 0}
    real_model, real_integrand = wall.Line.points, wall.make_integrand
    real_circles = wall.residue_at

    def counted_model(*args):
        counts["listings"] += 1
        return real_model(*args)

    def counted_integrand(xs, lines, ring):
        assert isinstance(xs, list) and isinstance(lines, list), lines
        counts["integrands"] += 1
        return real_integrand(xs, lines, ring)

    def counted_circles(f, line, circles, at=None):
        counts["rounds"] += 1
        counts["circles"] += len(circles)
        return real_circles(f, line, circles, at)

    monkeypatch.setattr(wall.Line, "points", counted_model)
    monkeypatch.setattr(wall, "make_integrand", counted_integrand)
    monkeypatch.setattr(wall, "residue_at", counted_circles)
    for command, flags, listings, integrands, rounds, circles in (
            ("oracle", ["--eps", "3e-3", "--eps", "5e-3"], 4, 2, 5, 32),
            ("verify", [], 23, 2, 0, 0)):
        counts.update(listings=0, integrands=0, rounds=0, circles=0)
        for fixture in ("a1", "conifold"):
            argv = [command, "--fixture", fixture, *flags]
            status, _ = cli.run(command, cli.build_parser().parse_args(argv))
            assert status == 0, argv
        assert counts["listings"] <= listings, command
        assert counts["integrands"] == integrands, command
        assert (counts["rounds"], counts["circles"]) == (rounds, circles), \
            command


def test_no_product_by_an_exact_one(monkeypatch):
    # every product starts from its first factor, and a factor that is
    # one by construction is left out: x_j^d where d = 0, the unit's row
    # of a multiplication matrix, and an algebra of dimension 1 holds
    # numbers.  No SectorAlgebra.multiply call of any command on a1 or
    # conifold has an operand that is one in every row (a product by
    # one may turn a -0.0 into 0.0, and inf into NaN).  The commands make
    # over 500 calls (1/Gamma of a series term's negative integer
    # exponent no longer multiplies its factors on the algebra)
    real = rings.SectorAlgebra.multiply
    calls, by_one = [0], []

    def counted(alg, x, y):
        one = np.zeros(alg.dim, dtype=complex)
        one[alg.basis_index[()]] = 1.0
        calls[0] += 1
        if (x == one).all() or (y == one).all():
            by_one.append((x.shape, y.shape))
        return real(alg, x, y)

    monkeypatch.setattr(rings.SectorAlgebra, "multiply", counted)
    for fixture in ("a1", "conifold"):
        for command in cli.COMMANDS:
            argv = [command, "--fixture", fixture]
            cli.run(command, cli.build_parser().parse_args(argv))
    assert calls[0] > 500 and by_one == []


@pytest.mark.parametrize("command", ["verify", "fm", "ac"])
def test_one_localization_matrix_per_stack(monkeypatch, command):
    # the minus side's localization matrix of the transform's monomials
    # is built once per stack, the real samples and the eps^0 circle
    # together, and both routes share it: verify's matrix and laurent
    # blocks built it for ac and again for fm (4 builds a fixture), and
    # an eps-Laurent route beside the sampled stack built it twice.  The
    # candidates of the monomial basis search are not counted
    builds, searching = [], [False]
    real_matrix, real_basis = wall.localization_matrix, wall.monomial_basis

    def counted_matrix(chamber, rings, mons):
        if not searching[0]:
            builds.append(len(mons))
        return real_matrix(chamber, rings, mons)

    def basis(wc):
        searching[0] = True
        try:
            return real_basis(wc)
        finally:
            searching[0] = False
    monkeypatch.setattr(wall, "localization_matrix", counted_matrix)
    monkeypatch.setattr(wall, "monomial_basis", basis)
    for fixture in ("a1", "conifold"):
        del builds[:]
        argv = [command, "--fixture", fixture, "--depth", "0"]
        status, _ = cli.run(command, cli.build_parser().parse_args(argv))
        assert status == 0, argv
        assert len(builds) == 1, argv


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
    # taken as zero the poles of the eps^0 transform do not cancel
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


@pytest.mark.parametrize("fixture", ["a1", "conifold"])
def test_oracle_stack_is_one_ring_and_one_series_batch(monkeypatch, fixture):
    # an oracle job at two eps builds one DeformationRing, the stacked
    # ring of its one plus sector, and sums the right orbit of its one
    # generator for both samples in one term_values batch (a ring per
    # sample and a batch per sample before: 3 and 2)
    real_ring, real_values = deform.DeformationRing.__init__, \
        wall.term_values
    counts = {"rings": 0, "batches": 0}

    def counted_ring(*args, **kwargs):
        counts["rings"] += 1
        real_ring(*args, **kwargs)

    def counted_values(*args, **kwargs):
        counts["batches"] += 1
        return real_values(*args, **kwargs)

    monkeypatch.setattr(deform.DeformationRing, "__init__", counted_ring)
    monkeypatch.setattr(wall, "term_values", counted_values)
    monkeypatch.setattr(series, "term_values", counted_values)
    argv = ["oracle", "--fixture", fixture, "--eps", "1e-2", "--eps", "1e-3"]
    status, rep = cli.run(argv[0], cli.build_parser().parse_args(argv))
    assert status == 0 and len(rep["body"]["checks"]) == 2
    assert counts == {"rings": 1, "batches": 1}


def test_deep_trunc_ends_in_a_report(tmp_path, capfd):
    # terms past the float range (x_j^{l_j} and 1/Gamma both carry a
    # power of two) stay finite: each job is a passing report, with no
    # traceback and no numpy warning; they ended in an OverflowError
    # traceback (dual-eval at 800 and 600), in warnings before a
    # NonFiniteValue (local P2 at 300) and in warnings before "shell
    # norms grow with ratio nan" (gamma-eval at 1000).  gamma-eval's
    # deep terms are negligible: --trunc 1000 reads what --trunc 400 does
    p2 = tmp_path / "p2.txt"
    p2.write_text(LOCAL_P2)
    jobs = [["dual-eval", "--fixture", "a1", "--trunc", "800"],
            ["dual-eval", "--fixture", str(p2), "--trunc", "600"],
            ["dual-eval", "--fixture", str(p2), "--trunc", "300"],
            ["gamma-eval", "--fixture", "a1", "--trunc", "1000"],
            ["gamma-eval", "--fixture", "a1", "--trunc", "400"]]
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in jobs:
            status, rep = run_cli(argv, tmp_path)
            assert status == 0 and rep["body"]["pass"], argv
            reports.append([ev["components"]
                            for ev in rep["body"]["evaluations"]])
    assert capfd.readouterr().err == ""
    assert reports[3] == reports[4]


@pytest.mark.parametrize("command", ["fm", "ac"])
def test_laurent_window_grows_with_the_circuit(tmp_path, command):
    # eight points: the circle reads the Laurent coefficients of eps^-1
    # to eps^-8 off the same samples, and each must vanish
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture(
        (1, 1, 1, 1, -1, -1, -1, -1))))
    status, rep = run_cli([command, "--fixture", str(path), "--eps", "1e-2"],
                          tmp_path)
    assert status == 0, rep["body"]
    assert rep["body"]["undeformed_limit"]["principal_ratio"] < 1e-9


def test_laurent_transform_is_window_batched(monkeypatch):
    # the eps^0 transform reads a circle of samples taken as one stack:
    # each product is one ring multiply over every sample, so a circle
    # of twice the samples makes no more multiplies
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
    counts = []
    for nodes in (32, 64):
        monkeypatch.setattr(wall, "CIRCLE_NODES", nodes)
        del calls[:]
        [(_, m)] = wall.undeformed_transforms(ctx, (), (wall.fm_transform,))
        assert m.samples == nodes and m.undeformed_pass
        counts.append(len(calls))
    assert counts[0] == counts[1] and 0 < counts[0] <= 150, counts


def test_no_command_calls_einsum(monkeypatch):
    # every sector-algebra product, of elements and batches, goes through
    # SectorAlgebra.multiply
    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", refuse)
    for argv in (["fm"], ["ac"], ["verify", "--depth", "0"], ["oracle"],
                 ["gamma-eval"], ["dual-eval"]):
        argv += ["--fixture", "conifold"]
        status, _ = cli.run(argv[0], cli.build_parser().parse_args(argv))
        assert status == 0, argv


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
