"""Command-line front end: reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from gkzflop import cli, kernels, rational, rings, wall
from gkzflop import report as reporting
from gkzflop.deform import DeformationRing, EpsSeries
from gkzflop.fixtures import load_fixture, write_fixture
from gkzflop.toric import compute_box, find_circuit
from support import circuit_fixture


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
    ladder_case((1, 1, 1, 1, -2, -2), "0.01",
                "ROADMAP item 1: end_to_end max_dev 0.21"),
    ladder_case((2, 2, -1, -3), "0.005",
                "ROADMAP item 1: end_to_end max_dev 0.60"),
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
    for command in cli.DISPATCH:
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


def test_dual_status(tmp_path):
    status, rep = run_cli(["dual-status", "--fixture", "conifold"], tmp_path)
    assert status == 0
    body = rep["body"]
    assert len(body["implemented"]) == 3
    assert len(body["open"]) == 1
    for slot in body["stub"].values():
        assert slot["raises"] == "UnimplementedPairing"
    assert all(m["dim"] == 2 for m in body["modules"].values())


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
        nullspace=rational.nullspace, rref=lambda rows: ([], [])))
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
    # eight points: the eps^0 coefficient needs a window of n + 1 = 9,
    # one more than the floor that the smaller fixtures use
    path = tmp_path / "circuit.txt"
    path.write_text(write_fixture(*circuit_fixture(
        (1, 1, 1, 1, -1, -1, -1, -1))))
    status, rep = run_cli([command, "--fixture", str(path), "--eps", "1e-2"],
                          tmp_path)
    assert status == 0, rep["body"]
    assert rep["body"]["undeformed_limit"]["principal_ratio"] < 1e-9


def test_laurent_transform_is_window_batched(monkeypatch):
    # a product of two eps-series is one contraction with the
    # multiplication table over the whole window; one contraction per
    # pair of coefficients would make 1,416 here
    data, tris = load_fixture("conifold")
    plus, minus = rings.Chamber(data, tris["plus"]), \
        rings.Chamber(data, tris["minus"])
    ctx = wall.WallContext(find_circuit(data, plus.t, minus.t), plus, minus)
    assert ctx.monomials
    real = np.einsum
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    m = wall.fm_transform(ctx, None)
    assert m.principal_ratio < 1e-9
    assert 0 < len(calls) <= 150


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
