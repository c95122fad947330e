"""End-to-end acceptance battery over the two bundled fixtures.

Each test checks one headline property at its stated tolerance and prints
a single pass/fail line; run with -s (or read captured output) to see
the summary table.
"""

import numpy as np
import pytest

from gkzflop import (
    CompactKModule,
    TruncationPolicy,
    canonical_lift,
    pde_residuals,
)
from gkzflop import wall
from gkzflop.series import exponent_table, term_values
from gkzflop.toric import Lift

from support import residue, run_box_bijection


def emit(label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def both_sides(pack):
    return (("plus", pack.t_plus), ("minus", pack.t_minus))


def test_pde_suite_exact_residuals(packs):
    """Derivative recursion and Euler identities, both systems, M=20."""
    policy = TruncationPolicy(degree_bound=20, tail_check=False)
    worst_boundary = 0.0
    ok = True
    for name, pack in packs.items():
        x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(pack.data.n))
        primal_battery = wall.c_battery(pack.data, 2)
        base = tuple(sum(col) for col in zip(*pack.data.points))
        dual_battery = [base] + [tuple(b + v for b, v in zip(base, p))
                                 for p in pack.data.points]
        for side, t in both_sides(pack):
            for which, battery in (("primal", primal_battery),
                                   ("dual", dual_battery)):
                rep = pde_residuals(pack.chamber(t), battery, x, policy,
                                    which=which)
                ok = ok and rep["euler_max"] == 0.0
                ok = ok and rep["interior_residual"] == 0.0
                ok = ok and all(p["mismatches"] == 0 for p in rep["pairs"])
                worst_boundary = max(worst_boundary,
                                     max((p["boundary_max"]
                                          for p in rep["pairs"]), default=0.0))
    emit("pde suite", ok,
         f"euler and interior residuals exactly 0; largest dropped "
         f"boundary term {worst_boundary:.3e} (reported, not bounded)")


def test_box_matches_brute_force_enumeration(packs):
    """Sector lists against direct fractional-shift enumeration, exact."""
    count = 0
    for name, pack in packs.items():
        for side, t in both_sides(pack):
            run_box_bijection(pack.data, t)
            count += 1
    emit("box bijection", True,
         f"exact set equality on {count} (fixture, side) pairs, "
         f"battery 0 and all unit shifts")


def test_contour_oracle_matches_pole_sums(oracle_reports):
    """Line quadrature vs right/left pole sums at both endpoints."""
    worst_r = worst_l = 0.0
    ok = True
    n_checks = 0
    for name, rep in oracle_reports.items():
        assert abs(rep["y_abs"][0] - 0.1) < 1e-12
        assert abs(rep["y_abs"][1] - 10.0) < 1e-9
        for chk in rep["checks"]:
            n_checks += 1
            worst_r = max(worst_r, chk["right_dev"])
            worst_l = max(worst_l, chk["left_dev"])
            ok = ok and chk["right_dev"] < 1e-7 and chk["left_dev"] < 1e-6
        eps_seen = {chk["eps"] for chk in rep["checks"]}
        ok = ok and eps_seen == {1e-2, 1e-3}
    emit("contour oracle", ok,
         f"{n_checks} generator checks; right dev {worst_r:.2e} < 1e-7, "
         f"left dev {worst_l:.2e} < 1e-6")


def test_two_transform_routes_agree(verify_reports):
    """Matrix-level and end-to-end agreement of the two routes."""
    ok = True
    worst_m = worst_e = worst_p = 0.0
    for name, rep in verify_reports.items():
        samples = rep["matrix"]["samples"]
        ok = ok and len(samples) == 3 and rep["matrix"]["pass"]
        worst_m = max(worst_m, max(s["matrix_dev"] for s in samples))
        ok = ok and rep["laurent"]["pass"]
        worst_p = max(worst_p, rep["laurent"]["principal_ratio"])
        ok = ok and rep["end_to_end"]["pass"]
        worst_e = max(worst_e, rep["end_to_end"]["max_dev"])
    emit("route agreement", ok,
         f"matrix dev {worst_m:.2e} < 1e-10 at 3 eps samples; continued "
         f"vs transformed values dev {worst_e:.2e} < 1e-6; principal "
         f"part {worst_p:.2e} < 1e-9")


def test_nonessential_classes_are_fixed(verify_reports):
    """Blind-to-the-wall classes, one per transform column, are fixed."""
    ok = True
    worst = signal = 0.0
    for name, rep in verify_reports.items():
        inv = rep["invariance"]
        columns = len(rep["laurent"]["entries"][0])
        ok = ok and inv["classes"] == columns and inv["pass"]
        worst = max(worst, inv["max_dev"])
        signal = max(signal, inv["signal"])
    emit("non-essential invariance", ok,
         f"one class R^b prod (1 - R_j) per transform column fixed to "
         f"{worst:.2e} < 1e-10; largest plus-side value {signal:.2e}")


def test_structural_dimensions_and_invertibility(packs, verify_reports):
    """Sector-algebra sums, compact-module rank, and matrix determinant."""
    ok = True
    det_min = float("inf")
    for name, pack in packs.items():
        for side, t in both_sides(pack):
            total = sum(alg.dim
                        for alg in pack.chamber(t).algebras.values())
            ok = ok and total == 2
            ok = ok and CompactKModule(pack.chamber(t)).dim == 2
        for s in verify_reports[name]["matrix"]["samples"]:
            det_min = min(det_min, s["det"])
    ok = ok and det_min > 1e-6
    emit("structural dimensions", ok,
         f"all solution spaces rank 2 on both sides of both fixtures; "
         f"transform |det| >= {det_min:.3f} > 1e-6")


def gamma_family_hit(lp, circuit, m):
    return any(lp[k] - w == m * (-circuit.h[k])
               for k in circuit.I_minus for w in range(0, 40))


def test_residues_vanish_left_and_match_terms_right(packs):
    """Integrand residues: zero at -1, -2; equal to series terms at 0, 1, 2."""
    worst_zero = worst_match = 0.0
    ok = True
    for name, pack in packs.items():
        path = pack.path()
        wc = wall.WallContext(pack.circuit, pack.chamber(pack.t_plus),
                              pack.chamber(pack.t_minus))
        g0 = next(g for g in wc.plus.box if all(v == 0 for v in g.coords))
        ring0 = wc.rings(wc.plus, 0.0)[g0.key()]
        ringe = wc.rings(wc.plus, 1e-2)[g0.key()]
        lp = canonical_lift(pack.data, g0, pack.data.points[1]).values
        line = wall.Line(lp, pack.circuit)
        f0 = wall.make_integrand(path.x_plus, [line], ring0,
                                 wall.LineFactors(ring0))
        for m in (-1, -2):
            res = residue(f0, m)
            worst_zero = max(worst_zero, res.norm())
            ok = ok and res.norm() < 1e-10
        for m in (0, 1, 2):
            if gamma_family_hit(lp, pack.circuit, m):
                res = residue(wall.make_integrand(path.x_plus, [line], ringe,
                                                  wall.LineFactors(ringe)),
                              m, radius=1.5e-3)
                ring = ringe
            else:
                res = residue(f0, m)
                ring = ring0
            l = tuple(v + m * h for v, h in zip(lp, pack.circuit.h))
            ref = ring.algebra.element(
                term_values(path.x_plus, *exponent_table([l]), ring).coords[0])
            dev = (res - ref).norm() / max(ref.norm(), 1.0)
            worst_match = max(worst_match, dev)
            ok = ok and dev < 1e-8
    emit("residue statements", ok,
         f"residues at -1, -2 below {worst_zero:.2e} < 1e-10; at 0, 1, 2 "
         f"match series terms to {worst_match:.2e} < 1e-8")


def test_residue_coefficients_blind_to_lift(packs):
    """Changing the stored lift along the relation must not move C."""
    worst = {"laurent": 0.0, "numeric": 0.0}
    ok = True
    n_pairs = 0
    for name, pack in packs.items():
        wc = wall.WallContext(pack.circuit, pack.chamber(pack.t_plus),
                              pack.chamber(pack.t_minus))
        for mode, eps in (("laurent", None), ("numeric", 1e-2)):
            rings = wc.rings(wc.plus, eps)
            for g in wc.plus.box:
                if g.key() not in wc.essential_plus:
                    continue
                ring = rings[g.key()]
                base = canonical_lift(pack.data, g, (0,) * pack.data.rank)
                for m in (1, 2):
                    vals = tuple(v + m * hv for v, hv in
                                 zip(base.values, pack.circuit.h))
                    other = Lift(sector=base.sector, c=base.c, values=vals)
                    for k in sorted(pack.circuit.I_minus):
                        for r in range(-pack.circuit.h[k]):
                            c1, c2 = (wall.coefficient_C(
                                pack.circuit, g, k,
                                wall.adjacent_data_transport(
                                    pack.data, pack.circuit, pack.t_minus,
                                    g, k, r, lift), ring)
                                for lift in (base, other))
                            dev = (c1 - c2).norm() / max(1.0, c1.norm())
                            worst[mode] = max(worst[mode], dev)
                            ok = ok and dev < 1e-12
                            n_pairs += 1
    emit("lift independence", ok,
         f"{n_pairs} coefficient pairs; laurent dev {worst['laurent']:.2e}, "
         f"numeric dev {worst['numeric']:.2e}, both < 1e-12")
