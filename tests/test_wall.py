"""Crossing machinery: endpoints, residue coefficients, transforms, contours."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gkzflop import (
    Chamber,
    Circuit,
    InfeasibleArgs,
    Lift,
    NonFiniteValue,
    PoleOnContour,
    PoleProximity,
    PoleRightOfLine,
    TailBoundViolated,
    TruncationPolicy,
    canonical_lift,
    compute_box,
    find_circuit,
    parse_fixture,
    select_endpoints,
)
from gkzflop import cli, deform, kernels, wall
from gkzflop.series import enumerate_terms, exponent_table, sum_rows, \
    term_values
from support import LOCAL_P2, SMALL_CIRCUITS, TRAPEZOID, circuit_fixture, \
    reference_circles, reference_first_right, reference_integrand, \
    reference_left_residue_sum, reference_line_battery, \
    reference_line_integrand, reference_line_oracle, reference_place_line, \
    reference_pole_model, residue


def trivial_sector(wc):
    return next(g for g in wc.plus.box if all(v == 0 for v in g.coords))


def wall_context(pack):
    return wall.WallContext(pack.circuit, pack.chamber(pack.t_plus),
                            pack.chamber(pack.t_minus))


def plus_ring(wc, g, eps):
    return wc.rings(wc.plus, eps)[g.key()]


def pole_angles(wc, g):
    """{(k, r): {route: (theta, coords2)}} of an essential plus sector."""
    return {(k, r): angles for k, r, angles in wc.poles[g.key()]}


def line_integrand(x, line, ring):
    """make_integrand on the stack of line alone, with a table of its own."""
    return wall.make_integrand(x, [line], ring, wall.LineFactors(ring))


def alone(f):
    """f, an integrand on a stack of one line, returning that line's block."""
    def g(s):
        vals = f(s)
        return vals.algebra.element(vals.coords[0])
    g.decay, g.arg_y = f.decay, f.arg_y
    return g


def line_oracle(x, lp, circuit, ring, s0=None, height=14.0):
    """mb_contour_oracle on the Line of (lp, circuit, s0), and the line."""
    line = wall.Line(lp, circuit, s0)
    (q, dg), = wall.mb_contour_oracle(line_integrand(x, line, ring), [line],
                                      height)
    return q, dg, line


def transported_C(pack, g, k, r, ring, lift):
    angles = wall.adjacent_data_transport(pack.data, pack.circuit,
                                          pack.t_minus, g, k, r, lift)
    return wall.coefficient_C(pack.circuit, g, k, angles, ring)


def test_select_endpoints_geometry(pack):
    circ = pack.circuit
    h2 = sum(v * v for v in circ.h)
    amp = math.log(100.0) / h2
    for amplitude in (amp, None):   # None: the default, |y| = 1 / y_abs
        path = select_endpoints(circ, amplitude, 0.1)
        assert abs(path.y_abs_plus - 0.1) < 1e-15
        assert abs(path.y_abs_minus - 0.1 * math.exp(amp * h2)) < 1e-12
        if amplitude is None:
            assert path.y_abs_minus == pytest.approx(1 / 0.1, rel=1e-12)
        mod_p, arg_p = wall.y_value(circ, path.x_plus)
        assert abs(mod_p - 0.1) < 1e-12 and abs(arg_p + math.pi) < 1e-12
        mod_m, arg_m = wall.y_value(circ, path.x_minus)
        assert abs(mod_m - path.y_abs_minus) < 1e-9 * path.y_abs_minus
        assert abs(arg_m + math.pi) < 1e-12


def test_select_endpoints_rejects_bad_args(pack):
    circ = pack.circuit
    with pytest.raises(InfeasibleArgs):
        select_endpoints(circ, 1.0, 1.5)
    with pytest.raises(InfeasibleArgs):
        select_endpoints(circ, 1.0, 0.0)
    with pytest.raises(InfeasibleArgs):
        select_endpoints(circ, -1.0, 0.1)
    with pytest.raises(InfeasibleArgs):
        select_endpoints(circ, 1e-6, 0.1)  # cannot reach |y| > 1


def test_residue_coefficients_a1(a1):
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, None)
    alg = wc.plus.algebras[g0.key()]
    angles = pole_angles(wc, g0)
    t = alg.divisor(0)
    want = {0: alg.scalar(-1.0) - t * 0.5, 1: t * 0.5}
    for route in ("transport", "pole"):
        for r, target in want.items():
            c = wall.coefficient_C(a1.circuit, g0, 1, angles[1, r][route],
                                   ring)
            got = ring.eps_zero(c)
            assert (got - target).norm() < 1e-12, (route, r)
            assert ring.principal_ratio(c) < 1e-12


def test_residue_coefficients_conifold_pair(conifold):
    # the two simple-pole coefficients each blow up like 1/eps but the
    # poles cancel exactly in their sum, leaving -1
    wc = wall_context(conifold)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, None)
    alg = wc.plus.algebras[g0.key()]
    angles = pole_angles(wc, g0)
    total = None
    for k in (1, 2):
        c = wall.coefficient_C(conifold.circuit, g0, k,
                               angles[k, 0]["transport"], ring)
        assert c.val == -1
        assert c.principal_norm() > 0.5
        total = c if total is None else total + c
    assert ring.principal_ratio(total) < 1e-13
    value = ring.eps_zero(total)
    assert (value - alg.scalar(-1.0)).norm() < 1e-12


def test_frozen_transform_matrices(pack):
    wc = wall_context(pack)
    ac = wall.ac_transform(wc, None)
    fm = wall.fm_transform(wc, None)
    assert np.abs(ac.entries - fm.entries).max() < 1e-12
    assert max(ac.principal_ratio, fm.principal_ratio) < 1e-9
    frozen = {
        "a1": np.array([[1.0, 0.0], [0.5, -0.5]]),
        "conifold": np.eye(2),
    }[pack.name]
    assert np.abs(ac.entries - frozen).max() < 1e-10
    assert ac.entries.shape == (len(wc.rows), len(wc.cols)) == (2, 2)


@pytest.mark.parametrize("build", [wall.fm_transform, wall.ac_transform],
                         ids=["fm", "ac"])
def test_laurent_transform_does_not_depend_on_the_window(monkeypatch,
                                                         build):
    # the principal ratio is read against the coefficients at eps^k,
    # k <= 0, so a window wider than n + 1 = 7 moves neither it nor the
    # eps^0 entries
    data, tris = circuit_fixture((1, 1, 1, -1, -1, -1))
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    circuit = find_circuit(data, plus.t, minus.t)
    got = []
    for width in (7, 8, 12, 16):
        monkeypatch.setattr(deform, "laurent_window", lambda data, w=width: w)
        m = build(wall.WallContext(circuit, plus, minus), None)
        got.append((m.principal_ratio, m.entries))
    ratio, entries = got[0]
    assert 0 < ratio < 1e-9
    for other_ratio, other_entries in got[1:]:
        assert other_ratio == ratio
        assert np.array_equal(other_entries, entries)


def unit_character(h):
    """An integer b with h . b = 1, by the extended gcd (gcd h = 1)."""
    def egcd(a, b):
        if b == 0:
            return a, 1, 0
        g, x, y = egcd(b, a % b)
        return g, y, x - (a // b) * y
    g, b = 0, [0] * len(h)
    for j, v in enumerate(h):
        g, p, q = egcd(g, v)
        b = [p * bi for bi in b]
        b[j] = q
    return tuple(g * bi for bi in b)     # g = +-1


# the fixed offsets 0, ..., n-1 cannot separate these crossings' poles
OFFSET_REFUSED = [(3, -1, -2), (3, 2, -2, -3), (3, 2, -1, -2, -2),
                  (3, 1, -1, -1, -2), (2, 2, -1, -1, -2),
                  (3, 3, -1, -1, -2, -2)]


def test_laurent_transform_does_not_depend_on_its_monomial_basis():
    # T maps the minus-side localization values onto the plus-side ones,
    # so any basis of Laurent monomials with full-rank values gives the
    # same T: the greedy wall.monomials and the window characters
    # b_w = w b_1, w = 0, ..., eta - 1, with h . b_1 = 1, agree to 1.0e-12
    # on every buildable census crossing
    built = 0
    for h in SMALL_CIRCUITS:
        data, tris = circuit_fixture(h)
        plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
        circuit = find_circuit(data, plus.t, minus.t)
        if h in OFFSET_REFUSED:
            with pytest.raises(InfeasibleArgs, match="deformation offsets"):
                wall.WallContext(circuit, plus, minus)
            continue
        wc = wall.WallContext(circuit, plus, minus)
        greedy = wall.fm_transform(wc, None).entries
        b1 = unit_character(circuit.h)
        assert sum(hj * bj for hj, bj in zip(circuit.h, b1)) == 1
        wc.monomials = tuple(tuple(w * bj for bj in b1)
                             for w in range(len(wc.cols)))
        window = wall.fm_transform(wc, None).entries
        scale = np.abs(greedy).max()
        assert np.abs(window - greedy).max() <= 1e-9 * scale, h
        built += 1
    assert built == len(SMALL_CIRCUITS) - len(OFFSET_REFUSED) == 44


def test_transforms_at_generic_eps(pack):
    wc = wall_context(pack)
    ac = wall.ac_transform(wc, 1e-2)
    fm = wall.fm_transform(wc, 1e-2)
    scale = max(np.abs(fm.entries).max(), 1.0)
    assert np.abs(ac.entries - fm.entries).max() / scale < 1e-10
    assert abs(np.linalg.det(fm.entries)) > 1e-6


def test_integrand_forms_agree(pack):
    wc = wall_context(pack)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, 1e-2)
    lp = canonical_lift(pack.data, g0, pack.data.points[1]).values
    x = pack.path().x_plus
    f1 = reference_integrand(x, lp, pack.circuit, ring)
    f2 = alone(line_integrand(x, wall.Line(lp, pack.circuit), ring))
    for s in (0.3 + 2.0j, -0.7 - 1.4j, 1.2 + 0.15j):
        a, b = f1(s), f2(s)
        assert (a - b).norm() <= 1e-11 * max(1.0, b.norm()), s


@pytest.mark.parametrize("form", [1, 2])
def test_batched_integrand_matches_node_by_node(pack, form):
    wc = wall_context(pack)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, 1e-2)
    lp = canonical_lift(pack.data, g0, pack.data.points[1]).values
    x = pack.path().x_plus
    f = reference_integrand(x, lp, pack.circuit, ring) if form == 1 \
        else line_integrand(x, wall.Line(lp, pack.circuit), ring)
    lead = () if form == 1 else (1,)      # a stack of one line
    rng = np.random.default_rng(4)
    s = rng.uniform(-1.5, 2.5, 24) + 1j * rng.uniform(-6.0, 6.0, 24)
    batch = f(s)
    assert batch.coords.shape == lead + (24, ring.algebra.dim)
    for row, node in zip(batch.coords.reshape(24, -1), s):
        want = f(node).coords
        assert want.shape == lead + (ring.algebra.dim,)
        want = want.reshape(-1)
        assert np.abs(row - want).max() <= 1e-13 * np.abs(want).max(), node


def test_batched_integrand_guards_every_node(a1):
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, 0.0)
    lp = canonical_lift(a1.data, g0, a1.data.points[1]).values
    f = line_integrand(a1.path().x_plus, wall.Line(lp, a1.circuit), ring)
    s = 0.5 + 1j * np.linspace(-3.0, 3.0, 24)
    f(s)
    # an integer point, and a removable point: 1/Gamma(-2) cancels the
    # ratio-factor pole at s = 1/2, yet the formula gives 0 there
    for bad in (2.0 + 1e-9, 0.5):
        s[17] = bad
        with pytest.raises(PoleProximity):
            f(s)


def test_guard_hits_every_model_point_across_a_wide_batch(packs):
    # a twisted generator of (2,3,-3,-2): l'_3 = -3/2 with h_3 = -3 puts
    # ratio poles (w >= 0) at fractional s = -1/2 - w/3; one batch spans
    # more than 10 units of Re s, as a round of residue circles does
    [(x, lp, circuit, ring)] = [
        case for case in oracle_generators(packs, (2, 3, -3, -2), 1e-2)
        if case[1][2] == Fraction(-3, 2)]
    line = wall.Line(lp, circuit)
    f = line_integrand(x, line, ring)
    lo, hi = -11.0, 0.4
    model = line.pole_model(lo, hi)
    kinds = dict(model)
    assert kinds[Fraction(-5, 6)] == "ratio"
    assert {"integer", "ratio", "removable"} <= set(kinds.values())
    base = np.linspace(lo, hi, 40) + 0.3j
    f(base)
    # -1/3 is no model point: 1/3 off the integers, 1/6 off the family
    # of l'_3 and not a half-integer of the family of l'_4
    f(np.concatenate([base, [-1.0 / 3]]))
    guard = wall.GUARD
    with np.errstate(all="ignore"):
        for p, kind in model:
            p = float(p)
            for off in (2 * guard, -2 * guard, 2j * guard):
                f(np.concatenate([base, [p + off]]))
            for off in (0.0, guard / 2, -guard / 2, 0.5j * guard):
                with pytest.raises(PoleProximity):
                    f(np.concatenate([base, [p + off]]))


def test_integrand_needs_a_sampled_eps(a1):
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    lp = canonical_lift(a1.data, g0, a1.data.points[1]).values
    with pytest.raises(InfeasibleArgs):
        line_integrand(a1.path().x_plus, wall.Line(lp, a1.circuit),
                       plus_ring(wc, g0, None))


def test_pole_model_kinds_on_a1(a1):
    # l' = (0, -1, 0), h = (1, -2, 1): ratio-factor points (-1 - w) / 2
    line = wall.Line((0, -1, 0), a1.circuit)
    got = line.pole_model(-1, 1)
    assert got == [(-1, "ratio"), (Fraction(-1, 2), "ratio"), (0, "integer"),
                   (Fraction(1, 2), "removable"), (1, "integer")]
    assert line.pole_model(0.1, 0.4) == []


def test_moving_the_line_one_step_picks_up_one_residue(a1):
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, 0.0)
    lp = canonical_lift(a1.data, g0, a1.data.points[1]).values
    x = a1.path().x_plus
    near, _, line = line_oracle(x, lp, a1.circuit, ring, 0.5)
    far = line_oracle(x, lp, a1.circuit, ring, 1.5)[0]
    res = residue(line_integrand(x, line, ring), 1.0)
    assert (near - far - res).norm() < 1e-9 * max(1.0, res.norm())


def test_contour_autoperturbs_off_a_pole(a1):
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, 0.0)
    lp = canonical_lift(a1.data, g0, a1.data.points[1]).values
    x = a1.path().x_plus
    moved, _, line = line_oracle(x, lp, a1.circuit, ring, 1.0)
    assert line.s0 == pytest.approx(1.25)
    clean, _, _ = line_oracle(x, lp, a1.circuit, ring, 1.25)
    assert (moved - clean).norm() < 1e-12 * max(1.0, clean.norm())


def test_pole_on_contour_when_no_clear_line():
    # a synthetic steep circuit packs ratio-factor poles 0.2 apart, so the
    # requested line and both fallback candidates all sit on poles
    steep = Circuit(h=(1, -5, 1), plus_label="p", minus_label="m")
    with pytest.raises(PoleOnContour):
        wall.Line((0, -1, 0), steep, -0.4)


def outcome(fn, *args):
    """fn(*args), or the type and message of the pole error it raises."""
    try:
        return fn(*args)
    except (PoleOnContour, PoleRightOfLine) as exc:
        return type(exc).__name__, str(exc)


def placed(lp, circuit, s0):
    line = outcome(wall.Line, lp, circuit, s0)
    if isinstance(line, wall.Line):
        return line, (line.s0, line.distance)
    return None, line


@pytest.mark.parametrize("name", ["a1", "conifold", "local_p2",
                                  *SMALL_CIRCUITS],
                         ids=lambda n: n if isinstance(n, str)
                         else "h=" + ",".join(map(str, n)))
def test_line_matches_the_per_call_pole_model(packs, name):
    # one Line per generator places the line, splits the orbit and lists
    # the residue circles as the per-call functions did, on every
    # plus-side generator of a depth-2 battery and six requested lines.
    # The circles depend on l' only through the families, so they are
    # compared once per family tuple and placed line; a circle list
    # spans 42 units of exact points, so on the census circuits only
    # the default line's is compared
    census = name in SMALL_CIRCUITS
    if name in packs:
        data, tris = packs[name].data, packs[name].tris
    elif name == "local_p2":
        data, tris = parse_fixture(LOCAL_P2)
    else:
        data, tris = circuit_fixture(name)
    t = tris["plus"]
    circuit = find_circuit(data, t, tris["minus"])
    box = compute_box(data, t)
    generators = {term.l for c in wall.c_battery(data, 2) for g in box
                  for term in enumerate_terms(data, t, c, g,
                                              TruncationPolicy(), circuit)
                  if term.generator}
    assert generators
    compared = set()
    for lp in sorted(generators):
        for s0 in (None, -0.5, 0.5, 1.0, 1.25, 2.5):
            line, got = placed(lp, circuit, s0)
            assert got == outcome(reference_place_line, lp, circuit, s0)
            if line is None:
                continue
            assert outcome(lambda: line.first_right) \
                == outcome(reference_first_right, lp, circuit, line.s0)
            assert all(type(v) is int for row in line.orbit(-1, 1)
                       for v in row)
            assert [tuple(Fraction(v, line.den) for v in row)
                    for row in line.orbit(-1, 1)] == [
                tuple(v + m * hv for v, hv in zip(lp, circuit.h))
                for m in (-1, 0, 1)]
            lo, hi = line.s0 - 1.25, line.s0 + 1.25
            assert line.pole_model(lo, hi) \
                == reference_pole_model(lp, circuit, lo, hi)
            key = (line.families, line.s0)
            if key in compared or (s0 is not None and census):
                continue
            compared.add(key)
            centers, radii = line.circles
            assert list(zip(centers.tolist(), radii.tolist())) \
                == reference_circles(lp, circuit, line.s0)


def gamma_family_hit(lp, circuit, m):
    return any(lp[k] - w == m * (-circuit.h[k])
               for k in circuit.I_minus for w in range(0, 40))


def test_restored_residues_match_series_terms(pack):
    path = pack.path()
    wc = wall_context(pack)
    g0 = trivial_sector(wc)
    ring0 = plus_ring(wc, g0, 0.0)
    lp = canonical_lift(pack.data, g0, pack.data.points[1]).values
    line = wall.Line(lp, pack.circuit)
    f0 = line_integrand(path.x_plus, line, ring0)
    for m in (-1, -2):
        res = residue(f0, m)
        assert res.norm() < 1e-10, m
    ringe = plus_ring(wc, g0, 1e-2)
    checked_nonzero = 0
    for m in (0, 1, 2):
        if gamma_family_hit(lp, pack.circuit, m):
            # a family pole merges with the integer point: separate at
            # small eps and enclose only the integer pole
            res = residue(line_integrand(path.x_plus, line, ringe), m,
                          radius=1.5e-3)
            ring = ringe
        else:
            res = residue(f0, m)
            ring = ring0
        l = tuple(v + m * h for v, h in zip(lp, pack.circuit.h))
        ref = ring.algebra.element(
            term_values(path.x_plus, *exponent_table([l]), ring).coords[0])
        dev = (res - ref).norm() / max(ref.norm(), 1.0)
        assert dev < 1e-8, m
        if ref.norm() > 1e-6:
            checked_nonzero += 1
    assert checked_nonzero >= 1


def shifted_lift(lift, h, m):
    vals = tuple(v + m * hv for v, hv in zip(lift.values, h))
    return Lift(sector=lift.sector, c=lift.c, values=vals)


@pytest.mark.parametrize("eps", [None, 1e-2])
def test_coefficients_independent_of_lift(pack, eps):
    wc = wall_context(pack)
    circ = pack.circuit
    for g in wc.plus.box:
        if g.key() not in wc.essential_plus:
            continue
        ring = plus_ring(wc, g, eps)
        base = canonical_lift(pack.data, g, (0,) * pack.data.rank)
        for m in (1, 2, -1):
            other = shifted_lift(base, circ.h, m)
            for k in sorted(circ.I_minus):
                for r in range(-circ.h[k]):
                    c1 = transported_C(pack, g, k, r, ring, base)
                    c2 = transported_C(pack, g, k, r, ring, other)
                    diff = c1 - c2
                    assert diff.norm() < 1e-12 * max(1.0, c1.norm()), \
                        (g.key(), k, r, m)


# -- the trapezoid line rule --------------------------------------------


def a1_line(a1, eps=0.0):
    """(x, l', ring) of a1's generator l' = 0, whose line is Re s = 1/2."""
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    return a1.path().x_plus, (0, 0, 0), plus_ring(wc, g0, eps)


def recording(f, calls):
    """f with every array of nodes it is called on appended to calls."""
    def g(s):
        calls.append(np.array(s, dtype=complex))
        return f(s)
    g.decay, g.arg_y = f.decay, f.arg_y
    return g


def test_line_nodes_miss_the_removable_point(a1):
    x, lp, ring = a1_line(a1)
    line = wall.Line(lp, a1.circuit)
    assert (Fraction(1, 2), "removable") in line.pole_model(0, 1)
    calls = []
    f = recording(line_integrand(x, line, ring), calls)
    (_, diag), = wall.mb_contour_oracle(f, [line], 14.0)    # no guard hit
    assert line.s0 == 0.5
    assert len(calls) == 1 and len(calls[0]) == diag["nodes"] + 2
    line = calls[0][:diag["nodes"]]
    assert len(line) == diag["nodes"] and np.all(line.real == 0.5)
    for level in (line, line[::2]):    # fine, and coarse
        assert np.abs(level.imag).min() == pytest.approx(diag["step"] / 2)


def test_one_integrand_call_gives_both_levels(a1):
    x, lp, ring = a1_line(a1, 1e-2)
    line = wall.Line(lp, a1.circuit)
    calls, vals = [], []
    f = values_of(recording(line_integrand(x, line, ring), calls), vals)
    (fine, diag), = wall.mb_contour_oracle(f, [line], 14.0)
    # the 642 line nodes and the two tail probes, in one call
    assert len(calls) == 1 and len(calls[0]) == 644
    assert diag["nodes"] == 642
    assert diag["step"] == pytest.approx(28.0 / 642)
    w = -diag["step"] / (2 * math.pi)
    nodes = vals[0][0, :642]
    assert np.allclose(fine.coords, nodes.sum(axis=0) * w,
                       rtol=0, atol=1e-15)
    coarse = nodes[::2].sum(axis=0) * 2 * w
    assert diag["est_error"] == pytest.approx(
        np.abs(fine.coords - coarse).max(), rel=0, abs=1e-15)


def test_one_kernel_call_per_line_and_per_circle(pack, monkeypatch):
    # the integrand evaluates its n Gamma factors in one kernel call, a
    # line's two tail probes share the line's integrand call, and the
    # circles of one round of a left residue sum share one integrand call
    wc = wall_context(pack)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, 1e-2)
    lp = canonical_lift(pack.data, g0, pack.data.points[1]).values
    x = pack.path().x_plus
    integrand, kernel, circles = [], [], []
    real_kernel, real_circle = kernels.recip_gamma_series, wall.residue_at

    def counted_kernel(z, kmax):
        kernel.append(np.shape(z))
        return real_kernel(z, kmax)

    def counted_circle(f, centers, radii):
        circles.append(np.size(centers))      # the centres of one round
        return real_circle(f, centers, radii)

    monkeypatch.setattr(kernels, "recip_gamma_series", counted_kernel)
    monkeypatch.setattr(wall, "residue_at", counted_circle)
    line = wall.Line(lp, pack.circuit)
    f = recording(line_integrand(x, line, ring), integrand)
    (_, diag), = wall.mb_contour_oracle(f, [line], 14.0)
    assert len(integrand) == 1
    assert kernel == [(pack.data.n * (diag["nodes"] + 2),)]
    del integrand[:], kernel[:]
    wall.left_residue_sum(f, line)
    assert circles and len(integrand) == len(circles)
    assert kernel == [(pack.data.n * 64 * c,) for c in circles]
    full = [wall._ROUND * 2 ** i for i in range(len(circles))]
    assert circles[:-1] == full[:-1] and 0 < circles[-1] <= full[-1]


# -- left residue sums in rounds ----------------------------------------


ROUND_CASES = ["a1", "conifold", (1, 2, -3), (2, 3, -3, -2), (1, 1, 1, -3)]


def oracle_generators(packs, name, eps):
    """(x, l', circuit, ring) of every generator oracle sums left, at eps.

    The generators of c = 0 in the essential plus sectors, at the far
    endpoint of oracle's default path.
    """
    if name in packs:
        data, tris = packs[name].data, packs[name].tris
    else:
        data, tris = circuit_fixture(name)
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    circuit = find_circuit(data, plus.t, minus.t)
    wc = wall.WallContext(circuit, plus, minus)
    x = select_endpoints(circuit, None, 0.1).x_minus
    rings = wc.rings(plus, eps)
    out = []
    for g in plus.box:
        if g.key() in wc.essential_plus:
            out += [(x, term.l, circuit, rings[g.key()])
                    for term in enumerate_terms(data, plus.t, (0,) * data.rank,
                                                g, TruncationPolicy(), circuit)
                    if term.generator]
    return out


def poisoned(f, center, radius):
    """f with NaN values at the nodes of the circle (center, radius)."""
    def g(s):
        vals = f(s)
        vals.coords[:, np.abs(np.asarray(s) - center) < 1.2 * radius] = \
            np.nan
        return vals
    g.decay, g.arg_y = f.decay, f.arg_y
    return g


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("name", ROUND_CASES,
                         ids=["a1", "conifold", "h=1,2,-3", "h=2,3,-3,-2",
                              "h=1,1,1,-3"])
def test_residue_rounds_match_the_one_circle_loop(packs, name, eps):
    # the rounds sum the same circles, bit for bit, as one integrand call
    # per circle, stop at the same circle, and take at most
    # ceil(log2(c / 4 + 1)) integrand calls for c circles summed
    cases = oracle_generators(packs, name, eps)
    assert cases
    for x, lp, circuit, ring in cases:
        line = wall.Line(lp, circuit)
        circles = reference_circles(lp, circuit, line.s0)
        want, summed = reference_left_residue_sum(
            alone(line_integrand(x, line, ring)), circles)
        assert 0 < summed < len(circles), lp
        calls = []
        got = wall.left_residue_sum(
            recording(line_integrand(x, line, ring), calls), line)
        assert np.array_equal(got.coords, want.coords), lp
        assert len(calls) <= math.ceil(math.log2(summed / 4 + 1)), lp
        # the stop falls in the last round, which is evaluated whole
        covered = wall._ROUND * (2 ** len(calls) - 1)
        assert covered - wall._ROUND * 2 ** (len(calls) - 1) < summed, lp
        assert sum(map(len, calls)) == 64 * min(covered, len(circles)), lp
        # NaN on the first circle past the stop: dropped unchecked if its
        # round evaluated it; NaN on the last circle summed: raised
        for index in (summed, summed - 1):
            f = poisoned(line_integrand(x, line, ring), *circles[index])
            if index < summed:
                with pytest.raises(NonFiniteValue):
                    wall.left_residue_sum(f, line)
            else:
                got = wall.left_residue_sum(f, line)
                assert np.array_equal(got.coords, want.coords), lp
    if name == (2, 3, -3, -2):
        assert any(Fraction(lp[k]).denominator > 1
                   for _, lp, circuit, _ in cases for k in circuit.I_minus)


def test_a1_line_integral_matches_mpmath(a1):
    # at eps = 0 the sector algebra is spanned by 1 and t, with D_j = c_j t
    # and t^2 = 0.  The ratio factor's numerator 1 - e^{-D_1} = c_1 t, so
    # the integrand is c_1 t G(s), with G its D = 0 form without that
    # numerator: 2 pi i / ((1 - e^{-2 pi i s}) (1 - e^{-2 pi i s h_1}))
    # times prod_j x_j^{s h_j} / Gamma(1 + s h_j).
    x, lp, ring = a1_line(a1)
    got, _, _ = line_oracle(x, lp, a1.circuit, ring)
    h = a1.circuit.h
    c1 = ring.divisor(1).coords
    assert c1[0] == 0
    with mpmath.workdps(30):
        tpi = 2j * mpmath.pi
        logx = [mpmath.log(mpmath.mpc(v)) for v in x]

        def g(t):
            s = mpmath.mpf(1) / 2 + 1j * t
            acc = tpi / ((1 - mpmath.exp(-tpi * s))
                         * (1 - mpmath.exp(-tpi * s * h[1])))
            for hj, lg in zip(h, logx):
                acc *= mpmath.exp(s * hj * lg) * mpmath.rgamma(1 + s * hj)
            return acc

        line = complex(-mpmath.quad(g, [-14, -6, -2, 0, 2, 6, 14])
                       / (2 * mpmath.pi))
    want = c1 * line
    assert np.abs(got.coords - want).max() <= 1e-12 * np.abs(want).max()


def test_underresolved_step_fails_the_checks(a1, monkeypatch):
    # e^-12 on the coarse level: both levels still land near the pole sums,
    # but |fine - coarse| is far above every tolerance
    monkeypatch.setattr(wall, "LINE_EXPONENT", 12)
    plus, minus = a1.chamber(a1.t_plus), a1.chamber(a1.t_minus)
    rep = wall.oracle_report(a1.circuit, plus, minus, eps_values=(1e-2,),
                             y_abs=0.1, amplitude=None,
                             policy=TruncationPolicy(),
                             spec=wall.ContourSpec())
    for chk in rep["checks"]:
        assert chk["right_dev"] < 1e-7 and chk["left_dev"] < 1e-6
        assert not chk["right_pass"] and not chk["left_pass"]
        assert chk["nodes"] == [214, 214]
    assert rep["pass"] is False
    rep = wall.verify_fm_equals_ac(
        a1.circuit, plus, minus, eps_samples=(1e-2, 5e-3, 2e-3), depth=0,
        y_abs=0.1, amplitude=None, policy=TruncationPolicy(degree_bound=25),
        spec=wall.ContourSpec())
    e2e = rep["end_to_end"]
    assert e2e["max_dev"] < 1e-6
    assert not any(row["pass"] for row in e2e["battery"])
    assert e2e["pass"] is False and rep["pass"] is False


def test_nan_quadrature_error_fails_the_row(a1, monkeypatch):
    oracle = wall.mb_contour_oracle

    def poisoned(*args):
        return [(q, {**dg, "est_error": math.nan}) for q, dg in oracle(*args)]
    monkeypatch.setattr(wall, "mb_contour_oracle", poisoned)
    plus, minus = a1.chamber(a1.t_plus), a1.chamber(a1.t_minus)
    rep = wall.oracle_report(a1.circuit, plus, minus, eps_values=(1e-2,),
                             y_abs=0.1, amplitude=None,
                             policy=TruncationPolicy(),
                             spec=wall.ContourSpec())
    assert all(math.isnan(c["est_error"]) for c in rep["checks"])
    assert not any(c["right_pass"] or c["left_pass"] for c in rep["checks"])
    rep = wall.verify_fm_equals_ac(
        a1.circuit, plus, minus, eps_samples=(1e-2, 5e-3, 2e-3), depth=0,
        y_abs=0.1, amplitude=None, policy=TruncationPolicy(degree_bound=25),
        spec=wall.ContourSpec())
    assert not rep["end_to_end"]["pass"]


@pytest.mark.parametrize("name", ["a1", "conifold", (1, 2, -3),
                                  (2, 3, -3, -2)],
                         ids=["a1", "conifold", "h=1,2,-3", "h=2,3,-3,-2"])
def test_battery_vectors_do_not_depend_on_the_battery(packs, name):
    # each c of a battery gets, to the last bit, the vectors of a battery
    # of that c alone, on both sides of the wall
    if name in packs:
        data, tris = packs[name].data, packs[name].tris
    else:
        data, tris = circuit_fixture(name)
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    circuit = find_circuit(data, plus.t, minus.t)
    wc = wall.WallContext(circuit, plus, minus)
    rings_plus = wc.rings(plus, 0.0)
    x = select_endpoints(circuit, None, 0.1).x_minus
    policy = TruncationPolicy(degree_bound=25)
    battery = wall.c_battery(data, 1)
    spec = wall.ContourSpec()
    continued = wall.continued_vector(wc, rings_plus, battery, x, policy,
                                      spec)
    values = wall.gamma_vector(minus, battery, x, policy)
    assert len(continued) == len(values) == len(battery) > 1
    assert any(np.abs(vec).max() > 0 for vec, _ in continued)
    assert any(np.abs(vec).max() > 0 for vec in values)
    for c, (vec, diag), value in zip(battery, continued, values):
        [(alone, alone_diag)] = wall.continued_vector(wc, rings_plus, [c], x,
                                                      policy, spec)
        assert (vec == alone).all() and diag == alone_diag, c
        [alone] = wall.gamma_vector(minus, [c], x, policy)
        assert (value == alone).all(), c


def test_nonessential_leftovers_are_summed_directly(a1, monkeypatch):
    # a1 has no non-essential terms (the trapezoid has six, see
    # test_trapezoid_sums_its_nonessential_leftovers); mark every term
    # non-essential and the continued vector of each c is its plain
    # near-side series sum, with no line integrated
    real = wall.enumerate_terms

    def nonessential(*args):
        return [dataclasses.replace(term, essential=False, generator=False)
                for term in real(*args)]
    monkeypatch.setattr(wall, "enumerate_terms", nonessential)
    wc = wall_context(a1)
    plus = wc.plus
    rings = wc.rings(plus, 0.0)
    x = a1.path().x_minus
    policy = TruncationPolicy(degree_bound=12)
    battery = wall.c_battery(a1.data, 1)
    continued = wall.continued_vector(wc, rings, battery, x, policy,
                                      wall.ContourSpec())
    for c, (vec, diag) in zip(battery, continued):
        want = {}
        for g in plus.box:
            terms = real(plus.data, plus.t, c, g, policy, a1.circuit)
            want[g.key()] = sum_rows(term_values(
                x, [t.num for t in terms], terms[0].den if terms else 1,
                rings[g.key()]))
        assert (vec == wall._stack(plus, want)).all(), c
        assert diag == {"est_error": 0.0, "nodes": 0}
    assert any(np.abs(vec).max() > 0 for vec, _ in continued)


def trapezoid_wall():
    data, tris = parse_fixture(TRAPEZOID)
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    return wall.WallContext(find_circuit(data, plus.t, minus.t), plus, minus)


def test_trapezoid_sums_its_nonessential_leftovers(monkeypatch):
    # the fifth point lies outside the circuit: six plus-side terms of
    # the depth-2 battery are non-essential, and the continued vector
    # matches the transformed far-side values only with them summed in
    wc = trapezoid_wall()
    real = wall.enumerate_terms
    leftovers = []

    def spy(*args):
        terms = real(*args)
        leftovers.extend(term for term in terms if not term.essential)
        return terms
    monkeypatch.setattr(wall, "enumerate_terms", spy)
    x = select_endpoints(wc.circuit, None, 0.1).x_minus
    policy = TruncationPolicy(degree_bound=25)
    battery = wall.c_battery(wc.plus.data, 2)
    continued = wall.continued_vector(wc, wc.rings(wc.plus, 0.0), battery, x,
                                      policy, wall.ContourSpec())
    assert len(leftovers) == 6
    assert not any(term.generator for term in leftovers)
    t = wall.fm_transform(wc, None).entries
    values = wall.gamma_vector(wc.minus, battery, x, policy)
    for c, (vec, _), value in zip(battery, continued, values):
        assert np.abs(vec - t @ value).max() < 1e-12, c


def test_blind_classes_span_one_direction_on_the_trapezoid():
    # J = {5}: the classes R^b (1 - R_5) span one direction on the minus
    # side, the third column, so the check sees a perturbation of the
    # transform there and none in the first two columns
    wc = trapezoid_wall()
    data = wc.plus.data
    J = wall.nonessential_set(data, wc.circuit, wc.plus.t, wc.minus.t)
    assert J == (4,)
    src = wall.blind_classes(wc.minus, wc.rings(wc.minus, 0.0),
                             wc.monomials, J)
    tgt = wall.blind_classes(wc.plus, wc.rings(wc.plus, 0.0), wc.monomials, J)
    assert len(src) == len(wc.cols) == 3
    t = wall.fm_transform(wc, None).entries

    def worst(entries):
        return max(wall._deviation(entries @ vec, ref)[0]
                   for vec, ref in zip(src, tgt))
    assert worst(t) < 1e-10
    for col, dev in ((0, 0.0), (1, 0.0), (2, 1e-3)):
        bumped = t.copy()
        bumped[:, col] += 1e-3
        assert worst(bumped) == pytest.approx(dev, rel=1e-9, abs=1e-15), col


# -- shared line factors -------------------------------------------------


def values_of(f, out):
    """f with the coordinates of every batch it returns appended to out."""
    def g(s):
        vals = f(s)
        out.append(vals.coords.copy())
        return vals
    g.decay, g.arg_y = f.decay, f.arg_y
    return g


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("name", ["a1", "conifold", (2, 2, -1, -3)],
                         ids=["a1", "conifold", "h=2,2,-1,-3"])
def test_shared_line_factors_are_exact(packs, name, eps, monkeypatch):
    # the generator lines of a depth-2 battery, one LineFactors table per
    # sector and eps, at both endpoints: each line's value, est_error and
    # node values equal those of its integrand on a fresh LineFactors(ring)
    # to the last bit, whatever the table held before it, and the shared
    # tables send fewer Gamma arguments to the kernel
    if name in packs:
        data, tris = packs[name].data, packs[name].tris
    else:
        data, tris = circuit_fixture(name)
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    circuit = find_circuit(data, plus.t, minus.t)
    rings = wall.WallContext(circuit, plus, minus).rings(plus, eps)
    path = select_endpoints(circuit, None, 0.1)
    sent = {"shared": 0, "fresh": 0}
    mode = ["fresh"]
    real_kernel = kernels.recip_gamma_series

    def counted_kernel(z, kmax):
        sent[mode[0]] += np.size(z)
        return real_kernel(z, kmax)
    monkeypatch.setattr(kernels, "recip_gamma_series", counted_kernel)
    lines = 0
    for g in plus.box:
        ring = rings[g.key()]
        factors = wall.LineFactors(ring)
        for c in wall.c_battery(data, 2):
            for term in enumerate_terms(data, plus.t, c, g,
                                        TruncationPolicy(), circuit):
                if not term.generator:
                    continue
                line = wall.Line(term.l, circuit)
                for x in (path.x_plus, path.x_minus):
                    got, want = [], []
                    mode[0] = "shared"
                    (q, dg), = wall.mb_contour_oracle(values_of(
                        wall.make_integrand(x, [line], ring, factors), got),
                        [line], 14.0)
                    mode[0] = "fresh"
                    (q0, dg0), = wall.mb_contour_oracle(values_of(
                        wall.make_integrand(x, [line], ring,
                                            wall.LineFactors(ring)), want),
                        [line], 14.0)
                    assert q.coords.tobytes() == q0.coords.tobytes()
                    assert dg == dg0
                    assert [v.tobytes() for v in got] \
                        == [v.tobytes() for v in want]
                    lines += 1
    assert lines >= 8
    assert 0 < sent["shared"] < sent["fresh"]


@pytest.mark.parametrize("argv, sent", [
    (["verify", "--fixture", "a1"], 5796),
    (["verify", "--fixture", "conifold"], 7728),
    (["oracle", "--fixture", "a1", "--eps", "1e-2", "--eps", "3e-3"], 3864),
    (["oracle", "--fixture", "conifold", "--eps", "1e-2", "--eps", "3e-3"],
     5152)], ids=["verify-a1", "verify-conifold", "oracle-a1",
                  "oracle-conifold"])
def test_lines_send_each_factor_to_the_kernel_once(monkeypatch, argv, sent):
    # the Gamma arguments the lines send (644 nodes and probes a line):
    # one integrand table per line sent 17,388, 36,064, 7,728 and 10,304
    # of them; a table per sector shares the coordinates whose l'_j the
    # sector's lines repeat, and oracle's near and far ends share theirs
    count = {"on": False, "sent": 0}
    real_kernel, real_oracle = kernels.recip_gamma_series, \
        wall.mb_contour_oracle

    def counted_kernel(z, kmax):
        count["sent"] += np.size(z) if count["on"] else 0
        return real_kernel(z, kmax)

    def on_lines(*args):
        count["on"] = True
        try:
            return real_oracle(*args)
        finally:
            count["on"] = False
    monkeypatch.setattr(kernels, "recip_gamma_series", counted_kernel)
    monkeypatch.setattr(wall, "mb_contour_oracle", on_lines)
    status, _ = cli.run(argv[0], cli.build_parser().parse_args(argv))
    assert status == 0
    assert count["sent"] == sent


@pytest.mark.parametrize("s0", [1e9, -1e9])
def test_far_lines_are_refused_before_any_evaluation(packs, s0):
    # 1 + l'_j + h_j s0 lies far left of GAMMA_RE_MIN for some j on
    # either side; the kernel would take one pass per unit of |Re z|
    def never(s):
        raise AssertionError("the integrand was called")
    for pack in packs.values():
        for lp in {term.l for g in pack.chamber(pack.t_plus).box
                   for term in enumerate_terms(
                       pack.data, pack.t_plus, (0,) * pack.data.rank, g,
                       TruncationPolicy(), pack.circuit) if term.generator}:
            line = wall.Line(lp, pack.circuit, s0)
            with pytest.raises(NonFiniteValue, match="1/Gamma overflows"):
                wall.mb_contour_oracle(never, [line], 14.0)


def test_lines_near_the_gamma_bound_are_not_finite(a1):
    # a1's l' = 0 on Re s = 89.5 reaches Re z = 1 - 2 (89.5) = -178 at
    # j = 2, right of the bound: it is evaluated, and the overflow the
    # bound predicts shows on the line; at 90.75 (Re z = -180.5) it is
    # refused unevaluated
    x, lp, ring = a1_line(a1)
    line = wall.Line(lp, a1.circuit, 89.5)
    assert line.s0 == 89.5
    with pytest.raises(NonFiniteValue, match="not finite on the line"):
        wall.mb_contour_oracle(line_integrand(x, line, ring), [line], 14.0)
    line = wall.Line(lp, a1.circuit, 90.75)
    with pytest.raises(NonFiniteValue, match="-180.5 < -180"):
        wall.mb_contour_oracle(line_integrand(x, line, ring), [line], 14.0)


# -- stacks of lines -----------------------------------------------------


def battery_lines(wc, depth=2, s0=None):
    """(sector key, Line) of every generator of the battery, in order."""
    data, plus = wc.plus.data, wc.plus
    return [(g.key(), wall.Line(term.l, wc.circuit, s0))
            for c in wall.c_battery(data, depth) for g in plus.box
            for term in enumerate_terms(data, plus.t, c, g,
                                        TruncationPolicy(degree_bound=25),
                                        wc.circuit)
            if term.generator]


def stacked_values(monkeypatch, out):
    """Patch make_integrand so that each stack's lines and values go to
    out."""
    real = wall.make_integrand

    def spy(x, lines, ring, factors):
        f = real(x, lines, ring, factors)

        def g(s):
            vals = f(s)
            out.append((lines, vals.coords.copy()))
            return vals
        g.decay, g.arg_y = f.decay, f.arg_y
        return g
    monkeypatch.setattr(wall, "make_integrand", spy)


def case_wall(packs, name):
    if name == "trapezoid":
        return trapezoid_wall()
    if name in packs:
        data, tris = packs[name].data, packs[name].tris
    else:
        data, tris = circuit_fixture(name)
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    return wall.WallContext(find_circuit(data, plus.t, minus.t), plus, minus)


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("name", ["a1", "conifold", (2, 2, -1, -3),
                                  "trapezoid"],
                         ids=["a1", "conifold", "h=2,2,-1,-3", "trapezoid"])
def test_stacks_equal_the_per_line_reference(packs, name, eps, monkeypatch):
    # every line of a depth-2 battery, and each generator line of s0 =
    # 1/2 once more on Re s = 1, which moves it to 5/4 at distance 1/4:
    # each stack's lines give the value, est_error, nodes, node values
    # and tail probes of the line alone, to the last bit.  The trapezoid
    # has seven grids in one sector by s0 alone, every case two by the
    # moved lines
    wc = case_wall(packs, name)
    rings = wc.rings(wc.plus, eps)
    lines = battery_lines(wc)
    lines += [(key, wall.Line(line.lprime, wc.circuit, 1.0))
              for key, line in lines if line.s0 == 0.5]
    grids = {(key, line.s0, line.distance) for key, line in lines}
    assert any(line.s0 == 1.25 and line.distance == 0.25
               for _, line in lines)
    assert len(grids) > len({key for key, _ in lines})
    for x in (select_endpoints(wc.circuit, None, 0.1).x_plus,
              select_endpoints(wc.circuit, None, 0.1).x_minus):
        stacks = []
        stacked_values(monkeypatch, stacks)
        factors = {key: wall.LineFactors(ring) for key, ring in rings.items()}
        got = wall._line_values(x, rings, factors, lines, 14.0)
        monkeypatch.undo()
        want = reference_line_battery(x, rings, lines, 14.0)
        assert len(stacks) == len(grids)
        blocks = {id(line): block for stack, coords in stacks
                  for line, block in zip(stack, coords)}
        for (q, dg, terms), (q0, dg0, vals0), (_, line) in zip(got, want,
                                                               lines):
            assert q.coords.tobytes() == q0.coords.tobytes()
            assert dg == dg0
            assert blocks[id(line)].tobytes() == vals0.tobytes()
            assert terms == line.orbit(-wall.M_BACK, line.first_right - 1)


def test_a_later_line_of_a_stack_fails_as_alone(a1, monkeypatch):
    # a1's l' = 0 passes; (-179, 0, 0) on its grid overflows on the line,
    # and (-182, 0, 0) has 1/Gamma argument -180.5, refused unevaluated:
    # the stack raises what the failing line raises alone, and a refused
    # line stops the stack before the kernel
    x, lp, ring = a1_line(a1)
    ok = wall.Line(lp, a1.circuit)
    sent = []
    real_kernel = kernels.recip_gamma_series

    def counted_kernel(z, kmax):
        sent.append(np.min(np.real(z)))
        return real_kernel(z, kmax)
    monkeypatch.setattr(kernels, "recip_gamma_series", counted_kernel)
    for bad, evaluated in (((-179, 0, 0), True), ((-182, 0, 0), False)):
        line = wall.Line(bad, a1.circuit)
        assert (line.s0, line.distance) == (ok.s0, ok.distance)
        reference_line_oracle(reference_line_integrand(x, ok, ring), ok,
                              14.0)
        with pytest.raises(NonFiniteValue) as want:
            reference_line_oracle(reference_line_integrand(x, line, ring),
                                  line, 14.0)
        del sent[:]
        with pytest.raises(NonFiniteValue) as got:
            wall.mb_contour_oracle(
                wall.make_integrand(x, [ok, line], ring,
                                    wall.LineFactors(ring)),
                [ok, line], 14.0)
        assert str(got.value) == str(want.value)
        assert bool(sent) == evaluated
        assert all(v > wall.GAMMA_RE_MIN for v in sent)


@pytest.mark.parametrize("early, s0, error", [
    ((-179, 0, 0), None, NonFiniteValue),
    ((0, 0, 0), -0.5, PoleRightOfLine)], ids=["overflow", "pole-right"])
def test_an_early_line_decides_over_later_lines(a1, monkeypatch, early, s0,
                                                error):
    # the early line fails on its values, or passes its quadrature and
    # then fails its orbit split; later lines on its grid overflow
    # ((-178, 0, 0) on Re s = 1/2 or -1/4) or are refused unevaluated
    # ((-182, 0, 0)): the battery raises the early line's error, as the
    # lines run one at a time would, and no refused line reaches the
    # kernel
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    x, ring = a1.path().x_plus, plus_ring(wc, g0, 0.0)
    key = g0.key()
    rings = {key: ring}
    lines = [(key, wall.Line(lp, a1.circuit, s0))
             for lp in (early, (-182, 0, 0), (-178, 0, 0))]
    assert len({(line.s0, line.distance) for _, line in lines}) == 1
    with pytest.raises(error) as want:
        reference_line_battery(x, rings, lines, 14.0)
    low = []
    real_kernel = kernels.recip_gamma_series

    def counted_kernel(z, kmax):
        low.append(np.min(np.real(z)))
        return real_kernel(z, kmax)
    monkeypatch.setattr(kernels, "recip_gamma_series", counted_kernel)
    with pytest.raises(error) as got:
        wall._line_values(x, rings, {key: wall.LineFactors(ring)}, lines,
                          14.0)
    assert str(got.value) == str(want.value)
    assert low and min(low) > wall.GAMMA_RE_MIN


@pytest.mark.parametrize("height, error", [(0.5, TailBoundViolated),
                                           (14.0, PoleOnContour)],
                         ids=["line-first", "build-first"])
def test_an_error_while_lines_are_built_waits_for_earlier_lines(
        a1, monkeypatch, height, error):
    # the third generator's Line cannot be placed: at half-height 0.5
    # the first line's tails fail first, as when each line ran before the
    # next was built; at 14 every earlier line passes and the placement
    # error is raised
    wc = wall_context(a1)
    built = []

    class Line(wall.Line):
        def __init__(self, lprime, circuit, s0=None):
            built.append(lprime)
            if len(built) == 3:
                raise PoleOnContour("no clear line")
            super().__init__(lprime, circuit, s0)
    monkeypatch.setattr(wall, "Line", Line)
    with pytest.raises(error):
        wall.continued_vector(wc, wc.rings(wc.plus, 0.0),
                              wall.c_battery(a1.data, 2), a1.path().x_minus,
                              TruncationPolicy(degree_bound=25),
                              wall.ContourSpec(height=height))
    assert len(built) == 3


def test_a_stack_never_exceeds_the_node_cap(monkeypatch):
    # a cap of 2,000 nodes holds three of the trapezoid's 644-node lines
    # (642 nodes and two probes): stacks of at most three lines, whose
    # values are those of the uncapped stacks to the last bit
    wc = trapezoid_wall()
    x = select_endpoints(wc.circuit, None, 0.1).x_minus
    policy = TruncationPolicy(degree_bound=25)
    battery = wall.c_battery(wc.plus.data, 2)
    want = wall.continued_vector(wc, wc.rings(wc.plus, 0.0), battery, x,
                                 policy, wall.ContourSpec())
    sizes = []
    real = wall.make_integrand

    def counted(x, lines, ring, factors):
        f = real(x, lines, ring, factors)

        def g(s):
            sizes.append(len(lines) * np.size(s))
            return f(s)
        g.decay, g.arg_y = f.decay, f.arg_y
        return g
    monkeypatch.setattr(wall, "make_integrand", counted)
    monkeypatch.setattr(wall, "MAX_LINE_NODES", 2000)
    assert wall._stack_size(14.0, 0.5) == 3
    got = wall.continued_vector(wc, wc.rings(wc.plus, 0.0), battery, x,
                                policy, wall.ContourSpec())
    assert max(sizes) == 3 * 644
    assert len(sizes) > 7
    for (vec, diag), (vec0, diag0) in zip(got, want):
        assert vec.tobytes() == vec0.tobytes() and diag == diag0


def test_stack_size_counts_nodes_and_probes():
    # 642 nodes and two probes a line at half-height 14 and distance 1/2;
    # a line past the cap, or one whose node count overflows, is alone
    assert wall._line_nodes(14.0, 0.5) == 642
    assert wall._line_nodes(14.0, 0.25) == 1284
    assert wall._line_nodes(1e4, 0.5) == 458368 > wall.MAX_LINE_NODES
    far = wall._line_nodes(1e300, 0.5)    # finite: an exact even int
    assert isinstance(far, int) and far > wall.MAX_LINE_NODES
    assert wall._line_nodes(1e308, 0.5) == math.inf     # 1e308 * 36 is not
    assert wall._stack_size(1e300, 0.5) == 1
    assert wall._stack_size(14.0, 0.5) == wall.MAX_LINE_NODES // 644
    assert wall._stack_size(14.0, 0.25) == wall.MAX_LINE_NODES // 1286
    assert wall._stack_size(1e4, 0.5) == 1
    assert wall._stack_size(1e308, 0.5) == 1
