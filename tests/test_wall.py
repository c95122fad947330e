"""Crossing machinery: endpoints, residue coefficients, transforms, contours."""

import dataclasses
import itertools
import math
import random
import re
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
from gkzflop.deform import TWO_PI_I
from gkzflop.series import exponent_table, sum_rows, term_values
from support import LOCAL_P2, SMALL_CIRCUITS, TRAPEZOID, \
    circuit_fixture, reference_circles, reference_first_right, \
    reference_integrand, reference_left_residue_sum, reference_line_battery, \
    reference_line_integrand, reference_line_oracle, reference_place_line, \
    reference_pole_model, own_circles, relabel, residue, terms_of


def trivial_sector(wc):
    return next(g for g in wc.plus.box if all(v == 0 for v in g.coords))


def wall_context(pack):
    return wall.WallContext(pack.circuit, pack.chamber(pack.t_plus),
                            pack.chamber(pack.t_minus))


def plus_ring(wc, g, eps):
    return wc.rings(wc.plus, eps)[g.key()]


CIRCLE = deform.circle(0.1, 32)


def circle_read(x):
    """deform.circle_read of an element stacked over CIRCLE, its poles up
    to order 4."""
    return deform.circle_read(x.coords, CIRCLE, 4)


def eps0(wc, route=wall.fm_transform):
    """The route's eps^0 transform of the crossing."""
    [(_, m)] = wall.undeformed_transforms(wc, (), (route,))
    return m


def pole_angles(wc, g):
    """{(k, r): {route: (theta, coords2)}} of an essential plus sector."""
    return {(k, r): angles for k, r, angles in wc.poles[g.key()]}


def line_integrand(x, line, ring):
    """make_integrand on the stack of line alone, at x alone."""
    return wall.make_integrand([x], [line], ring)


def alone(f):
    """f, an integrand on a stack of one line, returning that line's block."""
    def g(s, **kwargs):
        vals = f(s, **kwargs)
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
    ring = plus_ring(wc, g0, CIRCLE)
    alg = wc.plus.algebras[g0.key()]
    angles = pole_angles(wc, g0)
    t = alg.divisor(0)
    want = {0: alg.scalar(-1.0) - t * 0.5, 1: t * 0.5}
    for route in ("transport", "pole"):
        for r, target in want.items():
            c = wall.coefficient_C(a1.circuit, g0, 1, angles[1, r][route],
                                   ring)
            got, principal, nested = circle_read(c)
            assert np.abs(got - target.coords).max() < 1e-12, (route, r)
            assert principal < 1e-12 and nested < 1e-12


def test_residue_coefficients_read_each_exponential_once(monkeypatch):
    # on (1^3, -1^3) a ring's coefficient_C calls, every pole of every
    # essential sector by both routes, form e^{-D_k} once per k (its
    # e^{D_k / h_k} is the same, h_k = -1) and e^{-delta_jk} once per
    # (j, k): 3 + 6 exponentials per ring, where forming each one per
    # call made 36 per sector; a second pass forms none, to the same bits
    data, tris = circuit_fixture((1, 1, 1, -1, -1, -1))
    wc = wall.WallContext(find_circuit(data, tris["plus"], tris["minus"]),
                          Chamber(data, tris["plus"]),
                          Chamber(data, tris["minus"]))
    calls = []
    real = deform.algebra_exp

    def counted(element):
        calls.append(1)
        return real(element)
    monkeypatch.setattr(deform, "algebra_exp", counted)
    rings = wc.rings(wc.plus, CIRCLE)
    for key, poles in wc.poles.items():
        del calls[:]
        passes = [[wall.coefficient_C(wc.circuit, g, k, angles[route],
                                      rings[key]).coords.tobytes()
                   for k, _, angles in poles
                   for route in ("transport", "pole")]
                  for g in wc.plus.box if g.key() == key for _ in range(2)]
        assert len(poles) == 3 and len(calls) == 9
        assert passes[0] == passes[1]


def test_residue_coefficients_conifold_pair(conifold):
    # the two simple-pole coefficients each blow up like 1/eps but the
    # poles cancel exactly in their sum, leaving -1
    wc = wall_context(conifold)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, CIRCLE)
    alg = wc.plus.algebras[g0.key()]
    angles = pole_angles(wc, g0)
    total = None
    for k in (1, 2):
        c = wall.coefficient_C(conifold.circuit, g0, k,
                               angles[k, 0]["transport"], ring)
        _, principal, _ = circle_read(c)
        assert principal > 0.4
        total = c if total is None else total + c
    value, principal, _ = circle_read(total)
    assert principal < 1e-13
    assert np.abs(value - alg.scalar(-1.0).coords).max() < 1e-12


def test_frozen_transform_matrices(pack):
    wc = wall_context(pack)
    ac, fm = eps0(wc, wall.ac_transform), eps0(wc)
    assert np.abs(ac.entries - fm.entries).max() < 1e-12
    assert ac.undeformed_pass and fm.undeformed_pass
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
    # the circle of 32 samples already reads the eps^0 entries and the
    # principal ratio to roundoff: circles of 64 and 128 samples move the
    # entries by less than 1e-13 and keep the ratio under its gate
    data, tris = circuit_fixture((1, 1, 1, -1, -1, -1))
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    circuit = find_circuit(data, plus.t, minus.t)
    got = []
    for nodes in (32, 64, 128):
        monkeypatch.setattr(wall, "CIRCLE_NODES", nodes)
        m = eps0(wall.WallContext(circuit, plus, minus), build)
        assert m.samples == nodes and m.undeformed_pass
        got.append(m.entries)
    scale = np.abs(got[0]).max()
    for other in got[1:]:
        assert np.abs(other - got[0]).max() < 1e-13 * scale


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


def test_laurent_transform_does_not_depend_on_its_monomial_basis():
    # T maps the minus-side localization values onto the plus-side ones,
    # so any basis of Laurent monomials with full-rank values gives the
    # same T: the greedy wall.monomials and the window characters
    # b_w = w b_1, w = 0, ..., eta - 1, with h . b_1 = 1, agree to 1.0e-12
    # on every census crossing.  Both also match the window
    # route T_W = L_+(W) L_-(W)^-1 over those characters at eps = 0,
    # which uses no pole model, within 1e-10
    built = 0
    for h in SMALL_CIRCUITS:
        data, tris = circuit_fixture(h)
        plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
        circuit = find_circuit(data, plus.t, minus.t)
        wc = wall.WallContext(circuit, plus, minus)
        greedy = eps0(wc)
        assert greedy.undeformed_pass, h
        b1 = unit_character(circuit.h)
        assert sum(hj * bj for hj, bj in zip(circuit.h, b1)) == 1
        wc.monomials = tuple(tuple(w * bj for bj in b1)
                             for w in range(len(wc.cols)))
        window = eps0(wc).entries
        scale = np.abs(greedy.entries).max()
        assert np.abs(window - greedy.entries).max() <= 1e-9 * scale, h
        lp, lm = (wall.localization_matrix(side, wc.rings(side, 0.0),
                                           wc.monomials)
                  for side in (plus, minus))
        t_w = lp.T @ np.linalg.inv(lm.T)
        assert np.abs(t_w - greedy.entries).max() <= 1e-10 * scale, h
        built += 1
    assert built == len(SMALL_CIRCUITS) == 50


def test_separating_offsets_part_the_negative_poles():
    # on every distinct order of every census circuit, both signs: the
    # offsets are distinct non-negative integers, nonzero where h_j < 0,
    # with the a_j / h_j distinct over I_-; and they are 0, ..., n - 1
    # exactly where 0, ..., n - 1 meets those conditions
    def separates(h, a):
        minus = [j for j, hj in enumerate(h) if hj < 0]
        return len(set(a)) == len(a) and min(a) >= 0 \
            and all(a[j] for j in minus) \
            and len({Fraction(a[j], h[j]) for j in minus}) == len(minus)

    cases = 0
    for h0 in SMALL_CIRCUITS:
        for sign in (1, -1):
            for h in set(itertools.permutations(sign * v for v in h0)):
                a = wall.separating_offsets(h)
                assert all(v.denominator == 1 for v in a), h
                assert separates(h, a), h
                identity = tuple(range(len(h)))
                assert (a == identity) == separates(h, identity), h
                cases += 1
    assert cases == 2 * 4138
    for h, a in (((3, -1, -2), (0, 1, 3)), ((3, 2, -2, -3), (0, 1, 2, 4)),
                 ((3, 3, -1, -1, -2, -2), (0, 1, 2, 3, 5, 7))):
        assert wall.separating_offsets(h) == a


def test_every_census_relabeling_builds():
    # every census crossing, in both orientations, in its listed point
    # order and in five random ones, builds a WallContext whose eps^0
    # circle has a finite positive radius
    rng = random.Random(17)
    built = 0
    for h in SMALL_CIRCUITS:
        data, tris = circuit_fixture(h)
        orders = [tuple(range(len(h)))] + [
            tuple(rng.sample(range(len(h)), len(h))) for _ in range(5)]
        for order in orders:
            d, t = relabel(data, tris, order)
            sides = Chamber(d, t["plus"]), Chamber(d, t["minus"])
            for plus, minus in (sides, sides[::-1]):
                wc = wall.WallContext(find_circuit(d, plus.t, minus.t),
                                      plus, minus)
                assert 0 < wall.circle_radius(wc) < math.inf, (h, order)
                built += 1
    assert built == 2 * 6 * len(SMALL_CIRCUITS) == 600


def test_transforms_at_generic_eps(pack):
    wc = wall_context(pack)
    (ac,) = wall.ac_transform(wc, (1e-2,))
    (fm,) = wall.fm_transform(wc, (1e-2,))
    scale = max(np.abs(fm.entries).max(), 1.0)
    assert np.abs(ac.entries - fm.entries).max() / scale < 1e-10
    assert abs(np.linalg.det(fm.entries)) > 1e-6


def test_sample_stack_is_its_samples_alone():
    # a stack of samples carries each sample on its own row of a leading
    # axis: each route's stack equals the stacks of one to the last bit,
    # on the fixtures, the trapezoid and every census crossing
    from gkzflop.fixtures import load_fixture
    fixtures = [load_fixture("a1"), load_fixture("conifold"),
                parse_fixture(TRAPEZOID)]
    fixtures += [circuit_fixture(h) for h in SMALL_CIRCUITS]
    samples = (1e-2, 5e-3, 2e-3)
    for data, tris in fixtures:
        plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
        wc = wall.WallContext(find_circuit(data, plus.t, minus.t), plus, minus)
        for route in (wall.ac_transform, wall.fm_transform):
            stack = route(wc, samples)
            alone = [route(wc, (eps,)) for eps in samples]
            assert len(stack) == len(samples)
            for m, (one,) in zip(stack, alone):
                assert m.entries.shape == (len(wc.rows), len(wc.cols))
                assert m.entries.tobytes() == one.entries.tobytes()
    assert len(fixtures) == 3 + 50


def test_oracle_stack_is_its_samples_alone():
    # oracle_report evaluates its eps samples as one stack, right orbit
    # sums included: its checks are those of each sample alone, in
    # sample order, check by check and to the last bit, on the fixtures,
    # the trapezoid and ten census crossings (passing or not)
    from gkzflop.fixtures import load_fixture
    fixtures = [load_fixture("a1"), load_fixture("conifold"),
                parse_fixture(TRAPEZOID)]
    fixtures += [circuit_fixture(h) for h in SMALL_CIRCUITS][:10]
    samples = (3e-3, -5e-3, 1e-2)
    for data, tris in fixtures:
        plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
        circuit = find_circuit(data, plus.t, minus.t)

        def report(eps):
            return wall.oracle_report(circuit, plus, minus, eps_values=eps,
                                      y_abs=0.1, amplitude=None,
                                      policy=TruncationPolicy(),
                                      spec=wall.ContourSpec())

        stack = report(samples)
        alone = [report((eps,)) for eps in samples]
        checks = [c for rep in alone for c in rep["checks"]]
        assert checks and len(stack["checks"]) == len(checks)
        assert repr(stack["checks"]) == repr(checks), circuit.h
        assert stack["pass"] == all(rep["pass"] for rep in alone)
    assert len(fixtures) == 3 + 10


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


def test_residue_circles_guard_every_node(a1):
    # the integrand evaluates any node; residue_at refuses a round of
    # circles with a node near the line's pole model before evaluating
    # any of it, and names that node.  The line's circles are listed, with
    # their points up to s0 + 1 < 2: at s = 2 the guard lists points anew
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, 0.0)
    lp = canonical_lift(a1.data, g0, a1.data.points[1]).values
    line = wall.Line(lp, a1.circuit)
    assert len(line.circles) and line.s0 + 1 < 2.0
    calls = []
    f = recording(line_integrand(a1.path().x_plus, line, ring), calls)
    centers, radii = np.array([-0.25, 0.0, -2.25]), np.full(3, 0.1)
    # an integer point, and a removable point: 1/Gamma(-2) cancels the
    # ratio-factor pole at s = 1/2, yet the formula gives 0 there
    for bad in (2.0 + 1e-9, 0.5):
        f(np.array([bad, 0.5 + 1j]))
        centers[1] = bad - 0.1          # its first node lies at bad
        node = complex(centers[1] + radii[1])
        del calls[:]
        with pytest.raises(PoleProximity, match=re.escape(
                f"s = {node} too close to a pole")):
            wall.residue_at(f, line, own_circles(centers, radii))
        assert not calls
    centers[1] = 1.25
    wall.residue_at(f, line, own_circles(centers, radii))
    assert len(calls) == 1


def test_guard_hits_every_model_point_across_a_wide_batch(packs):
    # a twisted generator of (2,3,-3,-2): l'_3 = -3/2 with h_3 = -3 puts
    # ratio poles (w >= 0) at fractional s = -1/2 - w/3; one batch spans
    # more than 10 units of Re s, as a round of residue circles does
    [(x, lp, circuit, ring)] = [
        case for case in oracle_generators(packs, (2, 3, -3, -2), 1e-2)
        if case[1][2] == Fraction(-3, 2)]
    line = wall.Line(lp, circuit)
    lo, hi = -11.0, 0.4
    model = reference_pole_model(lp, circuit, lo, hi)
    assert exact_points(line, lo, hi) == model
    kinds = dict(model)
    assert kinds[Fraction(-5, 6)] == "ratio"
    assert {"integer", "ratio", "removable"} <= set(kinds.values())
    base = np.linspace(lo, hi, 40) + 0.3j

    def hits(node):
        row = line.near_pole(np.concatenate([base, [node]]))
        assert not row[:-1].any()
        return bool(row[-1])
    # -1/3 is no model point: 1/3 off the integers, 1/6 off the family
    # of l'_3 and not a half-integer of the family of l'_4
    assert not hits(-1.0 / 3)
    guard = wall.GUARD
    for p, kind in model:
        p = float(p)
        for off in (2 * guard, -2 * guard, 2j * guard):
            assert not hits(p + off), (p, off)
        for off in (0.0, guard / 2, -guard / 2, 0.5j * guard):
            assert hits(p + off), (p, off)


def test_guard_hits_every_model_point_on_the_census(monkeypatch):
    # every generator line of the depth-1 battery of each census circuit,
    # over the window of its circles' centres: a node at 0, +-GUARD/2,
    # +-0.99 GUARD or 0.5i GUARD from a point of the reference model hits
    # the guard, and one at +-1.01 GUARD or +-2 GUARD misses; so do the
    # line's own nodes, which hit only where the line crosses a point.
    # Once the circles are listed, the guard reads their points and
    # lists none afresh
    guard = wall.GUARD
    offsets = np.array([0.0, guard / 2, -guard / 2, 0.99 * guard,
                        -0.99 * guard, 0.5j * guard,
                        1.01 * guard, -1.01 * guard, 2 * guard, -2 * guard])
    hit = np.arange(len(offsets)) < 6
    t = np.linspace(-14.0, 14.0, 4001)
    lines = 0
    for h in SMALL_CIRCUITS:
        data, tris = circuit_fixture(h)
        t_plus = tris["plus"]
        circuit = find_circuit(data, t_plus, tris["minus"])
        generators = {term.l for c in wall.c_battery(data, 1)
                      for g in compute_box(data, t_plus)
                      for term in terms_of(data, t_plus, c, g,
                                           TruncationPolicy(), circuit)
                      if term.generator}
        for lp in sorted(generators):
            line = wall.Line(lp, circuit)
            line.circles
            monkeypatch.setattr(line, "points", None)
            lo, hi = line.s0 - wall.MAX_DEPTH, line.s0
            model = reference_pole_model(lp, circuit, lo, hi)
            nodes = np.array([float(p) for p, _ in model])[:, None] + offsets
            got = line.near_pole(nodes.reshape(-1)).reshape(nodes.shape)
            assert (got == hit).all(), (h, lp)
            on_line = Fraction(line.s0) in dict(reference_pole_model(
                lp, circuit, line.s0, line.s0))
            assert (line.near_pole(line.s0 + 1j * t)
                    == (on_line & (np.abs(t) < guard))).all(), (h, lp)
            lines += 1
    assert lines > len(SMALL_CIRCUITS)


def exact_points(line, lo, hi):
    """line.points(lo, hi) with each location read as a Fraction."""
    return [(Fraction(p, line.unit), kind) for p, kind in line.points(lo, hi)]


def test_pole_model_kinds_on_a1(a1):
    # l' = (0, -1, 0), h = (1, -2, 1): ratio-factor points (-1 - w) / 2
    line = wall.Line((0, -1, 0), a1.circuit)
    got = exact_points(line, -1, 1)
    assert got == [(-1, "ratio"), (Fraction(-1, 2), "ratio"), (0, "integer"),
                   (Fraction(1, 2), "removable"), (1, "integer")]
    assert exact_points(line, 0.1, 0.4) == []


def test_moving_the_line_one_step_picks_up_one_residue(a1):
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, 0.0)
    lp = canonical_lift(a1.data, g0, a1.data.points[1]).values
    x = a1.path().x_plus
    near, _, line = line_oracle(x, lp, a1.circuit, ring, 0.5)
    far = line_oracle(x, lp, a1.circuit, ring, 1.5)[0]
    res = residue(line_integrand(x, line, ring), line, 1.0)
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
                  for term in terms_of(data, t, c, g,
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
            assert exact_points(line, lo, hi) \
                == reference_pole_model(lp, circuit, lo, hi)
            key = (line.families, line.s0)
            if key in compared or (s0 is not None and census):
                continue
            compared.add(key)
            circles = line.circles
            assert list(zip(circles.centers.tolist(), circles.radii.tolist(),
                            circles.anchors.tolist(),
                            circles.shifts.tolist())) \
                == reference_circles(lp, circuit, line.s0)


def test_line_of_a_terms_numerators_is_the_line_of_its_rationals(packs):
    # continued_vector builds a generator's Line from the term's integer
    # numerators over its den, with no Fraction: the same Line, in every
    # field, as the one read from l' as Fractions, on every plus-side
    # generator of a depth-1 battery of a1, conifold and the census
    names = ["a1", "conifold", *SMALL_CIRCUITS]
    for name in names:
        if name in packs:
            data, tris = packs[name].data, packs[name].tris
        else:
            data, tris = circuit_fixture(name)
        t = tris["plus"]
        circuit = find_circuit(data, t, tris["minus"])
        for c in wall.c_battery(data, 1):
            for g in compute_box(data, t):
                for term in terms_of(data, t, c, g, TruncationPolicy(),
                                     circuit):
                    if not term.generator:
                        continue
                    for s0 in (None, 2.5):
                        got = wall.Line(term.num, circuit, s0, term.den)
                        want = wall.Line(term.l, circuit, s0)
                        assert got.lprime == want.lprime == term.l
                        assert (got.num, got.den, got.families, got.unit,
                                got.top, got.s0, got.distance) \
                            == (want.num, want.den, want.families,
                                want.unit, want.top, want.s0,
                                want.distance), (name, term.l)
                        assert got.top == max(
                            term.l[k] / -circuit.h[k]
                            for k in circuit.I_minus)


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
        res = residue(f0, line, m)
        assert res.norm() < 1e-10, m
    ringe = plus_ring(wc, g0, 1e-2)
    checked_nonzero = 0
    for m in (0, 1, 2):
        if gamma_family_hit(lp, pack.circuit, m):
            # a family pole merges with the integer point: separate at
            # small eps and enclose only the integer pole
            res = residue(line_integrand(path.x_plus, line, ringe), line,
                          m, radius=1.5e-3)
            ring = ringe
        else:
            res = residue(f0, line, m)
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


# eps None: the samples of the undeformed limit's circle
@pytest.mark.parametrize("eps", [None, 1e-2])
def test_coefficients_independent_of_lift(pack, eps):
    wc = wall_context(pack)
    circ = pack.circuit
    for g in wc.plus.box:
        if g.key() not in wc.essential_plus:
            continue
        ring = plus_ring(wc, g, CIRCLE if eps is None else eps)
        base = canonical_lift(pack.data, g, (0,) * pack.data.rank)
        for m in (1, 2, -1):
            other = shifted_lift(base, circ.h, m)
            for k in sorted(circ.I_minus):
                for r in range(-circ.h[k]):
                    c1 = transported_C(pack, g, k, r, ring, base)
                    c2 = transported_C(pack, g, k, r, ring, other)
                    diff = c1 - c2
                    assert np.all(diff.norm() < 1e-12 * np.maximum(
                        1.0, c1.norm())), (g.key(), k, r, m)


# -- the trapezoid line rule --------------------------------------------


def a1_line(a1, eps=0.0):
    """(x, l', ring) of a1's generator l' = 0, whose line is Re s = 1/2."""
    wc = wall_context(a1)
    g0 = trivial_sector(wc)
    return a1.path().x_plus, (0, 0, 0), plus_ring(wc, g0, eps)


def recording(f, calls):
    """f with every array of nodes it is called on appended to calls."""
    def g(s, *args, **kwargs):
        calls.append(np.array(s, dtype=complex))
        return f(s, *args, **kwargs)
    g.decay, g.arg_y = f.decay, f.arg_y
    return g


def test_line_nodes_miss_the_removable_point(a1):
    x, lp, ring = a1_line(a1)
    line = wall.Line(lp, a1.circuit)
    assert (Fraction(1, 2), "removable") in exact_points(line, 0, 1)
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
    integrand, kernel, rounds = [], [], []
    real_kernel, real_circle = kernels.recip_gamma_series, wall.residue_at

    def counted_kernel(z, kmax):
        kernel.append(np.shape(z))
        return real_kernel(z, kmax)

    def counted_circle(f, line, circles, at=None):
        rounds.append(circles)
        return real_circle(f, line, circles, at)

    monkeypatch.setattr(kernels, "recip_gamma_series", counted_kernel)
    monkeypatch.setattr(wall, "residue_at", counted_circle)
    line = wall.Line(lp, pack.circuit)
    f = recording(line_integrand(x, line, ring), integrand)
    (_, diag), = wall.mb_contour_oracle(f, [line], 14.0)
    assert len(integrand) == 1
    assert kernel == [(pack.data.n * (diag["nodes"] + 2),)]
    del integrand[:], kernel[:]
    wall.left_residue_sum(f, line)
    assert rounds and len(integrand) == len(rounds)
    # a factor with h_j <= 0 sends the 64 nodes of every circle of a
    # round, one with h_j > 0 those of each class of the round once (the
    # class's anchor circle, which need not be in the round)
    low = sum(v <= 0 for v in pack.circuit.h)
    high = pack.data.n - low
    classes = [len(set(zip(c.anchors.tolist(), c.radii.tolist())))
               for c in rounds]
    assert kernel == [(64 * (low * len(c) + high * k),)
                      for c, k in zip(rounds, classes)]
    assert high and max(classes) < max(map(len, rounds))
    # rounds of 4, then 8, 8, ...: 8 circles are one kernel block per
    # Gamma argument with h_j < 0
    sizes = [len(c) for c in rounds]
    full = [4] + [8] * (len(sizes) - 1)
    assert sizes[:-1] == full[:-1] and 0 < sizes[-1] <= full[-1]


# -- left residue sums in rounds ----------------------------------------


ROUND_CASES = ["a1", "conifold", (1, 2, -3), (2, 3, -3, -2), (1, 1, 1, -3)]


def oracle_generators(packs, name, eps):
    """(x, l', circuit, ring) of every generator oracle sums left, at eps.

    The generators of c = 0 in the essential plus sectors, at the far
    endpoint of oracle's default path.
    """
    wc = case_wall(packs, name)
    x = select_endpoints(wc.circuit, None, 0.1).x_minus
    rings = wc.rings(wc.plus, eps)
    return [(x, line.lprime, wc.circuit, rings[key])
            for key, line in generator_lines(wc)]


def poisoned(f, center, radius, block=slice(None)):
    """f with NaN values at the nodes of the circle (center, radius), in
    every block of its batch or in the one that block selects."""
    def g(s, *args, **kwargs):
        vals = f(s, *args, **kwargs)
        vals.coords[block, np.abs(np.asarray(s) - center) < 1.2 * radius] = \
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
    # per circle, and stop at the same circle.  Rounds of 4, 8, 8, ...
    # take 1 + ceil(max(c - 4, 0) / 8) integrand calls for c circles
    # summed, and evaluate min(4 + 8 (calls - 1), circles) circles.  The
    # far endpoint of an integrand at both endpoints, which oracle sums,
    # gives the same bits as an integrand at the far endpoint alone.  A
    # stack of samples sums each sample as alone, one outcome each, its
    # rounds running while any sample still sums.  The one-circle loop
    # ladders each circle from its class's anchor circle alone, so a
    # circle of a later round, whose anchor circle lies in the first,
    # has the bits it has in its round
    cases = oracle_generators(packs, name, eps)
    assert cases
    later = 0
    for x, lp, circuit, ring in cases:
        line = wall.Line(lp, circuit)
        circles = reference_circles(lp, circuit, line.s0)
        want, summed = reference_left_residue_sum(
            alone(line_integrand(x, line, ring)), circles)
        assert 0 < summed < len(circles), lp
        later += sum(shift >= 4 for _, _, _, shift in circles[4:summed])
        calls = []
        [got] = wall.left_residue_sum(
            recording(line_integrand(x, line, ring), calls), line)
        assert np.array_equal(got.coords, want.coords), lp
        assert len(calls) == 1 + math.ceil(max(summed - 4, 0) / 8), lp
        evaluated = min(4 + 8 * (len(calls) - 1), len(circles))
        assert sum(map(np.size, calls)) == 64 * evaluated, lp
        both = select_endpoints(circuit, None, 0.1)
        assert both.x_minus == x
        [got] = wall.left_residue_sum(wall.make_integrand(
            [both.x_plus, x], [line], ring), line, at=[1])
        assert got.coords.tobytes() == want.coords.tobytes(), lp
        # NaN on the first circle past the stop: dropped unchecked if its
        # round evaluated it; NaN on the last circle summed: its outcome
        for index in (summed, summed - 1):
            f = poisoned(line_integrand(x, line, ring), *circles[index][:2])
            [got] = wall.left_residue_sum(f, line)
            if index < summed:
                assert isinstance(got, NonFiniteValue), lp
            else:
                assert np.array_equal(got.coords, want.coords), lp
        # the samples (eps, -eps) as one stack at both endpoints
        other = deform.DeformationRing(ring.algebra, ring.offsets, eps=-eps)
        want2, summed2 = reference_left_residue_sum(
            alone(line_integrand(x, line, other)), circles)
        pair = deform.DeformationRing(ring.algebra, ring.offsets,
                                      eps=(eps, -eps))
        calls = []
        f = recording(wall.make_integrand([both.x_plus, x], [line], pair),
                      calls)
        got = wall.left_residue_sum(f, line, at=[1])
        assert [v.coords.tobytes() for v in got] \
            == [want.coords.tobytes(), want2.coords.tobytes()], lp
        assert len(calls) == 1 + math.ceil(
            max(summed - 4, summed2 - 4, 0) / 8), lp
        # NaN on the last circle the first sample sums, in its block
        # alone: that sample's outcome, and the other's sum as alone
        f = poisoned(wall.make_integrand([x], [line], pair),
                     *circles[summed - 1][:2], block=0)
        bad, good = wall.left_residue_sum(f, line)
        assert isinstance(bad, NonFiniteValue), lp
        assert good.coords.tobytes() == want2.coords.tobytes(), lp
    assert later
    if name == (2, 3, -3, -2):
        assert any(Fraction(lp[k]).denominator > 1
                   for _, lp, circuit, _ in cases for k in circuit.I_minus)


def generator_lines(wc):
    """(sector key, Line) of each generator oracle sums left: c = 0, the
    essential plus sectors."""
    data, plus = wc.plus.data, wc.plus
    return [(g.key(), wall.Line(term.l, wc.circuit)) for g in plus.box
            if g.key() in wc.essential_plus
            for term in terms_of(data, plus.t, (0,) * data.rank, g,
                                 TruncationPolicy(), wc.circuit)
            if term.generator]


def test_laddered_circles_match_the_direct_kernel():
    # every residue circle of oracle's generators, at the far endpoint
    # and the samples (1e-2, -3e-3) as one stack, on the 50
    # SMALL_CIRCUITS, the trapezoid and local P^2, on every 8th node (a
    # node's value does not depend on the nodes sent with it): the
    # integrand with the ladder of residue_at, its factors 1/Gamma with
    # h_j > 0 laddered down from their class's anchor circle, against
    # the same nodes with every factor from the kernel.  Within 1e-13 of
    # each (eps, circle) block's largest |value| for a centre c with |c|
    # <= 4, and within 2e-14 (1 + |c|) beyond: the nodes c + r e^{i
    # theta} round by about 1e-16 |c|, so they are not the exact
    # translates of the anchor circle's nodes that the ladder reads, and
    # 1/Gamma at |1 + l'_j + h_j s| near 100 magnifies that (seen: 1.8e-14
    # for |c| <= 4, 9.4e-15 (1 + |c|) beyond; the ladder itself is within
    # 5e-15 of mpmath, test_kernels).  A block is finite on both sides or on neither (past
    # 1e308 deep left).  Then residue_at on each line's first round with
    # a copy of it at half the radius: classes of one centre mod 1 and
    # two radii, each laddered from its own anchor circle
    cases = [trapezoid_wall(), case_wall({}, "p2")] + [
        case_wall({}, h) for h in SMALL_CIRCUITS]
    unit = np.exp(TWO_PI_I * np.arange(0, 64, 8) / 64)
    worst, near, halves, circles, deep = 0.0, 0.0, 0.0, 0, 0
    for wc in cases:
        x = select_endpoints(wc.circuit, None, 0.1).x_minus
        rings = wc.rings(wc.plus, (1e-2, -3e-3))
        for key, line in generator_lines(wc):
            c = line.circles
            if not len(c):
                continue
            f = wall.make_integrand([x], [line], rings[key])
            z = unit * c.radii[:, None]
            got = f(c.centers[:, None] + z, ladder=(
                c.anchors[:, None] + z, np.arange(len(c)), c.shifts)).coords
            want = f(c.centers[:, None] + z).coords
            finite = np.isfinite(want).all(axis=(2, 3))
            assert (np.isfinite(got).all(axis=(2, 3)) == finite).all()
            with np.errstate(invalid="ignore"):
                dev = np.abs(got - want).max(axis=(2, 3)) \
                    / np.abs(want).max(axis=(2, 3))
            reach = np.broadcast_to(1 + np.abs(c.centers), dev.shape)
            dev, reach = dev[finite], reach[finite]
            worst = max(worst, float((dev / reach).max()))
            near = max(near, float(dev[reach <= 5].max(initial=0.0)))
            circles += len(c)
            deep = max(deep, int(c.shifts[finite.all(0)].max())
                       * max(wc.circuit.h))
            first = c[:4]
            both = wall.Circles(*(np.concatenate(pair) for pair in (
                (first.centers,) * 2, (first.radii, first.radii / 2),
                (first.anchors,) * 2, (first.shifts,) * 2)))
            vals = []
            wall.residue_at(values_of(f, vals), line, both)
            nodes = both.centers[:, None] + np.exp(
                TWO_PI_I * np.arange(64) / 64) * both.radii[:, None]
            want = f(nodes).coords
            halves = max(halves, float((np.abs(vals[0] - want).max(
                axis=(2, 3)) / np.abs(want).max(axis=(2, 3))).max()))
    assert len(cases) == 52 and circles > 10000 and deep >= 100
    assert near < 1e-13 and worst < 2e-14 and halves < 1e-13


def test_ladder_keeps_the_kernels_zero_at_a_gamma_pole():
    # on (1, 2, -3) at eps = 0, the line l' = (0, 0, 1/4) and circles of
    # radius 1/8 centred at 3/8 - k, k = 0, ..., 3, one class: the first
    # node s = 1/2 - k is exact, and there the factor with h_j = 2 is
    # 1/Gamma(2 - 2k + D_j / 2 pi i), at a pole of Gamma for k >= 1.  The
    # ladder steps from the anchor circle's argument 2 onto 2 - 2k
    # exactly, so that node's value has the exact zero scalar part the
    # kernel gives at the node itself; every other node's is nonzero,
    # and the other coordinates agree within 1e-13 of the largest
    wc = case_wall({}, (1, 2, -3))
    j = wc.circuit.h.index(2)
    x = select_endpoints(wc.circuit, None, 0.1).x_minus
    ring = next(ring for ring in wc.rings(wc.plus, 0.0).values()
                if not ring.divisor(j).is_zero())
    unit = ring.algebra.basis_index[()]
    line = wall.Line((0, 0, Fraction(1, 4)), wc.circuit)
    f = wall.make_integrand([x], [line], ring)
    k = np.arange(4)
    circles = wall.Circles(0.375 - k, np.full(4, 0.125), np.full(4, 0.375),
                           k)
    got = []
    wall.residue_at(values_of(f, got), line, circles)
    [got] = got[0]
    want = f(circles.centers[:, None] + np.exp(
        TWO_PI_I * np.arange(64) / 64) * circles.radii[:, None]).coords[0]
    pole = np.zeros((4, 64), dtype=bool)
    pole[1:, 0] = True
    for vals in (got, want):
        assert not vals[pole, unit].any() and vals[~pole, unit].all()
    assert 0 < np.abs(want).max() < math.inf
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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


def test_oracle_raises_the_first_generators_error(monkeypatch):
    # (1,2,-3) has one generator per essential plus sector, the untwisted
    # one checked first: it fails on its far side (its left residue sum),
    # and the twisted one, checked later, on its near quadrature (a line
    # past the node cap).  The report raises the untwisted one's error
    data, tris = circuit_fixture((1, 2, -3))
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    circuit = find_circuit(data, plus.t, minus.t)
    real_sum = wall.left_residue_sum

    class Line(wall.Line):
        def __init__(self, lprime, circuit, s0=None):
            super().__init__(lprime, circuit, s0)
            if any(Fraction(v).denominator > 1 for v in lprime):
                self.distance = 1e-9

    def far_fails(f, line, **kwargs):
        if not any(line.lprime):
            raise NonFiniteValue("the untwisted generator's far side")
        return real_sum(f, line, **kwargs)

    def report():
        return wall.oracle_report(circuit, plus, minus, eps_values=(1e-2,),
                                  y_abs=0.1, amplitude=None,
                                  policy=TruncationPolicy(),
                                  spec=wall.ContourSpec())
    monkeypatch.setattr(wall, "Line", Line)
    with pytest.raises(InfeasibleArgs, match="nodes, more than"):
        report()
    monkeypatch.setattr(wall, "left_residue_sum", far_fails)
    with pytest.raises(NonFiniteValue, match="untwisted generator"):
        report()


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
        return [[dataclasses.replace(term, essential=False, generator=False)
                 for term in part] for part in real(*args)]
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
            [terms] = real(plus.data, plus.t, [c], g, policy, a1.circuit)
            want[g.key()] = sum_rows(term_values(
                x, [t.num for t in terms], terms[0].den if terms else 1,
                rings[g.key()]))
        assert (vec == wall._stack(plus, want)).all(), c
        assert diag == {"est_error": 0.0, "nodes": 0, "line_signal": 0.0}
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
        leftovers.extend(term for part in terms for term in part
                         if not term.essential)
        return terms
    monkeypatch.setattr(wall, "enumerate_terms", spy)
    x = select_endpoints(wc.circuit, None, 0.1).x_minus
    policy = TruncationPolicy(degree_bound=25)
    battery = wall.c_battery(wc.plus.data, 2)
    continued = wall.continued_vector(wc, wc.rings(wc.plus, 0.0), battery, x,
                                      policy, wall.ContourSpec())
    assert len(leftovers) == 6
    assert not any(term.generator for term in leftovers)
    t = eps0(wc).entries
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
    t = eps0(wc).entries

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
    def g(s, *args, **kwargs):
        vals = f(s, *args, **kwargs)
        out.append(vals.coords.copy())
        return vals
    g.decay, g.arg_y = f.decay, f.arg_y
    return g


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("name", ["a1", "conifold", (2, 2, -1, -3)],
                         ids=["a1", "conifold", "h=2,2,-1,-3"])
def test_shared_line_factors_are_exact(packs, name, eps, monkeypatch):
    # the generator lines of a depth-2 battery, each on one integrand at
    # both endpoints: each (x, line)'s value, est_error and node values
    # equal those of the line's integrand at that x alone to the last
    # bit, and the shared Gamma and pole factors send fewer Gamma
    # arguments to the kernel
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
    xs = [path.x_plus, path.x_minus]
    for g in plus.box:
        ring = rings[g.key()]
        for c in wall.c_battery(data, 2):
            for term in terms_of(data, plus.t, c, g,
                                 TruncationPolicy(), circuit):
                if not term.generator:
                    continue
                line = wall.Line(term.l, circuit)
                got = []
                mode[0] = "shared"
                both = wall.mb_contour_oracle(values_of(
                    wall.make_integrand(xs, [line], ring), got), [line], 14.0)
                mode[0] = "fresh"
                for (q, dg), block, x in zip(both, got[0], xs):
                    want = []
                    (q0, dg0), = wall.mb_contour_oracle(values_of(
                        line_integrand(x, line, ring), want), [line], 14.0)
                    assert q.coords.tobytes() == q0.coords.tobytes()
                    assert dg == dg0
                    assert block.tobytes() == want[0][0].tobytes()
                    lines += 1
    assert lines >= 8
    assert 0 < sent["shared"] < sent["fresh"]


@pytest.mark.parametrize("argv, sent", [
    (["verify", "--fixture", "a1"], 1932),
    (["verify", "--fixture", "conifold"], 2576),
    (["oracle", "--fixture", "a1", "--eps", "1e-2", "--eps", "3e-3"], 3220),
    (["oracle", "--fixture", "conifold", "--eps", "1e-2", "--eps", "3e-3"],
     4508)], ids=["verify-a1", "verify-conifold", "oracle-a1",
                  "oracle-conifold"])
def test_lines_send_each_factor_to_the_kernel_once(monkeypatch, argv, sent):
    # the Gamma arguments the lines send (644 nodes and probes a line):
    # one integrand per line and endpoint sent 17,388, 36,064, 7,728 and
    # 10,304 of them, and one per distinct l'_j of a stack 5,796 and
    # 7,728 for verify; a stack sends one per anchor of each class r =
    # l'_j mod 1 ({-2, -1, 0} share the anchor 0 on both fixtures) and
    # reaches the rest by the functional equation, and oracle's near and
    # far ends, one integrand, send theirs once: 644 per factor and eps,
    # 3 x 644 x 2 = 3,864 and 4 x 644 x 2 = 5,152.  The factor j = 0
    # has the offset a_0 = 0, so its centres are the same at both eps,
    # to the bit, and go once for the stack: 644 fewer, 3,220 and 4,508
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


@pytest.mark.parametrize("fixture, sent", [("a1", 3712), ("conifold", 3456)])
def test_circles_send_each_class_to_the_kernel_once(monkeypatch, fixture,
                                                    sent):
    # the Gamma arguments oracle --eps 1e-2 --eps 3e-3 sends from its
    # residue circles: 64 nodes a circle, 2 samples.  a1 (h = (1, -2, 1))
    # sums 20 circles in rounds of 4, 8, 8, on two classes (the integers
    # and the half-integers, radius 0.2), each class in every round;
    # conifold (h = (1, -1, -1, 1)) 12 circles in rounds of 4, 8, on one
    # class.  A factor with h_j < 0 sends every node: 20 x 64 x 2 = 2560
    # and 2 x 12 x 64 x 2 = 3072; one with h_j > 0 the anchor circle of
    # each class of a round: 2 x 3 x 2 x 64 x 2 = 1536 and 2 x 2 x 1 x
    # 64 x 2 = 512, but the factor j = 0 (offset a_0 = 0, the same
    # centres at both eps, to the bit) sends its anchor circles once for
    # the stack: 3 x 2 x 64 = 384 and 2 x 1 x 64 = 128 fewer, so 2560 +
    # 1152 = 3712 and 3072 + 384 = 3456.  With every node sent at every
    # eps, 7680 and 6144
    count = {"on": False, "sent": 0, "circles": 0}
    real_kernel, real_circles = kernels.recip_gamma_series, wall.residue_at

    def counted_kernel(z, kmax):
        count["sent"] += np.size(z) if count["on"] else 0
        return real_kernel(z, kmax)

    def on_circles(f, line, circles, at=None):
        count["on"], count["circles"] = True, count["circles"] + len(circles)
        try:
            return real_circles(f, line, circles, at)
        finally:
            count["on"] = False
    monkeypatch.setattr(kernels, "recip_gamma_series", counted_kernel)
    monkeypatch.setattr(wall, "residue_at", on_circles)
    argv = ["oracle", "--fixture", fixture, "--eps", "1e-2", "--eps", "3e-3"]
    status, _ = cli.run(argv[0], cli.build_parser().parse_args(argv))
    assert status == 0
    assert (count["circles"], count["sent"]) \
        == ({"a1": 20, "conifold": 12}[fixture], sent)


@pytest.mark.parametrize("s0", [1e9, -1e9])
def test_far_lines_are_refused_before_any_evaluation(packs, s0):
    # 1 + l'_j + h_j s0 lies far left of GAMMA_RE_MIN for some j on
    # either side; the kernel would take one pass per unit of |Re z|
    def never(s, keep):
        raise AssertionError("the integrand was called")
    never.decay = [(1.0, 1.0)]
    for pack in packs.values():
        for lp in {term.l for g in pack.chamber(pack.t_plus).box
                   for term in terms_of(
                       pack.data, pack.t_plus, (0,) * pack.data.rank, g,
                       TruncationPolicy(), pack.circuit) if term.generator}:
            line = wall.Line(lp, pack.circuit, s0)
            [out] = wall.mb_contour_oracle(never, [line], 14.0)
            with pytest.raises(NonFiniteValue, match="1/Gamma overflows"):
                wall._result(out)


def test_lines_near_the_gamma_bound_are_not_finite(a1):
    # a1's l' = 0 on Re s = 89.5 reaches Re z = 1 - 2 (89.5) = -178 at
    # j = 2, right of the bound: it is evaluated, and the overflow the
    # bound predicts shows on the line; at 90.75 (Re z = -180.5) it is
    # refused unevaluated
    x, lp, ring = a1_line(a1)
    line = wall.Line(lp, a1.circuit, 89.5)
    assert line.s0 == 89.5
    [out] = wall.mb_contour_oracle(line_integrand(x, line, ring), [line],
                                   14.0)
    with pytest.raises(NonFiniteValue, match="not finite on the line"):
        wall._result(out)
    line = wall.Line(lp, a1.circuit, 90.75)
    [out] = wall.mb_contour_oracle(line_integrand(x, line, ring), [line],
                                   14.0)
    with pytest.raises(NonFiniteValue, match="-180.5 < -180"):
        wall._result(out)


# -- stacks of lines -----------------------------------------------------


def battery_lines(wc, depth=2, s0=None):
    """(sector key, Line) of every generator of the battery, in order."""
    data, plus = wc.plus.data, wc.plus
    return [(g.key(), wall.Line(term.l, wc.circuit, s0))
            for c in wall.c_battery(data, depth) for g in plus.box
            for term in terms_of(data, plus.t, c, g,
                                 TruncationPolicy(degree_bound=25),
                                 wc.circuit)
            if term.generator]


def stacked_values(monkeypatch, out):
    """Patch make_integrand so that each stack's lines and values go to
    out."""
    real = wall.make_integrand

    def spy(xs, lines, ring):
        f = real(xs, lines, ring)

        def g(s, keep, **kwargs):
            vals = f(s, keep, **kwargs)
            out.append(([lines[i] for i in keep], vals.coords.copy()))
            return vals
        g.decay, g.arg_y = f.decay, f.arg_y
        return g
    monkeypatch.setattr(wall, "make_integrand", spy)


def case_wall(packs, name):
    if name == "trapezoid":
        return trapezoid_wall()
    if name == "p2":
        data, tris = parse_fixture(LOCAL_P2)
    elif name in packs:
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
        got = wall._line_values(x, rings, lines, 14.0)
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
    # the later line's outcome is the error it raises alone, l' = 0 gets
    # its value alone to the last bit, and no argument of a refused line
    # reaches the kernel
    x, lp, ring = a1_line(a1)
    ok = wall.Line(lp, a1.circuit)
    sent = []
    real_kernel = kernels.recip_gamma_series

    def counted_kernel(z, kmax):
        sent.append(np.min(np.real(z)))
        return real_kernel(z, kmax)
    monkeypatch.setattr(kernels, "recip_gamma_series", counted_kernel)
    for bad in ((-179, 0, 0), (-182, 0, 0)):
        line = wall.Line(bad, a1.circuit)
        assert (line.s0, line.distance) == (ok.s0, ok.distance)
        q0, dg0, _ = reference_line_oracle(
            reference_line_integrand(x, ok, ring), ok, 14.0)
        with pytest.raises(NonFiniteValue) as want:
            reference_line_oracle(reference_line_integrand(x, line, ring),
                                  line, 14.0)
        del sent[:]
        (q, dg), got = wall.mb_contour_oracle(
            wall.make_integrand([x], [ok, line], ring), [ok, line], 14.0)
        assert type(got) is NonFiniteValue
        assert str(got) == str(want.value)
        assert q.coords.tobytes() == q0.coords.tobytes() and dg == dg0
        assert sent and all(v > wall.GAMMA_RE_MIN for v in sent)


def grid_values(x, ring, stack, stride=1, height=14.0):
    """Node values of a stack of lines on one grid, and the nodes: every
    stride-th fine node and both tail probes that mb_contour_oracle
    sends."""
    n = wall._line_nodes(height, stack[0].distance)
    step = 2.0 * height / n
    nodes = np.concatenate([
        stack[0].s0 + 1j * (-height + (np.arange(0, n, stride) + 0.5) * step),
        [complex(stack[0].s0, height), complex(stack[0].s0, -height)]])
    return wall.make_integrand([x], stack, ring)(nodes).coords, nodes


@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_class_formed_lines_match_the_per_lprime_kernel(eps):
    # each line of a depth-2 battery, evaluated in its stack at the far
    # endpoint on every 16th node and the probes (a node's value does not
    # depend on the nodes sent with it), against the form before the
    # classes (one kernel argument per l'_j, the pole factor at l'_j and
    # the power e^{(l'_j + h_j s) log x_j - l'_j log x_j}), on every
    # circuit of SMALL_CIRCUITS and on the trapezoid: within
    # 1e-13 of each line's largest |value|
    cases = [trapezoid_wall()] + [
        case_wall({}, h) for h in SMALL_CIRCUITS]
    worst, nonzero, chained = 0.0, 0, 0
    for wc in cases:
        x = select_endpoints(wc.circuit, None, 0.1).x_minus
        rings = wc.rings(wc.plus, eps)
        grids = {}
        for key, line in battery_lines(wc):
            grids.setdefault((key, line.s0, line.distance), []).append(line)
        for (key, _, _), stack in grids.items():
            got, nodes = grid_values(x, rings[key], stack, stride=16)
            for line, block in zip(stack, got):
                want = reference_line_integrand(x, line, rings[key],
                                                per_class=False)(nodes)
                scale = np.abs(want.coords).max()
                assert np.isfinite(block).all() and np.isfinite(scale)
                worst = max(worst, np.abs(block - want.coords).max()
                            / max(scale, 1e-300))
                nonzero += scale > 0
                chained += any(Fraction(v) < 0 for v in line.lprime)
    assert nonzero > 1000 and chained > 100
    assert worst < 1e-13


def test_chained_recip_gamma_matches_mpmath():
    # 1/Gamma(z - m + d) for m <= 10 steps of the functional equation
    # from the kernel's series at the anchor z + d, z = 1 + r + h s (the
    # ring's picks, kernels.recip_gamma_ladder), on local P^2's sector of
    # dimension 3 (d = D_j / 2 pi i has a square): each value against the
    # Taylor series of mpmath's rgamma, summed in the algebra, within
    # 1e-13 of its largest coordinate (450 points)
    wc = case_wall({}, "p2")
    g0 = trivial_sector(wc)
    ring = plus_ring(wc, g0, 1e-2)
    alg = ring.algebra
    assert alg.dim == 3
    j = next(j for j in range(alg.data.n)
             if not (ring.divisor(j) * ring.divisor(j)).is_zero())
    d = ring.divisor(j) * (1.0 / TWO_PI_I)
    nil = d.nilpotent_part()
    powers = [alg.one(), nil, nil * nil]
    s = np.array([0.5 + 1.3j, -0.75 + 0.4j, 0.25 - 2.2j])
    worst, points = 0.0, 0
    with mpmath.workdps(30):
        for r in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
            for h in (1, -1, 2, -2, 3):
                z = 1 + (complex(r) + s * h)
                [chain] = ring.recip_gamma([z[None]], [d], [(
                    np.zeros(10, dtype=int), np.arange(1, 11), 0)])
                for m in range(1, 11):
                    for i, zi in enumerate(z):
                        w = mpmath.mpc(zi - m) + mpmath.mpc(d.scalar_part)
                        want = sum(complex(c) * p for c, p in zip(
                            mpmath.taylor(mpmath.rgamma, w, 2), powers))
                        got = chain.coords[m - 1, i]
                        worst = max(worst, np.abs(got - want.coords).max()
                                    / np.abs(want.coords).max())
                        points += 1
    assert points == 450
    assert worst < 1e-13


def test_chain_keeps_the_kernels_zero_at_a_gamma_pole():
    # the trapezoid's fifth point has h_5 = 0: a line whose l'_5 is a
    # negative integer -m reaches 1/Gamma(1 - m + D_5 / 2 pi i) from the
    # anchor 0 by m steps.  At eps = 0 that factor has the exact zero
    # scalar part the kernel gives at a pole of Gamma, so the line's
    # values have one too, as in the form before the classes, and their
    # other coordinates agree
    wc = trapezoid_wall()
    [j] = [j for j, v in enumerate(wc.circuit.h) if v == 0]
    x = select_endpoints(wc.circuit, None, 0.1).x_minus
    rings = wc.rings(wc.plus, 0.0)
    ring = next(ring for ring in rings.values()
                if not ring.divisor(j).is_zero())
    unit = ring.algebra.basis_index[()]
    # l'_k = 1/2 on I_minus keeps the pole numerators invertible
    half = [Fraction(1, 2) if i in wc.circuit.I_minus else 0
            for i in range(len(x))]
    stack = [wall.Line(half[:j] + [-m] + half[j + 1:], wc.circuit)
             for m in (1, 2, 3)]
    got, nodes = grid_values(x, ring, stack)
    for line, block in zip(stack, got):
        want = reference_line_integrand(x, line, ring,
                                        per_class=False)(nodes).coords
        assert not want[..., unit].any() and not block[..., unit].any()
        assert 0 < np.abs(want).max() < math.inf
        assert np.abs(block - want).max() <= 1e-13 * np.abs(want).max()


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
        wall._line_values(x, rings, lines, 14.0)
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
        def __init__(self, lprime, circuit, s0=None, den=None):
            built.append(lprime)
            if len(built) == 3:
                raise PoleOnContour("no clear line")
            super().__init__(lprime, circuit, s0, den)
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

    def counted(xs, lines, ring):
        f = real(xs, lines, ring)

        def g(s, keep, **kwargs):
            sizes.append(len(keep) * np.size(s))
            return f(s, keep, **kwargs)
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
