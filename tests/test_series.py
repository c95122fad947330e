"""Term enumeration and twisted-sector series values near the large-volume point."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from gkzflop import (
    BranchCut,
    DivergenceSuspected,
    InfeasibleArgs,
    NonInteriorPoint,
    TruncationPolicy,
    evaluate_gamma,
    evaluate_gamma_dual,
    pde_residuals,
)
from gkzflop import cli, series
from gkzflop.deform import DeformationRing, TWO_PI_I
from gkzflop.dual import CompactKModule
from gkzflop.fixtures import load_fixture, parse_fixture
from gkzflop.rings import Chamber
from gkzflop.series import enumerate_terms, nan_max
from gkzflop.toric import canonical_lift, compute_box, find_circuit
from gkzflop.wall import Line, WallContext, c_battery, select_endpoints
from support import LOCAL_P2, SMALL_CIRCUITS, circuit_fixture, \
    reference_enumerate_terms, reference_solutions, reference_term_values

mpmath.mp.dps = 30

G0_A1 = (Fraction(0), Fraction(0), Fraction(0))
TW_A1 = (Fraction(1, 2), Fraction(0), Fraction(1, 2))
G0_CONE = (Fraction(0),) * 4


def sector_of(pack, t, key):
    from gkzflop import compute_box
    for g in compute_box(pack.data, t):
        if g.key() == key:
            return g
    raise KeyError(key)


def exponents(terms):
    return {tuple(term.l) for term in terms}


def test_enumerate_conifold_orbit(conifold):
    c = (0, 0, 0)
    policy = TruncationPolicy(degree_bound=4)
    g0 = sector_of(conifold, conifold.t_plus, G0_CONE)
    plus = exponents(enumerate_terms(conifold.data, conifold.t_plus, c, g0,
                                     policy))
    z = (Fraction(0),) * 4
    step = tuple(map(Fraction, (1, -1, -1, 1)))
    assert plus == {z, step}
    g0m = sector_of(conifold, conifold.t_minus, G0_CONE)
    minus = exponents(enumerate_terms(conifold.data, conifold.t_minus, c, g0m,
                                      policy))
    back = tuple(map(Fraction, (-1, 1, 1, -1)))
    assert minus == {z, back}


def test_enumerate_twisted_leading(a1):
    g = sector_of(a1, a1.t_minus, TW_A1)
    policy = TruncationPolicy(degree_bound=2)
    terms = enumerate_terms(a1.data, a1.t_minus, (1, 1), g, policy)
    want = (Fraction(-1, 2), Fraction(0), Fraction(-1, 2))
    assert exponents(terms) == {want}
    assert terms[0].support == frozenset({0, 2})


def test_enumerate_deep_point_empty(a1):
    g0 = sector_of(a1, a1.t_plus, G0_A1)
    policy = TruncationPolicy(degree_bound=1)
    assert enumerate_terms(a1.data, a1.t_plus, (3, 3), g0, policy) == []


@st.composite
def small_circuits(draw):
    """Relations h of circuit flops: n <= 5, 1 <= |h_j| <= 3, sum h = 0."""
    n = draw(st.integers(3, 5))
    h = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=n - 1,
                      max_size=n - 1))
    h.append(-sum(h))
    assume(0 < abs(h[-1]) <= 3 and math.gcd(*h) == 1)
    return tuple(h)


def compare_walks(h, bounds=(3, 25)):
    """Check _solutions against the Fraction walk on every sector and c.

    Every sector of both sides, every c of the depth-1 battery; returns
    how many plus sectors have a lift that is not integral.
    """
    data, tris = circuit_fixture(h)
    basis = data.lattice.kernel_basis
    fractional = 0
    for side, t in tris.items():
        for g in compute_box(data, t):
            lifts = [canonical_lift(data, g, c).values
                     for c in c_battery(data, 1)]
            for l0 in lifts:
                for bound in bounds:
                    den, got = series._solutions(l0, basis, bound)
                    assert den == math.lcm(*(v.denominator for v in l0))
                    assert all(type(v) is int for l in got for v in l)
                    assert [tuple(Fraction(v, den) for v in l)
                            for l in got] \
                        == reference_solutions(l0, basis, bound)
            if side == "plus" and any(v.denominator > 1
                                      for l0 in lifts for v in l0):
                fractional += 1
    return fractional


@given(small_circuits())
@example((1, 2, -3))
@example((2, 3, -3, -2))
def test_integer_walk_matches_the_fraction_walk(h):
    compare_walks(h)


@pytest.mark.parametrize("h, sectors", [((1, 2, -3), 2),
                                        ((2, 3, -3, -2), 4)])
def test_integer_walk_covers_fractional_lifts(h, sectors):
    data, tris = circuit_fixture(h)
    assert len(compute_box(data, tris["plus"])) == sectors
    assert compare_walks(h) > 0


def test_leading_term_is_unit_scalar(conifold):
    x = (0.3, 0.7, 0.8, 0.2)
    policy = TruncationPolicy(degree_bound=1, tail_check=False)
    [val] = evaluate_gamma(conifold.chamber(conifold.t_plus), [(0, 0, 0)], x,
                           policy)
    comp = val.components[G0_CONE]
    assert abs(comp.scalar_part - 1.0) < 1e-12
    assert comp.nilpotent_part().norm() > 0


def nilpotent_split(comp, t_el):
    """Write comp = A * 1 + B * t for a rank-one nilpotent t."""
    idx = int(np.argmax(np.abs(t_el.coords)))
    b = comp.coords[idx] / t_el.coords[idx]
    a = comp.scalar_part
    return complex(a), complex(b)


def reference_orbit_sum(x, h, w, mmax):
    """Scalar and first-order values of the one-orbit sum, by numeric
    differentiation of the parametrized scalar series."""

    def f(u):
        tot = mpmath.mpc(0)
        for m in range(mmax + 1):
            p = mpmath.mpc(1)
            for xj, hj, wj in zip(x, h, w):
                e = m * hj + u * wj / (2j * mpmath.pi)
                p *= mpmath.exp(e * mpmath.log(xj)) * mpmath.rgamma(1 + e)
            tot += p
        return tot

    return complex(f(0)), complex(mpmath.diff(f, 0))


def test_component_matches_reference_a1(a1):
    x = (0.2, 0.8, 0.3)
    policy = TruncationPolicy(degree_bound=48, tail_check=False)
    chamber = a1.chamber(a1.t_plus)
    [val] = evaluate_gamma(chamber, [(0, 0)], x, policy)
    comp = val.components[G0_A1]
    alg = chamber.algebras[G0_A1]
    t_el = alg.divisor(0)
    got_a, got_b = nilpotent_split(comp, t_el)
    want_a, want_b = reference_orbit_sum(x, (1, -2, 1), (1, -2, 1), 12)
    assert abs(got_a - want_a) < 1e-10
    assert abs(got_b - want_b) < 1e-10


def test_component_matches_reference_conifold(conifold):
    x = (0.3, 0.7, 0.8, 0.2)
    policy = TruncationPolicy(degree_bound=40, tail_check=False)
    chamber = conifold.chamber(conifold.t_plus)
    [val] = evaluate_gamma(chamber, [(0, 0, 0)], x, policy)
    comp = val.components[G0_CONE]
    alg = chamber.algebras[G0_CONE]
    t_el = alg.divisor(3)
    got_a, got_b = nilpotent_split(comp, t_el)
    want_a, want_b = reference_orbit_sum(x, (1, -1, -1, 1), (1, -1, -1, 1), 10)
    assert abs(got_a - want_a) < 1e-10
    assert abs(got_b - want_b) < 1e-10


def test_twisted_leading_value(a1):
    x = (0.25, 0.5, 0.16)
    policy = TruncationPolicy(degree_bound=2, tail_check=False)
    [val] = evaluate_gamma(a1.chamber(a1.t_minus), [(1, 1)], x, policy)
    comp = val.components[TW_A1]
    expected = x[0] ** -0.5 * x[2] ** -0.5 / math.pi  # (1/Gamma(1/2))^2 = 1/pi
    assert abs(comp.scalar_part - expected) < 1e-13 * abs(expected)


def test_divergence_guard(a1):
    x = (2.0, 0.5, 2.0)
    policy = TruncationPolicy(degree_bound=40, tail_check=True)
    with pytest.raises(DivergenceSuspected):
        evaluate_gamma(a1.chamber(a1.t_plus), [(0, 0)], x, policy)


def test_nan_shell_norm_trips_divergence_guard(a1, monkeypatch):
    # a convergent point whose terms of degree > 4 read NaN
    real = series.term_values

    def poisoned(x, nums, den, ring, dual=False):
        values = real(x, nums, den, ring, dual)
        high = np.array([sum(abs(v) for v in num) > 4 * den for num in nums],
                        dtype=bool)
        return values * np.where(high, math.nan, 1.0)

    monkeypatch.setattr(series, "term_values", poisoned)
    x = (0.2, 0.8, 0.3)
    policy = TruncationPolicy(degree_bound=12, tail_check=True)
    with pytest.raises(DivergenceSuspected):
        evaluate_gamma(a1.chamber(a1.t_plus), [(0, 0)], x, policy)


def test_nan_max_keeps_nan_in_any_position():
    assert math.isnan(nan_max(0.0, math.nan))
    assert math.isnan(nan_max(math.nan, 0.0))
    assert nan_max(0.5, 2.0, 1.0) == 2.0


def test_point_validation():
    with pytest.raises(InfeasibleArgs):
        series._point((1.0, 0.0, 1.0), 3)
    with pytest.raises(BranchCut):
        series._point((1.0, -2.0, 1.0), 3)
    assert series._point((1.0, 2.0 + 0.1j, 0.5), 3) == (1.0, 2.0 + 0.1j, 0.5)


def test_dual_attachments_a1(a1):
    x = (0.08 + 0.01j,) * 3
    policy = TruncationPolicy(degree_bound=4, tail_check=False)
    plus_chamber, minus_chamber = (a1.chamber(t)
                                   for t in (a1.t_plus, a1.t_minus))
    [plus] = evaluate_gamma_dual(plus_chamber, [(1, 1)], x, policy,
                                 CompactKModule(plus_chamber))
    assert set(plus.components) == {(G0_A1, (1,))}
    [minus] = evaluate_gamma_dual(minus_chamber, [(1, 1)], x, policy,
                                  CompactKModule(minus_chamber))
    assert set(minus.components) == {(G0_A1, (0, 2)), (TW_A1, (0, 2))}
    for (key, cone), v in minus.components.items():
        assert cone, "dual coefficients must sit on a nonempty cone"
        assert v.norm() > 0


def test_dual_requires_interior_point(a1):
    x = (0.1, 0.1, 0.1)
    policy = TruncationPolicy(degree_bound=4, tail_check=False)
    chamber = a1.chamber(a1.t_plus)
    module = CompactKModule(chamber)
    with pytest.raises(NonInteriorPoint):
        evaluate_gamma_dual(chamber, [(0, 0)], x, policy, module)
    with pytest.raises(NonInteriorPoint):
        evaluate_gamma_dual(chamber, [(0, 1)], x, policy, module)


def battery_case(name):
    """Both chambers and the gamma-eval endpoints of a case."""
    if isinstance(name, str):
        data, tris = load_fixture(name)
    else:
        data, tris = circuit_fixture(name)
    circuit = find_circuit(data, tris["plus"], tris["minus"])
    path = select_endpoints(circuit, None, 0.1)
    sides = ((Chamber(data, tris["plus"]), path.x_plus),
             (Chamber(data, tris["minus"]), path.x_minus))
    return data, sides


def same_elements(a, b):
    return list(a) == list(b) and all((a[k].coords == b[k].coords).all()
                                      for k in a)


BATTERY_CASES = ["a1", "conifold", (1, 1, 1, -3)]
BATTERY_IDS = ["a1", "conifold", "p2"]


@pytest.mark.parametrize("name", BATTERY_CASES, ids=BATTERY_IDS)
def test_battery_equals_its_single_c_batteries(name):
    # the whole battery is one batch per sector; each c's values are
    # those of the c alone.  Local P^2 (1,1,1,-3) diverges at these
    # endpoints, so the tail fit is reported but does not raise.
    data, sides = battery_case(name)
    policy = TruncationPolicy(degree_bound=20, tail_check=False)
    battery = c_battery(data, 2)
    for chamber, x in sides:
        values = evaluate_gamma(chamber, battery, x, policy)
        assert len(values) == len(battery) > 1
        for c, val in zip(battery, values):
            [alone] = evaluate_gamma(chamber, [c], x, policy)
            assert same_elements(val.components,
                                 alone.components), c
            assert val.term_counts == alone.term_counts, c
            assert val.tail == alone.tail, c


@pytest.mark.parametrize("name", BATTERY_CASES, ids=BATTERY_IDS)
def test_dual_battery_equals_its_single_c_batteries(name):
    data, sides = battery_case(name)
    policy = TruncationPolicy(degree_bound=20)
    battery = cli._interior_battery(data, 2)
    x = [0.08 + 0.01j] * data.n
    for chamber, _ in sides:
        module = CompactKModule(chamber)
        values = evaluate_gamma_dual(chamber, battery, x, policy, module)
        assert len(values) == len(battery) > 1
        for c, val in zip(battery, values):
            [alone] = evaluate_gamma_dual(chamber, [c], x, policy, module)
            assert same_elements(val.components, alone.components), c
            assert val.term_counts == alone.term_counts, c
            assert list(val.reduced) == list(alone.reduced), c
            for key, vec in val.reduced.items():
                assert (vec == alone.reduced[key]).all(), c


def test_battery_raises_what_its_first_failing_c_raises():
    # a1 at depth 3 diverges at three c of the plus side, with two
    # different ratios; the battery names the first in battery order
    data, sides = battery_case("a1")
    policy = TruncationPolicy(degree_bound=20)
    battery = c_battery(data, 3)
    failing = 0
    for chamber, x in sides:
        messages = []
        for c in battery:
            try:
                evaluate_gamma(chamber, [c], x, policy)
            except DivergenceSuspected as exc:
                messages.append(str(exc))
        if not messages:
            evaluate_gamma(chamber, battery, x, policy)
            continue
        failing += 1
        assert len(set(messages)) > 1
        with pytest.raises(DivergenceSuspected) as info:
            evaluate_gamma(chamber, battery, x, policy)
        assert str(info.value) == messages[0]
    assert failing == 1


def test_dual_battery_checks_every_c_up_front(a1):
    x = (0.1, 0.1, 0.1)
    policy = TruncationPolicy(degree_bound=4, tail_check=False)
    chamber = a1.chamber(a1.t_plus)
    with pytest.raises(NonInteriorPoint, match=r"\(0, 1\)"):
        evaluate_gamma_dual(chamber, [(1, 1), (0, 1)], x, policy,
                            CompactKModule(chamber))


def interior_battery(pack):
    base = tuple(sum(col) for col in zip(*pack.data.points))
    out = [base]
    for j in range(pack.data.n):
        out.append(tuple(b + v for b, v in zip(base, pack.data.points[j])))
    return out


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_pde_residuals_primal(pack, side):
    t = pack.t_plus if side == "plus" else pack.t_minus
    x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(pack.data.n))
    policy = TruncationPolicy(tail_check=False)
    report = pde_residuals(pack.chamber(t), c_battery(pack.data, 1), x,
                           policy, which="primal")
    assert report["system"] == "primal"
    assert report["euler_max"] == 0.0
    assert report["interior_residual"] == 0.0
    assert report["factor_identity_max"] < 1e-9
    assert report["pairs"]
    for pair in report["pairs"]:
        assert pair["matched"]
        assert not pair["mismatches"]
        assert pair["boundary_max"] >= 0.0  # truncation-edge magnitude, reported only


def test_nan_recip_gamma_reaches_the_pde_report(a1, monkeypatch):
    # a NaN 1/Gamma value must surface as a NaN worst case, never as 0.0
    real = DeformationRing.recip_gamma

    def nan(self, ws, ds):
        return [v * math.nan for v in real(self, ws, ds)]
    monkeypatch.setattr(DeformationRing, "recip_gamma", nan)
    x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(a1.data.n))
    policy = TruncationPolicy(tail_check=False)
    report = pde_residuals(a1.chamber(a1.t_plus), c_battery(a1.data, 1), x,
                           policy, which="primal")
    assert math.isnan(report["factor_identity_max"])
    edges = [p["boundary_max"] for p in report["pairs"]
             if p["boundary_count"]]
    assert edges and all(math.isnan(v) for v in edges)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_pde_residuals_dual(pack, side):
    t = pack.t_plus if side == "plus" else pack.t_minus
    x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(pack.data.n))
    policy = TruncationPolicy(tail_check=False)
    report = pde_residuals(pack.chamber(t), interior_battery(pack), x, policy,
                           which="dual")
    assert report["system"] == "dual"
    assert report["euler_max"] == 0.0
    assert report["interior_residual"] == 0.0
    for pair in report["pairs"]:
        assert pair["matched"] and not pair["mismatches"]


# -- the batched term evaluator -------------------------------------------


def batch_setup(pack, eps=0.0):
    """Terms of every plus and minus sector at c = 0, with their rings."""
    x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(pack.data.n))
    policy = TruncationPolicy(degree_bound=8, tail_check=False)
    out = []
    for t in (pack.t_plus, pack.t_minus):
        chamber = pack.chamber(t)
        for g in chamber.box:
            ring = DeformationRing(chamber.algebras[g.key()], eps=eps)
            terms = enumerate_terms(pack.data, t, (0,) * pack.data.rank, g,
                                    policy)
            out.append((ring, terms))
    return x, out


def values(x, terms, ring, dual=False):
    """term_values of the terms, all over their sector's one den."""
    den = terms[0].den if terms else 1
    return series.term_values(x, [term.num for term in terms], den, ring,
                              dual=dual)


def negative_integers(l):
    return [j for j, v in enumerate(l) if v.denominator == 1 and v < 0]


@pytest.mark.parametrize("dual", [False, True])
def test_term_rows_do_not_depend_on_the_batch(pack, dual):
    x, sectors = batch_setup(pack, eps=3e-3)
    for ring, terms in sectors:
        full = values(x, terms, ring, dual=dual).coords
        assert full.shape == (len(terms), ring.algebra.dim)
        odd = values(x, terms[1::2], ring, dual=dual).coords
        assert np.array_equal(odd, full[1::2])
        for i, term in enumerate(terms):
            one = values(x, [term], ring, dual=dual).coords
            assert np.array_equal(one[0], full[i]), term.l


def written_out(x, l, ring):
    """One term of exponents l, with the product written out where
    l_j = -m: prod_{i<m} (d - i) 1/Gamma(1 + d), unscaled."""
    acc = ring.one()
    for j, lj in enumerate(l):
        d = ring.divisor(j) * (1.0 / TWO_PI_I)
        acc = acc * ring.branched_power(x[j], d) \
            * series.scalar_power(x[j], lj)
        if j in negative_integers(l):
            factor = ring.one()
            for i in range(-int(lj)):
                factor = factor * (d - i)
            acc = acc * (factor * ring.recip_gamma([1], [d])[0])
        else:
            acc = acc * ring.recip_gamma([1 + lj], [d])[0]
    return acc.coords


def test_negative_integer_rows_are_the_functional_equation_product(pack):
    x, sectors = batch_setup(pack)
    checked = 0
    for ring, terms in sectors:
        rows = values(x, terms, ring).coords
        for l, row in zip((term.l for term in terms), rows):
            assert np.array_equal(row, written_out(x, l, ring)), l
            checked += bool(negative_integers(l))
    assert checked


def test_orbit_terms_past_the_factorial_overflow_are_finite():
    # on (1,1,1,1,1,1,-6) the orbit term l' + m h of l' = 0 has
    # l_7 = -6m, and its 1/Gamma product prod_{i<6m} (d - i) overflows
    # a float from m = 29 on.  The rows up to m = 28 are the unscaled
    # ones bit for bit; m = 29 and 30 are finite and go on with the
    # orbit's geometric decay
    data, tris = circuit_fixture((1, 1, 1, 1, 1, 1, -6))
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    circuit = find_circuit(data, plus.t, minus.t)
    wc = WallContext(circuit, plus, minus)
    key = next(g.key() for g in plus.box if g.key() in wc.essential_plus)
    ring = wc.rings(plus, 1e-2)[key]
    x = select_endpoints(circuit, None, 1e-5).x_plus
    line = Line((0,) * data.n, circuit)
    rows = series.term_values(x, line.orbit(1, 30), line.den, ring).coords
    assert np.isfinite(rows).all()
    for m, row in enumerate(rows[:28], 1):
        want = written_out(x, tuple(m * hv for hv in circuit.h), ring)
        assert np.array_equal(row, want), m
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(written_out(x, tuple(29 * hv for hv in
                                                     circuit.h), ring)).all()
    norms = np.abs(rows).max(axis=1)
    ratios = norms[1:] / norms[:-1]
    assert np.abs(ratios[27:] / ratios[26:-1] - 1).max() < 0.01


def test_dual_rows_carry_the_stripped_factor(pack):
    # d_j * (stripped factor) = 1/Gamma(1 + l_j + d_j), d_j = D~_j/2pi i,
    # and the dual row keeps 1/2pi i per stripped coordinate
    x, sectors = batch_setup(pack)
    checked = 0
    for ring, terms in sectors:
        primal = values(x, terms, ring)
        dual = values(x, terms, ring, dual=True)
        for i, l in enumerate(term.l for term in terms):
            back = ring.algebra.element(dual.coords[i])
            for j in negative_integers(l):
                back = back * ring.divisor(j)
            want = primal.coords[i]
            assert np.abs(back.coords - want).max() \
                <= 1e-13 * max(np.abs(want).max(), 1e-300), l
            checked += bool(negative_integers(l))
    assert checked


def equivalence_case(name):
    if name == "local_p2":
        return parse_fixture(LOCAL_P2)
    if name in ("a1", "conifold"):
        return load_fixture(name)
    return circuit_fixture(name)


@pytest.mark.parametrize("name", ["a1", "conifold", "local_p2",
                                  *SMALL_CIRCUITS],
                         ids=lambda n: n if isinstance(n, str)
                         else "h=" + ",".join(map(str, n)))
def test_integer_tables_match_the_fraction_terms(name):
    # the integer terms, classification, order and term_values rows of
    # every sector of both chambers and every c of the depth-2 battery,
    # with and without the circuit, against the Fraction code they
    # replaced (tests/support.py), rows bit for bit, primal and dual
    data, tris = equivalence_case(name)
    circuit = find_circuit(data, tris["plus"], tris["minus"])
    policy = TruncationPolicy(tail_check=False)
    x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(data.n))
    battery = c_battery(data, 2)
    for t in tris.values():
        chamber = Chamber(data, t)
        for g in chamber.box:
            ring = DeformationRing(chamber.algebras[g.key()], eps=3e-3)
            for circ in (None, circuit):
                got = [enumerate_terms(data, t, c, g, policy, circ)
                       for c in battery]
                want = [reference_enumerate_terms(data, t, c, g, policy, circ)
                        for c in battery]
                for part, ref in zip(got, want):
                    assert [(term.l, term.support, term.owning_cones,
                             term.essential, term.generator)
                            for term in part] == [
                        (term.l, term.support, term.owning_cones,
                         term.essential, term.generator) for term in ref]
                    assert all(type(v) is int and term.den > 0
                               for term in part for v in term.num)
            terms = [term for part in got for term in part]
            dens = {term.den for term in terms}
            assert len(dens) <= 1
            den = dens.pop() if dens else 1
            for dual in (False, True):
                rows = series.term_values(x, [term.num for term in terms],
                                          den, ring, dual=dual).coords
                ref = reference_term_values(x, [term.l for term in terms],
                                            ring, dual=dual).coords
                assert np.isfinite(ref).all()
                assert np.array_equal(rows, ref), (g.key(), dual)


@pytest.mark.parametrize("name", ["a1", "conifold"])
def test_series_batches_build_fractions_per_lift_not_per_term(packs, name,
                                                             monkeypatch):
    # a canonical lift is n Fractions, each the sum of two, and each
    # sector's ring has n offsets: at most 3n per lift, whatever the
    # number of terms.  The Fraction terms of the parent code took 54 (a1)
    # and 69 (conifold) per lift here
    data = packs[name].data
    x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(data.n))
    battery = c_battery(data, 2)
    chambers = [packs[name].chamber(t) for t in packs[name].tris.values()]
    counts = {"fractions": 0, "lifts": 0, "terms": 0}
    real_new, real_lift = Fraction.__new__, series.canonical_lift

    def counted_new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return real_new(cls, *args, **kwargs)

    def counted_lift(*args):
        counts["lifts"] += 1
        return real_lift(*args)

    monkeypatch.setattr(series, "canonical_lift", counted_lift)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    for chamber in chambers:
        for dual in (False, True):
            for _, terms, _, _ in series.sector_batches(
                    chamber, battery, x, TruncationPolicy(), dual):
                counts["terms"] += sum(map(len, terms))
    monkeypatch.undo()
    assert counts["terms"] > 5 * counts["lifts"]
    assert counts["fractions"] <= 3 * data.n * counts["lifts"], counts


def test_term_values_need_a_sampled_eps(a1):
    chamber = a1.chamber(a1.t_plus)
    ring = DeformationRing(chamber.algebras[chamber.box[0].key()], eps=None)
    with pytest.raises(InfeasibleArgs):
        series.term_values((0.2, 0.8, 0.3), [(0,) * 3], 1, ring)
