"""Term enumeration and twisted-sector series values near the large-volume point."""

import cmath
import itertools
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
    NonFiniteValue,
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
from support import LOCAL_P2, SMALL_CIRCUITS, \
    circuit_fixture, reference_enumerate_terms, reference_solutions, \
    reference_term_values, reference_term_values_product, \
    reference_terms_of_c, terms_of

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
    plus = exponents(terms_of(conifold.data, conifold.t_plus, c, g0,
                              policy))
    z = (Fraction(0),) * 4
    step = tuple(map(Fraction, (1, -1, -1, 1)))
    assert plus == {z, step}
    g0m = sector_of(conifold, conifold.t_minus, G0_CONE)
    minus = exponents(terms_of(conifold.data, conifold.t_minus, c, g0m,
                               policy))
    back = tuple(map(Fraction, (-1, 1, 1, -1)))
    assert minus == {z, back}


def test_enumerate_twisted_leading(a1):
    g = sector_of(a1, a1.t_minus, TW_A1)
    policy = TruncationPolicy(degree_bound=2)
    terms = terms_of(a1.data, a1.t_minus, (1, 1), g, policy)
    want = (Fraction(-1, 2), Fraction(0), Fraction(-1, 2))
    assert exponents(terms) == {want}
    assert terms[0].support == frozenset({0, 2})


def test_enumerate_deep_point_empty(a1):
    g0 = sector_of(a1, a1.t_plus, G0_A1)
    policy = TruncationPolicy(degree_bound=1)
    assert enumerate_terms(a1.data, a1.t_plus, [(3, 3)], g0, policy) == [[]]


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
            den = math.lcm(*(v.denominator for l0 in lifts for v in l0))
            starts = [[int(v * den) for v in l0] for l0 in lifts]
            for bound in bounds:
                owner, got = series._solutions(starts, den, basis, bound)
                assert got.dtype == np.int64
                for i, l0 in enumerate(lifts):
                    assert [tuple(Fraction(int(v), den) for v in l)
                            for l in got[owner == i]] \
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


def test_nan_shell_norm_is_a_non_finite_value(a1, monkeypatch):
    # a convergent point whose terms of degree > 4 read NaN: the terms'
    # finiteness is checked before the tail fit, which never reads a NaN
    real = series.term_values

    def poisoned(x, nums, den, ring, dual=False):
        values = real(x, nums, den, ring, dual)
        high = np.array([sum(abs(v) for v in num) > 4 * den for num in nums],
                        dtype=bool)
        return values * np.where(high, math.nan, 1.0)

    monkeypatch.setattr(series, "term_values", poisoned)
    x = (0.2, 0.8, 0.3)
    policy = TruncationPolicy(degree_bound=12, tail_check=True)
    with pytest.raises(NonFiniteValue,
                       match=r"term at c = \(0, 0\) is not finite"):
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

    def nan(self, ws, ds, picks=None, scaled=False):
        out = real(self, ws, ds, picks, scaled)
        return [(v[0] * math.nan, v[1]) if scaled else v * math.nan
                for v in out]
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


@pytest.mark.parametrize("h", SMALL_CIRCUITS,
                         ids=lambda h: "h=" + ",".join(map(str, h)))
def test_battery_terms_match_the_per_c_walk(h):
    # one lattice walk and one classification for the whole battery give
    # every c the LatticeTerms that walking and classifying c alone gave:
    # both sides, every sector, the depth-2 battery, with and without
    # the circuit
    data, tris = circuit_fixture(h)
    circuit = find_circuit(data, tris["plus"], tris["minus"])
    policy = TruncationPolicy()
    battery = c_battery(data, 2)
    for t in tris.values():
        for g in compute_box(data, t):
            for circ in (None, circuit):
                got = enumerate_terms(data, t, battery, g, policy, circ)
                assert got == [reference_terms_of_c(data, t, c, g, policy,
                                                    circ) for c in battery]
                assert all(type(v) is int and type(term.essential) is bool
                           and type(term.generator) is bool
                           for part in got for term in part
                           for v in term.num)


def batch_setup(pack, eps=0.0):
    """Terms of every plus and minus sector at c = 0, with their rings."""
    x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(pack.data.n))
    policy = TruncationPolicy(degree_bound=8, tail_check=False)
    out = []
    for t in (pack.t_plus, pack.t_minus):
        chamber = pack.chamber(t)
        for g in chamber.box:
            ring = DeformationRing(chamber.algebras[g.key()], eps=eps)
            terms = terms_of(pack.data, t, (0,) * pack.data.rank, g, policy)
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
    acc = ring.algebra.one()
    for j, lj in enumerate(l):
        d = ring.divisor(j) * (1.0 / TWO_PI_I)
        acc = acc * ring.branched_power(x[j], d) \
            * series.scalar_power(x[j], lj)
        if j in negative_integers(l):
            factor = ring.algebra.one()
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


def orbit_case():
    """(1,1,1,1,1,1,-6) at eps = 1e-2: its wall, its essential plus
    sector's ring, the endpoint x_plus and the Line of l' = 0."""
    data, tris = circuit_fixture((1, 1, 1, 1, 1, 1, -6))
    plus, minus = Chamber(data, tris["plus"]), Chamber(data, tris["minus"])
    circuit = find_circuit(data, plus.t, minus.t)
    wc = WallContext(circuit, plus, minus)
    key = next(g.key() for g in plus.box if g.key() in wc.essential_plus)
    x = select_endpoints(circuit, None, 1e-5).x_plus
    return wc, key, x, Line((0,) * data.n, circuit)


def row_dev(got, want):
    """Largest |got - want| per row over the row's largest |want| (0 for
    rows that agree, zero rows included)."""
    num = np.abs(got - want).max(axis=-1)
    with np.errstate(divide="ignore"):
        return np.divide(num, np.abs(want).max(axis=-1),
                         out=np.zeros_like(num), where=num != 0).max()


def test_orbit_terms_past_the_factorial_overflow_are_finite():
    # on (1,1,1,1,1,1,-6) the orbit term l' + m h of l' = 0 has
    # l_7 = -6m, and its 1/Gamma factor prod_{i<6m} (d - i) /
    # Gamma(1 + d) overflows a float from m = 29 on.  Every row is the
    # ladder's (reference_term_values) bit for bit; up to m = 27 it is
    # the product written out within 1e-13 of its largest coordinate
    # (at m = 28 the written-out partial product before that factor,
    # about 1e-317, is subnormal, and only 2.4e-7 of it is right), and
    # m = 29 and 30 are finite and go on with the orbit's geometric
    # decay
    wc, key, x, line = orbit_case()
    ring = wc.rings(wc.plus, 1e-2)[key]
    rows = series.term_values(x, line.orbit(1, 30), line.den, ring).coords
    assert np.isfinite(rows).all()
    h = line.circuit.h
    ref = reference_term_values(
        x, [tuple(Fraction(m * hv) for hv in h) for m in range(1, 31)], ring)
    assert np.array_equal(rows, ref.coords)
    want = np.array([written_out(x, tuple(m * hv for hv in h), ring)
                     for m in range(1, 28)])
    assert row_dev(rows[:27], want) < 1e-13
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(written_out(x, tuple(29 * hv for hv in h),
                                           ring)).all()
    norms = np.abs(rows).max(axis=1)
    ratios = norms[1:] / norms[:-1]
    assert np.abs(ratios[27:] / ratios[26:-1] - 1).max() < 0.01


def element_rows(values, d, at_zero, dual):
    """prod_{dual <= i < m} (d - i) 1/Gamma(1 + d) for each v = -m of
    values (den 1), and its power-of-two exponent, with AlgebraElement
    products: a product about to turn non-finite is first scaled to a
    largest coordinate in [1/2, 1)."""
    products, acc, e = [], d.algebra.one(), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(-min(values)):
            if i >= dual:
                step = acc * (d - i)
                if not np.isfinite(step.coords).all():
                    k = int(np.frexp(np.abs(acc.coords).max())[1])
                    acc, e = acc * math.ldexp(1.0, -k), e + k
                    step = acc * (d - i)
                acc = step
            products.append((acc, e))
    return {v: ((products[-v - 1][0] * at_zero).coords, products[-v - 1][1])
            for v in values if v < 0}


def laddered_rows(values, d, ring, dual):
    """1/Gamma(1 + v + d) per integer v of values, as term_values asks
    the ring: anchors and steps by series.ladder_anchors, the dual strip
    of a negative v laddered from anchor 0's w - 1; rows and exponents."""
    anchors, depths = map(np.array, series.ladder_anchors(values, 1))
    values = np.array(values)
    stripped = dual & (values < 0)
    tops = np.append(anchors, 0)
    lowered = np.append(np.zeros(len(values), dtype=int), 1)
    slots = np.where(stripped, len(values), np.arange(len(values)))
    (rows, exps), = ring.recip_gamma([1.0 + tops], [d], [
        (slots, depths - stripped, lowered)], scaled=True)
    return rows.coords, exps


@pytest.mark.parametrize("dual", [False, True])
def test_gamma_products_match_element_products(pack, dual):
    # the laddered rows against the functional-equation product on
    # AlgebraElements, values times their power of two within 1e-13 of
    # the row's largest coordinate, past the factorial overflow (m of
    # about 170) as well: no exponent up to m = 169, and one at m = 200
    # unless the row is zero (d = 0 there), on both sides
    values = [-200, -171, -170, -169, -3, -1, 0, 2]
    _, sectors = batch_setup(pack, eps=1e-2)
    for ring, _ in sectors:
        for j in range(ring.algebra.data.n):
            d = ring.divisor(j) * (1.0 / TWO_PI_I)
            rows, exps = laddered_rows(values, d, ring, dual)
            at_zero = ring.recip_gamma([1.0], [d])[0]
            want = element_rows(values, d, at_zero, dual)
            for v, row, e in zip(values, rows, exps):
                if v >= 0:
                    assert e == 0
                    continue
                ref, e_ref = want[v]
                if v >= -169:
                    assert e == e_ref == 0, v
                if v == -200 and ref.any():
                    assert e and e_ref
                got = np.ldexp(row.view(float), e - e_ref).view(complex)
                assert row_dev(got, ref) < 1e-13, v


def test_laddered_rows_match_mpmath(pack):
    # 1/Gamma(1 + v + d) = sum_k c_k n^k, c_k the Taylor coefficients of
    # 1/Gamma(1 + v + s + u) at u = 0, d = s + n with n nilpotent: the
    # laddered rows within 1e-13 of each row's largest coordinate, primal
    # and dual (for v = -m < 0, prod_{0<i<m} (d - i) / Gamma(1 + d): the
    # primal factor without its leading d), at eps 0, 1e-3, 1e-2 and
    # -3e-3
    values = [-60, -21, -3, -1, 0, 2]
    for eps in (0.0, 1e-3, 1e-2, -3e-3):
        _, sectors = batch_setup(pack, eps=eps)
        for ring, _ in sectors:
            alg = ring.algebra
            kmax = alg.zero_degree - 1
            for j in range(alg.data.n):
                d = ring.divisor(j) * (1.0 / TWO_PI_I)
                s = mpmath.mpc(d.scalar_part)
                powers = [alg.one()]
                for _ in range(kmax):
                    powers.append(powers[-1] * d.nilpotent_part())
                for dual in (False, True):
                    rows, exps = laddered_rows(values, d, ring, dual)
                    assert not exps.any()
                    for v, row in zip(values, rows):
                        f = (lambda u, v=v: mpmath.rgamma(1 + s + u)
                             * mpmath.fprod(s + u - i for i in range(1, -v))
                             ) if dual and v < 0 else (
                            lambda u, v=v: mpmath.rgamma(1 + v + s + u))
                        coeffs = mpmath.taylor(f, 0, kmax)
                        want = sum((complex(c) * p.coords for c, p in
                                    zip(coeffs, powers)), np.zeros(alg.dim))
                        assert row_dev(row, want) < 1e-13, (eps, j, v, dual)


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


# a real eps, and one of modulus 3e-3 at angle pi/4
SKEWED = (3e-3, 3e-3 * cmath.exp(0.25j * math.pi))


@pytest.mark.parametrize("name", ["a1", "conifold", "local_p2",
                                  *SMALL_CIRCUITS],
                         ids=lambda n: n if isinstance(n, str)
                         else "h=" + ",".join(map(str, n)))
def test_integer_tables_match_the_fraction_terms(name):
    # the integer terms, classification, order and term_values rows of
    # every sector of both chambers and every c of the depth-2 battery,
    # with and without the circuit, against the Fraction code they
    # replaced (tests/support.py), rows bit for bit, primal and dual;
    # and the rows against the functional-equation product that the
    # ladder replaced, within 1e-13 of each row's largest coordinate, at
    # a real eps and at a complex one, as on an eps^0 circle.  At most
    # 5.1e-14 here (on (3,1,-2,-2), l = (0,-1,-1,0), at the real eps):
    # the nilpotent parts of two factors cancel to 1/2600 of their size
    # there, in both forms.  The ladder's factors keep the small shift
    # s = a_j eps / 2 pi i as (w - k) + s; formed as (w + s) - k they
    # kept the real part of a complex s only to about 1.1e-16 of 1 + s
    # (9.7e-12 here at the complex eps)
    data, tris = equivalence_case(name)
    circuit = find_circuit(data, tris["plus"], tris["minus"])
    policy = TruncationPolicy(tail_check=False)
    x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(data.n))
    battery = c_battery(data, 2)
    for t in tris.values():
        chamber = Chamber(data, t)
        for g in chamber.box:
            for circ in (None, circuit):
                got = enumerate_terms(data, t, battery, g, policy, circ)
                want = [reference_enumerate_terms(data, t, c, g, policy, circ)
                        for c in battery]
                for part, ref in zip(got, want):
                    assert [(term.l, term.support, term.essential,
                             term.generator) for term in part] == [
                        (term.l, term.support, term.essential,
                         term.generator) for term in ref]
                    assert all(type(v) is int and term.den > 0
                               for term in part for v in term.num)
            terms = [term for part in got for term in part]
            dens = {term.den for term in terms}
            assert len(dens) <= 1
            den = dens.pop() if dens else 1
            for eps, dual in itertools.product(SKEWED, (False, True)):
                ring = DeformationRing(chamber.algebras[g.key()], eps=eps)
                rows = series.term_values(x, [term.num for term in terms],
                                          den, ring, dual=dual).coords
                ls = [term.l for term in terms]
                ref = reference_term_values(x, ls, ring, dual=dual).coords
                assert np.isfinite(ref).all()
                assert np.array_equal(rows, ref), (g.key(), dual)
                if ls:
                    product = reference_term_values_product(x, ls, ring,
                                                            dual=dual)
                    assert row_dev(rows, product.coords) < 1e-13


def test_term_values_stack_is_its_samples_alone():
    # a ring of eps samples gives each sample's rows on its own row of a
    # leading axis, the bits of that sample alone (a stack of one):
    # primal and dual, on every sector of both chambers of the 50
    # census crossings at their depth-2 batteries, and on the
    # orbit of (1,1,1,1,1,1,-6) up to m = 30, past the float range
    samples = (3e-3, -5e-3, 1e-2)
    cases = SMALL_CIRCUITS
    for h in cases:
        data, tris = circuit_fixture(h)
        x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(data.n))
        battery = c_battery(data, 2)
        for t in tris.values():
            chamber = Chamber(data, t)
            for g in chamber.box:
                alg = chamber.algebras[g.key()]
                terms = [term for part in enumerate_terms(
                    data, t, battery, g, TruncationPolicy()) for term in part]
                nums = [term.num for term in terms]
                den = terms[0].den if terms else 1
                for dual in (False, True):
                    stack = series.term_values(
                        x, nums, den, DeformationRing(alg, eps=samples), dual)
                    assert stack.coords.shape == (len(samples), len(nums),
                                                  alg.dim)
                    for one, eps in zip(stack.coords, samples):
                        alone = series.term_values(
                            x, nums, den, DeformationRing(alg, eps=(eps,)),
                            dual)
                        assert one.tobytes() == alone.coords[0].tobytes()
    assert len(cases) == 50
    wc, key, x, line = orbit_case()
    stack = series.term_values(x, line.orbit(1, 30), line.den,
                               wc.rings(wc.plus, samples)[key]).coords
    for one, eps in zip(stack, samples):
        alone = series.term_values(x, line.orbit(1, 30), line.den,
                                   wc.rings(wc.plus, (eps,))[key]).coords
        assert np.isfinite(one).all()
        assert one.tobytes() == alone[0].tobytes()


def test_deep_dual_sums_match_mpmath(a1):
    # dual-eval's a1 battery at --trunc 400, where 1/Gamma of the deepest
    # terms (m up to 200) leaves the float range and carries a power of
    # two: every component of a sector of dimension 2 (basis 1, D, D^2 =
    # 0) against the same terms summed in mpmath at 50 digits, within
    # 1e-14 of max(|value|, 1).  With d_j = alpha_j D, a term is F(0) +
    # F'(0) D for F(u) = prod_j x^{l_j + alpha_j u} g_j(u), g_j = 1/Gamma
    # (1 + l_j + alpha_j u), or, stripped, prod_{0<i<m} (alpha_j u - i)
    # / Gamma(1 + alpha_j u) / 2 pi i.  (The functional-equation product
    # this replaced was 2.2e-14 off here, the ladder is 7.9e-15 off)
    mp = mpmath.mp.clone()
    mp.dps = 50
    data = a1.data
    x = complex(0.08 + 0.01j)
    policy = TruncationPolicy(degree_bound=400, tail_check=False)
    battery = cli._interior_battery(data, 2)
    checked = 0
    for t in (a1.t_plus, a1.t_minus):
        chamber = a1.chamber(t)
        module = CompactKModule(chamber)
        got = evaluate_gamma_dual(chamber, battery, [x] * data.n, policy,
                                  module)
        for c, val in zip(battery, got):
            for g in chamber.box:
                alg = chamber.algebras[g.key()]
                if alg.dim != 2:
                    continue
                u0 = alg.basis_index[()]
                ring = DeformationRing(alg, eps=0.0)
                alphas = [mp.mpc(complex((ring.divisor(j) * (1.0 / TWO_PI_I))
                                         .coords[1 - u0]))
                          for j in range(data.n)]
                [terms] = enumerate_terms(data, t, [c], g, policy)
                sums = {}
                for term in terms:
                    f0, dlog = mp.mpc(1), mp.mpc(0)
                    for a, l in zip(alphas, term.l):
                        lj = mp.mpf(l.numerator) / l.denominator
                        f0 *= mp.power(x, lj)
                        dlog += a * mp.log(x)
                        if l.denominator == 1 and l < 0:
                            f0 *= mp.fprod(-i for i in range(1, -int(l))) \
                                / (2j * mp.pi)
                            dlog += a * (mp.euler - mp.harmonic(-int(l) - 1))
                        else:
                            f0 *= mp.rgamma(1 + lj)
                            dlog -= a * mp.digamma(1 + lj)
                    acc = sums.setdefault(tuple(sorted(term.support)),
                                          [mp.mpc(0), mp.mpc(0)])
                    acc[0] += f0
                    acc[1] += f0 * dlog
                for support, (s0, s1) in sums.items():
                    coords = val.components[g.key(), support].coords
                    for k, want in ((u0, s0), (1 - u0, s1)):
                        assert abs(coords[k] - want) \
                            <= 1e-14 * max(abs(want), 1), (c, support, k)
                        checked += abs(want) > 1e60
    assert checked


@pytest.mark.parametrize("name", ["a1", "conifold"])
def test_series_batches_build_fractions_per_lift_not_per_term(packs, name,
                                                             monkeypatch):
    # the lifts of a battery are one integer table (toric.lift_table)
    # and make no Fraction; each sector's ring has n offsets, so at most
    # n per batch, and under 3n per lift, whatever the number of terms.
    # The Fraction terms of an earlier form took 54 (a1) and 69
    # (conifold) per lift here, and its Fraction lifts 3n
    data = packs[name].data
    x = tuple((0.07 + 0.01j) * (1 + 0.1 * j) for j in range(data.n))
    battery = c_battery(data, 2)
    chambers = [packs[name].chamber(t) for t in packs[name].tris.values()]
    counts = {"fractions": 0, "lifts": 0, "terms": 0, "batches": 0}
    real_new, real_lift = Fraction.__new__, series.lift_table

    def counted_new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return real_new(cls, *args, **kwargs)

    def counted_lift(data, gamma, battery):
        counts["lifts"] += len(battery)
        return real_lift(data, gamma, battery)

    monkeypatch.setattr(series, "lift_table", counted_lift)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    for chamber in chambers:
        for dual in (False, True):
            for _, terms, _, _ in series.sector_batches(
                    chamber, battery, x, TruncationPolicy(), dual):
                counts["terms"] += sum(map(len, terms))
                counts["batches"] += 1
    monkeypatch.undo()
    assert counts["terms"] > 5 * counts["lifts"]
    assert counts["fractions"] <= data.n * counts["batches"], counts
    assert counts["fractions"] <= 3 * data.n * counts["lifts"], counts
