"""Laurent-in-eps arithmetic and the two evaluation modes of the shifts."""

import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkzflop import (
    BranchCut,
    Chamber,
    DeformationRing,
    EpsSeries,
    GkzflopError,
    InfeasibleArgs,
    NegativeValuation,
    NonFiniteValue,
    NotInvertible,
    SectorAlgebra,
    UncancelledPole,
    compute_box,
)
from gkzflop.deform import (
    TWO_PI_I,
    constant_series,
    principal_log,
    series_exp,
    series_inverse,
)
from gkzflop.fixtures import parse_fixture
from support import (LOCAL_P2, ListSeries, list_series_exp,
                     list_series_inverse)


@pytest.fixture(scope="module")
def alg(a1):
    t = a1.t_plus
    gamma = compute_box(a1.data, t)[0]
    return SectorAlgebra(a1.data, t, gamma)


def series_of(alg, val, elements):
    """EpsSeries whose coefficients are the given elements."""
    return EpsSeries(alg, val, [c.coords for c in elements])


def eval_series(s, eps):
    acc = s.algebra.zero()
    for e in range(s.val, s.order):
        acc = acc + s.coeff(e) * (eps ** e)
    return acc


def eq_on_common(u, v, tol=1e-11):
    lo = max(u.val, v.val)
    hi = min(u.order, v.order)
    if hi <= lo:
        return True  # no shared window, nothing observable to disagree on
    return all((u.coeff(e) - v.coeff(e)).norm() <= tol for e in range(lo, hi))


def test_construction_trims_leading_zeros(alg):
    z = alg.zero()
    s = series_of(alg, -2, [z, z, alg.one(), z])
    assert s.val == 0 and s.order == 2
    assert (s.coeff(0) - alg.one()).is_zero()
    assert s.coeff(-5).is_zero()
    assert all(not c.coords.flags.writeable for c in s.coeffs)


def test_constant_series_window(alg):
    s = constant_series(alg, 3.0, 5)
    assert s.val == 0 and s.order == 5
    assert s.coeff(0).scalar_part == 3.0
    assert s.coeff(4).is_zero()
    assert s.principal_norm() == 0.0


series_vals = st.integers(-3, 3)


@st.composite
def small_series(draw, algebra_dim=2):
    val = draw(st.integers(-2, 2))
    coeffs = [[draw(series_vals) for _ in range(algebra_dim)]
              for _ in range(3)]
    return val, coeffs


@given(small_series(), small_series(), small_series())
def test_ring_axioms(alg, sa, sb, sc):
    def mk(spec):
        val, coeffs = spec
        return EpsSeries(alg, val, coeffs)

    a, b, c = mk(sa), mk(sb), mk(sc)
    assert eq_on_common(a + b, b + a)
    assert eq_on_common((a + b) + c, a + (b + c))
    assert eq_on_common(a * b, b * a)
    assert eq_on_common((a * b) * c, a * (b * c))
    assert eq_on_common(a * (b + c), a * b + a * c)


def test_series_inverse_regular(alg):
    rng = np.random.default_rng(2)
    one = alg.one()
    for _ in range(20):
        coeffs = [alg.element(rng.standard_normal(2) + 1j * rng.standard_normal(2))
                  for _ in range(6)]
        coeffs[0] = coeffs[0] + 2.0
        x = series_of(alg, 0, coeffs)
        p = x * series_inverse(x)
        assert (p.coeff(0) - one).norm() < 1e-11
        for e in range(1, p.order):
            assert p.coeff(e).norm() < 1e-10


def test_series_inverse_laurent_valuation(alg):
    t = alg.divisor(0)
    x = series_of(alg, -1, [alg.scalar(2.0) + t, alg.one(), t])
    inv = series_inverse(x)
    assert inv.val == 1
    p = x * inv
    assert (p.coeff(0) - alg.one()).norm() < 1e-12
    for e in range(1, p.order):
        assert p.coeff(e).norm() < 1e-12


def test_series_inverse_rejects_nilpotent(alg):
    t = alg.divisor(0)
    x = series_of(alg, 0, [t, t])
    with pytest.raises(NotInvertible):
        series_inverse(x)


def test_series_exp_pair(alg):
    rng = np.random.default_rng(4)
    coeffs = [alg.element(rng.standard_normal(2)) * 0.3 for _ in range(5)]
    x = series_of(alg, 0, coeffs)
    p = series_exp(x) * series_exp(-x)
    assert (p.coeff(0) - alg.one()).norm() < 1e-12
    for e in range(1, p.order):
        assert p.coeff(e).norm() < 1e-11
    ident = series_exp(EpsSeries(alg, 4, ()))
    assert (ident.coeff(0) - alg.one()).is_zero()


def test_ring_offset_validation(alg):
    with pytest.raises(InfeasibleArgs):
        DeformationRing(alg, offsets=(0, 1))
    with pytest.raises(InfeasibleArgs):
        DeformationRing(alg, offsets=(0, 1, 1))
    ring = DeformationRing(alg)
    assert ring.offsets == (Fraction(0), Fraction(1), Fraction(2))
    assert ring.laurent


def test_ring_refuses_a_shift_that_overflows(alg):
    # the largest offset is 2: 2 * 8e307 is finite, 2 * 9e307 is not
    ring = DeformationRing(alg, eps=8e307)
    assert np.isfinite(ring.divisor(2).coords).all()
    for eps in (9e307, -9e307, 9e307j):
        with pytest.raises(NonFiniteValue, match="divisor shift 2"):
            DeformationRing(alg, eps=eps)


def test_modes_agree_at_small_eps(alg):
    eps = 1e-3
    laurent = DeformationRing(alg, eps=None)
    numeric = DeformationRing(alg, eps=eps)

    def probe(ring):
        inv = ring.inv(ring.constant(2.0) - ring.exp(ring.divisor(1) * (-1.0)))
        bp = ring.branched_power(0.4 + 0.2j, ring.divisor(2) * (1.0 / TWO_PI_I))
        return inv * bp + ring.power(ring.divisor(0) + 3.0, -2)

    want = probe(numeric)
    got = eval_series(probe(laurent), eps)
    assert (got - want).norm() <= 1e-10 * max(1.0, want.norm())


def test_eps_zero_and_principal(alg):
    ring = DeformationRing(alg, eps=None)
    pole = series_of(alg, -1, [alg.one()] + [alg.zero()] * 3)
    assert ring.principal_ratio(pole) > 0.5
    with pytest.raises(UncancelledPole):
        ring.eps_zero(pole)
    cancelled = pole - series_of(alg, -1, [alg.one(), alg.zero()])
    assert ring.principal_ratio(cancelled) == 0.0
    assert ring.eps_zero(cancelled).is_zero()
    val = ring.eps_zero(ring.one())
    assert (val - alg.one()).is_zero()
    assert ring.principal_ratio(alg.one()) == 0.0  # numeric values pass through


def test_eps_zero_rejects_a_nan_pole_part(alg):
    ring = DeformationRing(alg, eps=None)
    nan_pole = series_of(alg, -1, [alg.one() * math.nan, alg.one()])
    assert math.isnan(ring.principal_ratio(nan_pole))
    with pytest.raises(UncancelledPole):
        ring.eps_zero(nan_pole)


def test_principal_log_branch():
    assert abs(principal_log(1j) - 1j * math.pi / 2) < 1e-15
    with pytest.raises(BranchCut):
        principal_log(-2.0)
    with pytest.raises(BranchCut):
        principal_log(0.0)


def test_laurent_ring_has_no_reciprocal_gamma(alg):
    # 1/Gamma needs a sampled eps; the Laurent ring does exp, inverse and
    # powers only
    ring = DeformationRing(alg, eps=None)
    d = ring.divisor(0) * (1.0 / TWO_PI_I)
    for z in (0, -1, Fraction(1, 2)):
        with pytest.raises(InfeasibleArgs):
            ring.recip_gamma([z], [d])
    numeric = DeformationRing(alg, eps=1e-3)
    value, = numeric.recip_gamma([1], [numeric.divisor(0)])
    assert value.norm() > 0


@pytest.fixture(scope="module")
def algebras_by_dim(a1):
    """A sector algebra of each dimension 1, 2 and 3, and a dense twin.

    The twin is the same algebra with random structure constants: the
    sector algebras' tables hold a few small integers, so a contraction
    summed in another order would agree with them exactly.
    """
    data, tris = parse_fixture(LOCAL_P2)
    rng = np.random.default_rng(11)
    out = {}
    for d, t in ((a1.data, a1.t_minus), (a1.data, a1.t_plus),
                 (data, tris["plus"])):
        for alg in Chamber(d, t).algebras.values():
            if (alg.dim, False) in out:
                continue
            dense = copy.copy(alg)
            shape = alg.mult_table.shape
            dense.mult_table = 0.5 * (rng.standard_normal(shape)
                                      + 1j * rng.standard_normal(shape))
            out[alg.dim, False], out[alg.dim, True] = alg, dense
    assert sorted({dim for dim, _ in out}) == [1, 2, 3]
    return out


ROW_KINDS = ("random", "random", "random", "zero", "nan", "scalar")


@st.composite
def window_specs(draw):
    """(val, row kinds) of one series: widths 1 to 12, poles allowed."""
    val = draw(st.integers(-3, 3))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1,
                          max_size=12))
    return val, kinds


def build_series(alg, spec, rng):
    val, kinds = spec
    coords = np.zeros((len(kinds), alg.dim), dtype=complex)
    unit = alg.basis_index[()]
    for i, kind in enumerate(kinds):
        if kind == "random":
            coords[i] = rng.standard_normal(alg.dim) \
                + 1j * rng.standard_normal(alg.dim)
        elif kind == "scalar":
            coords[i, unit] = rng.standard_normal()
        elif kind == "nan":
            coords[i, rng.integers(alg.dim)] = math.nan
    return EpsSeries(alg, val, coords)


def assert_same_series(got, want):
    """Equal values (==, NaN in the same places) on the same window."""
    ref = np.array([c.coords for c in want.coeffs], dtype=complex)
    assert (got.val, got.coords.shape) == \
        (want.val, ref.reshape(-1, got.algebra.dim).shape)
    for part in (np.real, np.imag):
        np.testing.assert_array_equal(part(got.coords),
                                      part(ref.reshape(got.coords.shape)))


def assert_same_outcome(run_array, run_reference):
    """The array form matches the reference, or fails with a typed error."""
    try:
        want = run_reference()
    except (GkzflopError, StopIteration) as exc:
        with pytest.raises(GkzflopError) as got:
            run_array()
        if isinstance(exc, GkzflopError):
            assert type(got.value) is type(exc)
        return
    assert_same_series(run_array(), want)


@settings(max_examples=150)
@given(dim=st.sampled_from([1, 2, 3]), dense=st.booleans(),
       spec_a=window_specs(),
       spec_b=window_specs(), seed=st.integers(0, 2**32 - 1),
       k=st.integers(0, 3))
def test_array_series_match_the_list_reference(algebras_by_dim, dim, dense,
                                               spec_a, spec_b, seed, k):
    alg = algebras_by_dim[dim, dense]
    rng = np.random.default_rng(seed)
    a, b = build_series(alg, spec_a, rng), build_series(alg, spec_b, rng)
    ra, rb = ListSeries.of(a), ListSeries.of(b)
    assert_same_series(a, ra)
    assert_same_series(a + b, ra + rb)
    assert_same_series(a - b, ra - rb)
    assert_same_series(a * b, ra * rb)
    assert_same_series(b * a, rb * ra)
    assert_same_series(a * 0.5, ra * 0.5)
    assert_same_series(a.power(k), ra.power(k))
    assert_same_outcome(lambda: series_inverse(a),
                        lambda: list_series_inverse(ra))
    regular = EpsSeries(alg, max(a.val, 0), a.coords)
    assert_same_outcome(lambda: series_exp(regular),
                        lambda: list_series_exp(ListSeries.of(regular)))
    if a.val < 0:
        with pytest.raises(NegativeValuation):
            series_exp(a)
