"""Sector algebras: dimensions, relations, inverses, special values."""

import cmath
import copy
import functools
import json
import math
import operator
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from gkzflop import (
    BranchCut,
    MonomialUnreduced,
    NilpotencyUnconfirmed,
    NotInvertible,
    SectorAlgebra,
    algebra_exp,
    algebra_inverse,
    compute_box,
)
from gkzflop.deform import DeformationRing, unit_phase
from gkzflop.fixtures import load_fixture, parse_fixture
from gkzflop.rings import Chamber
from gkzflop.toric import sector_label, star_of
from gkzflop.wall import _localization_values
from support import LOCAL_P2, SMALL_CIRCUITS, circuit_fixture, \
    reference_sector_algebra

STRUCTURE_FILE = Path(__file__).parent / "data" / "sector_structure.json"
STRUCTURE_CIRCUITS = ((2, 3, -3, -2), (1, 1, 1, 1, -4), (1, 1, 1, -1, -1, -1))


def close(a, b, tol=1e-13):
    return (a - b).norm() <= tol


def sector_algebras(pack, side):
    t = pack.t_plus if side == "plus" else pack.t_minus
    return {g.key(): SectorAlgebra(pack.data, t, g)
            for g in compute_box(pack.data, t)}


@pytest.fixture(scope="module")
def algebra_map(packs):
    out = {}
    for name, pack in packs.items():
        for side in ("plus", "minus"):
            out[(name, side)] = sector_algebras(pack, side)
    return out


def test_dimensions(algebra_map):
    dims = {key: sorted(a.dim for a in algs.values())
            for key, algs in algebra_map.items()}
    assert dims[("a1", "plus")] == [2]
    assert dims[("a1", "minus")] == [1, 1]
    assert dims[("conifold", "plus")] == [2]
    assert dims[("conifold", "minus")] == [2]
    for key, ds in dims.items():
        assert sum(ds) == 2, key


def test_a1_plus_divisor_classes(algebra_map):
    alg = next(iter(algebra_map[("a1", "plus")].values()))
    t = alg.divisor(0)
    assert t.norm() > 0
    assert close(alg.divisor(2), t)
    assert close(alg.divisor(1), t * (-2.0))
    assert (t * t).is_zero(1e-15)


def test_a1_minus_divisor_classes(algebra_map):
    algs = algebra_map[("a1", "minus")]
    for alg in algs.values():
        assert alg.dim == 1
        for j in range(3):
            assert alg.divisor(j).is_zero(0.0), (alg.sector, j)
    twisted = algs[(Fraction(1, 2), Fraction(0), Fraction(1, 2))]
    assert twisted.generators == ()


def test_conifold_divisor_classes(algebra_map):
    plus = next(iter(algebra_map[("conifold", "plus")].values()))
    t = plus.divisor(3)
    assert t.norm() > 0
    assert close(plus.divisor(0), t)
    assert close(plus.divisor(1), t * (-1.0))
    assert close(plus.divisor(2), t * (-1.0))
    assert (t * t).is_zero(1e-15)
    # degree-1 classes agree across the flop; only the monomial ideal moves
    minus = next(iter(algebra_map[("conifold", "minus")].values()))
    assert minus.dim == 2
    u = minus.divisor(3)
    assert u.norm() > 0
    assert close(minus.divisor(0), u)
    assert close(minus.divisor(1), u * (-1.0))
    assert close(minus.divisor(2), u * (-1.0))
    assert (minus.divisor(1) * minus.divisor(2)).is_zero(1e-15)


def test_linear_relation_defects_vanish_exactly(algebra_map):
    for key, algs in algebra_map.items():
        for alg in algs.values():
            for vec in alg.linear_relation_defects():
                assert all(x == 0 for x in vec), (key, alg.sector)


@pytest.fixture(scope="module")
def small_chambers():
    """(h, data, chamber) for both chambers of every SMALL_CIRCUITS flop."""
    out = []
    for h in SMALL_CIRCUITS:
        data, tris = circuit_fixture(h)
        out += [(h, data, Chamber(data, t)) for t in tris.values()]
    return out


def test_linear_relations_hold_exactly_on_small_circuits(small_chambers):
    # R^mu = 1 for a basis of M: sum_j v_j[a] D_j = 0 over every j, sigma
    # included, and sum_j v_j[a] gamma_j is an integer, for every a
    live = []    # the (circuit, sector) pairs with a nonzero sigma class
    for h, data, chamber in small_chambers:
        for alg in chamber.algebras.values():
            for vec in alg.linear_relation_defects():
                assert all(x == 0 for x in vec), (h, alg.sector)
            for a in range(data.rank):
                twist = sum(v[a] * g for v, g in zip(data.points,
                                                     alg.sector.coords))
                assert twist.denominator == 1, (h, alg.sector, a)
            if any(any(alg.divisor_product_exact((j,)))
                   for j in alg.sector.support):
                live.append((h, alg.sector))
    assert len(live) == 50
    assert len({h for h, _ in live}) == 26


def exact_products(alg):
    """Exact basis coordinates of each product e_a e_b, keyed (a, b): the
    constants that alg.mult_table holds rounded."""
    return {(a, b): alg._normal_form({tuple(sorted(ma + mb)): Fraction(1)})
            for a, ma in enumerate(alg.basis)
            for b, mb in enumerate(alg.basis)}


def test_sector_algebras_match_the_reference_build(small_chambers):
    # the build over all the generators, with the annihilator forms of
    # sigma, gives the same basis, zero degree, generator classes and
    # products; only the classes of sigma itself were missing there.
    # The numeric table is the exact products, each rounded once
    for h, data, chamber in small_chambers:
        for alg in chamber.algebras.values():
            ref = reference_sector_algebra(data, chamber.t, alg.sector)
            assert ref["basis"] == alg.basis, (h, alg.sector)
            assert ref["zero_degree"] == alg.zero_degree, (h, alg.sector)
            assert ref["divisor"] == {j: alg._divisor_exact[j]
                                      for j in alg.generators}, (h, alg.sector)
            mult = exact_products(alg)
            assert ref["mult"] == mult, (h, alg.sector)
            assert np.array_equal(alg.mult_table, [
                [[float(x) for x in mult[a, b]] for b in range(alg.dim)]
                for a in range(alg.dim)]), (h, alg.sector)


def test_stanley_reisner_products(algebra_map):
    a1 = next(iter(algebra_map[("a1", "plus")].values()))
    assert (a1.divisor(0) * a1.divisor(2)).is_zero(1e-15)
    cp = next(iter(algebra_map[("conifold", "plus")].values()))
    assert (cp.divisor(0) * cp.divisor(3)).is_zero(1e-15)
    cm = next(iter(algebra_map[("conifold", "minus")].values()))
    assert (cm.divisor(1) * cm.divisor(2)).is_zero(1e-15)


def test_exact_products_match_numeric(algebra_map):
    alg = next(iter(algebra_map[("a1", "plus")].values()))
    prod = alg.divisor_product_exact((0, 2))
    assert all(x == 0 for x in prod)
    prod = alg.divisor_product_exact((1, 1))
    num = alg.divisor(1) * alg.divisor(1)
    assert np.allclose([complex(x) for x in prod], num.coords, atol=1e-14)


def test_nilpotency_orders(algebra_map):
    for (name, side), algs in algebra_map.items():
        rank = next(iter(algs.values())).data.rank
        for alg in algs.values():
            for j in alg.generators:
                order = alg.nilpotency_order(j)
                assert 1 <= order <= rank + 1, (name, side, j, order)


def test_algebra_failures_are_typed_errors(a1):
    t = a1.t_plus
    alg = SectorAlgebra(a1.data, t, compute_box(a1.data, t)[0])
    mono = max(alg.basis, key=len)
    del alg._reduce[mono]
    with pytest.raises(MonomialUnreduced):
        alg._normal_form({mono: Fraction(1)})
    alg.zero_degree = 0
    with pytest.raises(NilpotencyUnconfirmed):
        alg.nilpotency_order(alg.generators[0])


def structure_fixtures():
    """(name, data, triangulations) of every fixture in STRUCTURE_FILE."""
    out = [(name, *load_fixture(name)) for name in ("a1", "conifold")]
    out.append(("local_p2", *parse_fixture(LOCAL_P2)))
    out += [(",".join(map(str, h)), *circuit_fixture(h))
            for h in STRUCTURE_CIRCUITS]
    return out


def structure_constants(data, tris):
    """Exact basis, divisor classes and basis products of every sector.

    Keyed by side and sector label; the rationals are written as text,
    so the comparison with the recorded file is exact.
    """
    out = {}
    for side in ("plus", "minus"):
        for key, alg in Chamber(data, tris[side]).algebras.items():
            mult = exact_products(alg)
            out[f"{side} {sector_label(key)}"] = {
                "basis": [list(m) for m in alg.basis],
                "divisor": [[str(x) for x in alg._divisor_exact[j]]
                            for j in range(data.n)],
                "mult": [[str(x) for x in mult[a, b]]
                         for a in range(alg.dim) for b in range(alg.dim)],
            }
    return out


def test_structure_constants_match_the_recorded_values():
    # recorded from the one-shot build over the whole monomial span up to
    # degree rank + 1, which the degree-by-degree build replaced
    recorded = json.loads(STRUCTURE_FILE.read_text())
    fixtures = structure_fixtures()
    assert sorted(recorded) == sorted(name for name, _, _ in fixtures)
    for name, data, tris in fixtures:
        assert structure_constants(data, tris) == recorded[name], name


def test_rank_seven_circuit_builds_small():
    # the one-shot build ran out of memory on the rank-7 chamber, and the
    # build over all the generators took seconds on the rank-9 one
    for h in ((1, 1, 1, 1, -1, -1, -1, -1),
              (1, 1, 1, 1, 1, -1, -1, -1, -1, -1)):
        data, tris = circuit_fixture(h)
        assert data.rank == len(h) - 1
        for t in tris.values():
            tracemalloc.start()
            try:
                chamber = Chamber(data, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**26, (h, peak)
            for alg in chamber.algebras.values():
                assert alg.dim == len(star_of(t, alg.sector.support))
                for j in alg.generators:
                    assert alg.nilpotency_order(j) <= data.rank + 1


def test_random_inverses(algebra_map):
    rng = np.random.default_rng(7)
    for algs in algebra_map.values():
        for alg in algs.values():
            one = alg.one()
            for _ in range(100):
                coords = rng.standard_normal(alg.dim) \
                    + 1j * rng.standard_normal(alg.dim)
                coords[alg.basis_index[()]] += 3.0
                a = alg.element(coords)
                assert close(a * algebra_inverse(a), one, 1e-12)


def test_batched_arithmetic_matches_rows(algebra_map):
    rng = np.random.default_rng(17)
    for algs in algebra_map.values():
        for alg in algs.values():
            shape = (5, alg.dim)
            ca = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            cb = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ca[:, alg.basis_index[()]] += 3.0
            a, b = alg.element(ca), alg.element(cb)
            prod, inv, ex = a * b, algebra_inverse(a), algebra_exp(a)
            assert prod.coords.shape == inv.coords.shape == shape
            for i in range(5):
                ai, bi = alg.element(ca[i]), alg.element(cb[i])
                for batch, single in ((prod, ai * bi),
                                      (inv, algebra_inverse(ai)),
                                      (ex, algebra_exp(ai)),
                                      (a * bi, ai * bi)):
                    row = alg.element(batch.coords[i])
                    assert close(row, single, 1e-13 * max(1.0, single.norm()))
            assert np.array_equal(a.scalar_part, ca[:, alg.basis_index[()]])
            assert np.allclose(a.norm(), np.abs(ca).max(axis=1))
            total = (a * np.arange(5.0)).sum()
            assert close(total, alg.element(np.arange(5.0) @ ca), 1e-12)


def test_batch_sum_reduces_as_numpy_does(algebra_map):
    # one row of 1, then 16 rows of 1e-16: in row order each small row
    # rounds away against the running 1, summed pairwise they do not
    col = np.array([1.0] + [1e-16] * 16, dtype=complex)
    alg1 = next(iter(algebra_map[("a1", "minus")].values()))
    alg2 = next(iter(algebra_map[("a1", "plus")].values()))
    assert (alg1.dim, alg2.dim) == (1, 2)
    in_order = functools.reduce(operator.add, col)
    assert in_order == 1.0
    one = alg1.element(col[:, None]).sum()       # (17, 1): the 1-d sum
    assert one.coords[0] == col.sum() != in_order
    two = alg2.element(np.stack([col, col], axis=1)).sum()   # (17, 2)
    assert np.array_equal(two.coords, [in_order, in_order])


def test_inverse_requires_scalar_part(algebra_map):
    alg = next(iter(algebra_map[("a1", "plus")].values()))
    with pytest.raises(NotInvertible):
        algebra_inverse(alg.divisor(0))


def test_inverse_worked_example(algebra_map):
    # with t^2 = 0: 2 - e^{-t} = 1 + t, whose inverse is 1 - t
    alg = next(iter(algebra_map[("conifold", "plus")].values()))
    t = alg.divisor(3)
    el = alg.scalar(2.0) - algebra_exp(-t)
    assert close(el, alg.one() + t, 1e-14)
    assert close(algebra_inverse(el), alg.one() - t, 1e-14)


def test_exp_inverse_pair(algebra_map):
    for algs in algebra_map.values():
        for alg in algs.values():
            for j in range(alg.data.n):
                d = alg.divisor(j)
                assert close(algebra_inverse(algebra_exp(d)),
                             algebra_exp(-d), 1e-13)


def test_branched_power_examples(algebra_map):
    alg = next(iter(algebra_map[("a1", "plus")].values()))
    branched_power = DeformationRing(alg, eps=0.0).branched_power
    t = alg.divisor(0)
    assert close(branched_power(1.0, t), alg.one(), 1e-15)
    assert close(branched_power(math.e, t), alg.one() + t, 1e-14)
    with pytest.raises(BranchCut):
        branched_power(-1.0, t)
    with pytest.raises(BranchCut):
        branched_power(0.0, t)


@given(st.lists(st.floats(-2, 2, allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4))
def test_branched_power_additivity(algebra_map, vals):
    alg = next(iter(algebra_map[("a1", "plus")].values()))
    a = alg.element([vals[0], vals[1]])
    b = alg.element([vals[2], vals[3]])
    x = 0.7 + 0.3j
    branched_power = DeformationRing(alg, eps=0.0).branched_power
    lhs = branched_power(x, a + b)
    rhs = branched_power(x, a) * branched_power(x, b)
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())


def recip_of(alg):
    """(z, d) -> 1/Gamma(1 + z + d) in alg, at eps = 0."""
    ring = DeformationRing(alg, eps=0.0)
    return lambda z, d: ring.recip_gamma([1 + z], [d])[0]


def test_reciprocal_gamma_values(algebra_map):
    alg = next(iter(algebra_map[("conifold", "plus")].values()))
    recip = recip_of(alg)
    t = alg.divisor(3)
    zero = alg.zero()
    assert close(recip(0, zero), alg.one(), 1e-15)
    assert close(recip(-1, t), t, 1e-13)
    assert close(recip(-2, t), -t, 1e-13)
    half = recip(Fraction(1, 2), zero)
    assert abs(half.scalar_part - 2.0 / math.sqrt(math.pi)) < 1e-13
    assert half.nilpotent_part().is_zero(1e-15)


def test_reciprocal_gamma_against_reference(algebra_map):
    alg = next(iter(algebra_map[("a1", "plus")].values()))
    recip = recip_of(alg)
    zero = alg.zero()
    mpmath.mp.dps = 30
    rng = np.random.default_rng(11)
    done = 0
    while done < 50:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        near = min(abs(1 + z - m) for m in range(-12, 1))
        if near < 0.1:
            continue
        got = recip(z, zero).scalar_part
        want = complex(mpmath.rgamma(mpmath.mpc(1 + z)))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), z
        done += 1


def r_values(alg):
    """r_j = e^{D_j + 2 pi i gamma_j}, j = 1..n, in the algebra's sector."""
    n = alg.data.n
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    r = _localization_values(DeformationRing(alg), units)
    return [alg.element(row) for row in r.coords]


def test_localization_points(algebra_map):
    a1m = algebra_map[("a1", "minus")]
    twisted = a1m[(Fraction(1, 2), Fraction(0), Fraction(1, 2))]
    r = r_values(twisted)
    assert [v.scalar_part for v in r] == [(-1 + 0j), (1 + 0j), (-1 + 0j)]
    trivial = a1m[(Fraction(0), Fraction(0), Fraction(0))]
    assert [v.scalar_part for v in r_values(trivial)] == [1, 1, 1]
    cp = next(iter(algebra_map[("conifold", "plus")].values()))
    t = cp.divisor(3)
    r = r_values(cp)
    for j, sign in enumerate((1.0, -1.0, -1.0, 1.0)):
        assert close(r[j], algebra_exp(t * sign), 1e-14)


def test_unit_phase_exact_values():
    # q = num / den, exact at every quarter-integer q, also over a
    # denominator that is not in lowest terms
    assert unit_phase(0) == 1.0 + 0.0j
    assert unit_phase(1, 2) == -1.0 + 0.0j
    assert unit_phase(1, 4) == 1j
    assert unit_phase(3, 4) == -1j
    assert unit_phase(5, 2) == -1.0 + 0.0j
    assert unit_phase(-6, 8) == 1j
    assert unit_phase(9, 12) == -1j
    assert unit_phase(-3, 3) == 1.0 + 0.0j
    got = unit_phase(1, 3)
    assert abs(got - cmath.exp(2j * math.pi / 3)) < 1e-15
    assert unit_phase(-2, 6) == cmath.exp(2j * math.pi * float(Fraction(2, 3)))


def batch_product_algebras(packs):
    """Every sector algebra of a1, conifold and local P^2, and dense twins.

    A twin is the same algebra with random structure constants in every
    entry, so each output coordinate sums dim^2 products.
    """
    chambers = [packs[name].chamber(t) for name in ("a1", "conifold")
                for t in (packs[name].t_plus, packs[name].t_minus)]
    data, tris = parse_fixture(LOCAL_P2)
    chambers += [Chamber(data, t) for t in tris.values()]
    rng = np.random.default_rng(13)
    out = []
    for chamber in chambers:
        for alg in chamber.algebras.values():
            dense = copy.copy(alg)
            shape = alg.mult_table.shape
            dense.mult_table = 0.5 * (rng.standard_normal(shape)
                                      + 1j * rng.standard_normal(shape))
            out += [alg, dense]
    assert {alg.dim for alg in out} == {1, 2, 3}
    return out


def batch_rows(rng, shape, dim):
    """Complex rows over six decades of size; some hold NaN or inf."""
    coords = (rng.standard_normal(shape + (dim,))
              + 1j * rng.standard_normal(shape + (dim,))) \
        * 10.0 ** rng.uniform(-3, 3, shape + (1,))
    flat = coords.reshape(-1, dim)
    for k, bad in enumerate((math.nan, math.inf, complex(-math.inf, 1.0))):
        if len(flat) > 3 * k + 1:
            flat[3 * k + 1, rng.integers(dim)] = bad
    return coords


def one_row(z, idx):
    """The operand z restricted to batch row idx, as a batch of one."""
    lead = z.shape[:-1]
    idx = idx[len(idx) - len(lead):]
    return z[tuple(slice(i, i + 1) if n > 1 else slice(None)
                   for i, n in zip(idx, lead))]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_batch_products_are_batch_independent(packs):
    # a row's product is the same bits in every batch it can sit in and
    # as a single element, and within rounding of the dense einsum
    # contraction, the reference: einsum's scalar loop rounds complex
    # products differently from numpy's array multiply
    rng = np.random.default_rng(5)
    for alg in batch_product_algebras(packs):
        dim, table = alg.dim, alg.mult_table

        def product(x, y):
            return (alg.element(x) * alg.element(y)).coords

        def dense(x, y):
            return np.einsum("...a,...b,abc->...c", x, y, table)

        cases = [(batch_rows(rng, (), dim), batch_rows(rng, (), dim)),
                 (batch_rows(rng, (1,), dim), batch_rows(rng, (1,), dim)),
                 (batch_rows(rng, (5, 1), dim), batch_rows(rng, (1, 7), dim))]
        for n in (2, 17, 644):
            cases += [(batch_rows(rng, (n,), dim), batch_rows(rng, (n,), dim)),
                      (batch_rows(rng, (n,), dim), batch_rows(rng, (), dim)),
                      (batch_rows(rng, (), dim), batch_rows(rng, (n,), dim))]
        for x, y in cases:
            got = product(x, y)
            shape = np.broadcast_shapes(x.shape, y.shape)
            assert got.shape == shape
            xb, yb = np.broadcast_arrays(x, y)
            for idx in np.ndindex(shape[:-1]):
                alone = product(one_row(x, idx), one_row(y, idx))
                np.testing.assert_array_equal(got[idx], alone.reshape(dim))
                np.testing.assert_array_equal(got[idx],
                                              product(xb[idx], yb[idx]))
            finite = np.isfinite(xb).all(-1) & np.isfinite(yb).all(-1)
            assert not np.isfinite(got[~finite]).all(-1).any()
            scale = np.einsum("...a,...b,abc->...c", np.abs(xb), np.abs(yb),
                              np.abs(table)).max(-1)
            err = np.abs(got - dense(xb, yb)).max(-1)
            assert (err[finite] <= 1e-15 * scale[finite]).all()
