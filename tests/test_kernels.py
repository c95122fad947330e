"""Special-function kernels against an arbitrary-precision reference.

Each kernel is checked on scalar arguments and on whole arrays.
"""

import mpmath
import numpy as np

from gkzflop import kernels
from support import reference_scaled_ladder

mpmath.mp.dps = 30


def reference_points(seed=3, count=40, avoid_poles=True):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        if avoid_poles:
            near = min(abs(z - m) for m in range(-12, 1))
            if near < 0.15:
                continue
        out.append(z)
    return out


def each_way(kernel, pts):
    """(z, value) pairs from one-point calls and from one call on an array."""
    batch = kernel(np.array(pts))
    for z, row in zip(pts, batch):
        yield z, kernel(z)
        yield z, row


def test_recip_gamma_plane_wide():
    # entire function: include points near and at the poles of Gamma
    pts = reference_points(seed=9, avoid_poles=False)
    pts += [complex(-3), complex(0), complex(-3 + 1e-8), 0.5 + 0j]
    for z, got in each_way(kernels.recip_gamma, pts):
        want = complex(mpmath.rgamma(mpmath.mpc(z)))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), z


def test_recip_gamma_zero_at_poles():
    for m in range(0, 8):
        assert kernels.recip_gamma(-m) == 0
    assert (kernels.recip_gamma(-np.arange(8.0)) == 0).all()


def test_recip_gamma_series_taylor():
    pts = [1.7 + 0.4j, -2.3 + 0.4j, 0.5, -5.2 - 1.1j, 3.0]
    for z, got in each_way(lambda v: kernels.recip_gamma_series(v, 8), pts):
        want = mpmath.taylor(mpmath.rgamma, mpmath.mpc(z), 8)
        for m in range(9):
            w = complex(want[m])
            assert abs(got[m] - w) <= 1e-11 * max(1.0, abs(w)), (z, m)


def test_recip_gamma_series_at_pole_center():
    got = kernels.recip_gamma_series(-4.0, 3)
    want = mpmath.taylor(mpmath.rgamma, -4, 3)
    assert abs(got[0]) < 1e-15
    assert abs(got[1] - complex(want[1])) < 1e-12 * abs(complex(want[1]))
    assert abs(complex(want[1]) - 24.0) < 1e-20


def test_backend_selection_reported():
    assert kernels.BACKEND == "numpy"


def test_result_shapes():
    # a scalar gives a scalar-shaped result; an array adds its own axes
    z = 1.3 + 0.7j
    assert isinstance(kernels.recip_gamma(z), complex)
    assert kernels.recip_gamma_series(z, 6).shape == (7,)
    grid = np.full((5, 8), z)
    assert kernels.recip_gamma(grid).shape == (5, 8)
    assert kernels.recip_gamma_series(grid, 6).shape == (5, 8, 7)


def test_batches_match_one_point_calls(monkeypatch):
    # a value must not depend on the batch, or the block of a long batch,
    # that its point falls in: a batch of more than two blocks gives the
    # bits it gives in blocks of 512
    pts = np.array(reference_points(seed=13, count=600, avoid_poles=False))
    for kernel in (kernels.recip_gamma,
                   lambda z: kernels.recip_gamma_series(z, 4)):
        batch = kernel(pts)
        single = np.array([kernel(z) for z in pts])
        scale = np.maximum(1.0, np.abs(single))
        assert np.max(np.abs(batch - single) / scale) <= 1e-15
    long = np.array(reference_points(seed=17, count=2 * kernels._BLOCK + 300,
                                     avoid_poles=False))
    batch = kernels.recip_gamma_series(long, 4)
    monkeypatch.setattr(kernels, "_BLOCK", 512)
    assert np.array_equal(batch, kernels.recip_gamma_series(long, 4))


def test_non_finite_centres_give_non_finite_rows_quietly():
    # a centre whose scalar part overflowed is NaN (or infinite): its row
    # is not finite, numpy does not warn, and every finite row is the one
    # that its centre gives alone
    finite = [1.5 + 0.2j, -3.3 + 1j, 0.5, -4.0, -7.6 - 0.3j]
    bad = [complex(np.nan, np.nan), complex(np.nan, 0.0),
           complex(-np.inf, 0.0), complex(np.inf, 1.0)]
    z = np.array(finite[:2] + bad + finite[2:])
    with np.errstate(all="raise"):
        batch = kernels.recip_gamma_series(z, 4)
        for v, row in zip(z, batch):
            alone = kernels.recip_gamma_series(np.array([v]), 4)[0]
            if v in finite:
                assert np.array_equal(row, alone), v
            else:
                assert not np.isfinite(row).all(), v


def test_ladder_matches_mpmath_far_down():
    # 1/Gamma(w - m + u) through order 2, from anchors w near the origin
    # down m = 1, ..., 120 steps of the functional equation, against
    # mpmath's rgamma Taylor series at the exact translate: within 1e-13
    # of the largest coefficient (5e-15 seen).  Requests of one anchor
    # in one call, or each alone, give the same bits
    rng = np.random.default_rng(5)
    w = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-0.6, 0.6, 6)
    c = kernels.recip_gamma_series(w, 2)
    slots = np.repeat(np.arange(6), 4)
    depths = rng.integers(1, 121, slots.size)
    got = kernels.recip_gamma_ladder(c, w, slots, depths)
    assert got.shape == (24, 3)
    for row, i, m in zip(got, slots, depths):
        want = [complex(v) for v in mpmath.taylor(
            mpmath.rgamma, mpmath.mpc(w[i]) - int(m), 2)]
        assert np.abs(row - want).max() <= 1e-13 * np.abs(want).max()
        alone = kernels.recip_gamma_ladder(c, w, [i], [m])[0]
        assert np.array_equal(row, alone)


def test_ladder_keeps_the_exact_zero_and_its_axis():
    # from the anchor 2, steps onto the poles 0, -1, ... give an exact
    # zero value; depth 0 is the anchor's own series; the requests take
    # the anchors' axis, the other axes stay where they are
    w = np.array([[2.0 + 0j, 0.5 + 0.25j]])            # (1, 2): axis 1
    c = kernels.recip_gamma_series(w, 1)
    got = kernels.recip_gamma_ladder(c, w, [[0, 0, 0], [1, 1, 0]],
                                     [[0, 2, 3], [0, 1, 5]], axis=1)
    assert got.shape == (1, 2, 3, 2)
    assert np.array_equal(got[0, 0, 0], c[0, 0])
    assert np.array_equal(got[0, 1, 0], c[0, 1])
    assert got[0, 0, 1, 0] == 0 and got[0, 0, 2, 0] == 0
    assert got[0, 1, 2, 0] == 0
    assert abs(got[0, 0, 1, 1] - 1.0) < 1e-15   # d/du 1/Gamma(u) at 0


def test_ladder_factors_keep_a_small_shift():
    # anchors w + shift with a small complex shift, as the deformation
    # puts them: each factor is (w - k) + shift, so the step from the
    # anchor 1 onto 0 multiplies by the shift itself, bit for bit
    # ((1 + shift) - 1 keeps only about 1e-16 / |shift| of it), and the
    # deeper steps match mpmath at the exact translate
    w = np.array([1.0 + 0j, 0.5 + 0j])
    shift = np.array([4.7e-4 - 1.3e-4j, -2.2e-4 + 3.9e-4j])   # a row each
    c = kernels.recip_gamma_series(np.add.outer(shift, w), 2)
    got = kernels.recip_gamma_ladder(c, w, [0, 0, 1], [1, 3, 2], axis=1,
                                     shift=shift[:, None, None])
    assert got.shape == (2, 3, 3)
    assert np.array_equal(got[:, 0, 0], shift * c[:, 0, 0])
    for i, s in enumerate(shift):
        for row, (a, m) in zip(got[i], ((0, 1), (0, 3), (1, 2))):
            want = [complex(v) for v in mpmath.taylor(
                mpmath.rgamma, mpmath.mpc(w[a]) + mpmath.mpc(s) - m, 2)]
            assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()


def test_scaled_ladder_carries_a_power_of_two_past_the_float_range():
    # down to m = 400 from anchors near 1: a request that stays in the
    # float range (m = 3, 150) has exponent 0 and the unscaled bits; one
    # past it (m = 250, 400) has a nonzero exponent e, and its coefficients
    # times 2**e are mpmath's within 1e-13 of the largest.  From w - 1
    # on the series at w, the leading factor (w - 1 + u) is left out
    w = np.array([1.0 + 0.01j, 1.5 - 0.2j])
    c = kernels.recip_gamma_series(w, 2)
    slots, depths = np.repeat([0, 1], 4), np.tile([3, 150, 250, 400], 2)
    plain = kernels.recip_gamma_ladder(c, w, slots, depths)
    got, exps = kernels.recip_gamma_ladder(c, w, slots, depths, scaled=True)
    lowered, low_exps = kernels.recip_gamma_ladder(c, w - 1, slots, depths,
                                                   scaled=True)
    assert got.shape == plain.shape and exps.shape == slots.shape
    for row, row_low, e, e_low, i, m, unscaled in zip(
            got, lowered, exps, low_exps, slots, depths, plain):
        assert (e != 0) == (m > 200) == (not np.isfinite(unscaled).all())
        if not e:
            assert np.array_equal(row, unscaled)
        for coeffs, k, f in ((row, e, mpmath.rgamma),
                             (row_low, e_low, lambda z, m=m: mpmath.rgamma(
                                 z - 1) / (z + m - 1))):
            want = mpmath.taylor(f, mpmath.mpc(w[i]) - int(m), 2)
            scale = max(abs(v) for v in want)
            assert max(abs(mpmath.mpc(v) * mpmath.mpf(2) ** int(k) - u)
                       for v, u in zip(coeffs, want)) <= 1e-13 * scale


def test_scaled_ladder_checks_once(monkeypatch):
    # the scaled ladder steps unscaled and tests the deepest level alone;
    # only where that is not finite does it step again, scaling level by
    # level.  Either way its bits and exponents are those of the loop
    # that tests every level (support.reference_scaled_ladder).  Anchors
    # near 1 stay in the float range down 150 steps, with exponent 0 and
    # one finiteness test; 200 steps, as gamma-eval --trunc 400 takes,
    # leave it
    w = np.array([1.0 + 0.01j, 1.5 - 0.2j, 0.75 + 0.3j])
    shift = np.array([2e-3j, -3e-3j])[:, None, None]
    c = kernels.recip_gamma_series(w + shift[..., 0], 2)
    tests = {"count": 0}
    real = np.isfinite

    def counted(x, *args, **kwargs):
        tests["count"] += 1
        return real(x, *args, **kwargs)
    for deepest, checks in ((150, 1), (200, None)):
        slots = np.repeat([0, 1, 2], 4)
        depths = np.tile([0, 3, deepest // 2, deepest], 3)
        want, want_exps = reference_scaled_ladder(c, w, slots, depths,
                                                  axis=1, shift=shift)
        tests["count"] = 0
        monkeypatch.setattr(np, "isfinite", counted)
        got, exps = kernels.recip_gamma_ladder(c, w, slots, depths, axis=1,
                                               scaled=True, shift=shift)
        monkeypatch.setattr(np, "isfinite", real)
        assert got.shape == want.shape and exps.shape == want_exps.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(exps, want_exps)
        if checks:
            assert tests["count"] == checks and not exps.any()
        else:
            assert exps[:, depths == deepest].all()
            assert np.isfinite(got).all()
