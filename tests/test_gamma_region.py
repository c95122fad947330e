"""1/Gamma Taylor coefficients where the contour integrand needs them.

The Mellin-Barnes lines and residue circles evaluate 1/Gamma(z + u) at
Re z in [-8, 4] and |Im z| <= 20, to order 3 at most.  Each value is
checked against an arbitrary-precision reference, from one-point calls
and from one call on the whole batch.
"""

import math

import mpmath
import numpy as np
import pytest

from gkzflop import kernels

mpmath.mp.dps = 30


def region_points(count=60, seed=17):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-8, 4, count) + 1j * rng.uniform(-20, 20, count)
    # the real axis too: the poles of Gamma and the half-integers
    return np.concatenate([pts, np.arange(-8.0, 5.0) + 0j,
                           np.arange(-8.0, 4.0) + 0.5 + 0j])


@pytest.fixture(scope="module")
def reference():
    pts = region_points()
    return pts, [[complex(c) for c in
                  mpmath.taylor(mpmath.rgamma, mpmath.mpc(z), 3)]
                 for z in pts]


@pytest.mark.parametrize("kmax", [0, 1, 2, 3])
def test_recip_gamma_series_on_the_contour_region(reference, kmax):
    pts, want = reference
    batch = kernels.recip_gamma_series(pts, kmax)
    assert batch.shape == (len(pts), kmax + 1)
    for z, row, ref in zip(pts, batch, want):
        for got in (row, kernels.recip_gamma_series(z, kmax)):
            assert abs(got[0] - ref[0]) <= 1e-13 * max(1.0, abs(ref[0])), z
            for m in range(kmax + 1):
                assert abs(got[m] - ref[m]) <= 1e-11 * max(1.0, abs(ref[m])), \
                    (z, m)


def test_recip_gamma_at_small_positive_integers():
    for n in range(1, 6):
        want = 1.0 / math.factorial(n - 1)
        for got in (kernels.recip_gamma(n),
                    kernels.recip_gamma(np.arange(1.0, 6.0))[n - 1],
                    kernels.recip_gamma_series(float(n), 3)[0]):
            assert abs(got - want) <= 1e-15 * want, n
