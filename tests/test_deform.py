"""The deformed shifts over a sample or a stack, and the circle read-off."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gkzflop import (
    BranchCut,
    DeformationRing,
    InfeasibleArgs,
    NonFiniteValue,
    SectorAlgebra,
    compute_box,
    kernels,
)
from gkzflop.deform import TWO_PI_I, circle, circle_read, principal_log
from gkzflop.rings import algebra_exp, algebra_inverse


@pytest.fixture(scope="module")
def alg(a1):
    t = a1.t_plus
    gamma = compute_box(a1.data, t)[0]
    return SectorAlgebra(a1.data, t, gamma)


def test_ring_offset_validation(alg):
    with pytest.raises(InfeasibleArgs):
        DeformationRing(alg, offsets=(0, 1))
    with pytest.raises(InfeasibleArgs):
        DeformationRing(alg, offsets=(0, 1, 1))
    ring = DeformationRing(alg)
    assert ring.offsets == (Fraction(0), Fraction(1), Fraction(2))
    assert ring.eps == 0


def test_ring_refuses_a_shift_that_overflows(alg):
    # the largest offset is 2: 2 * 8e307 is finite, 2 * 9e307 is not
    ring = DeformationRing(alg, eps=8e307)
    assert np.isfinite(ring.divisor(2).coords).all()
    for eps in (9e307, -9e307, 9e307j):
        with pytest.raises(NonFiniteValue, match="divisor shift 2"):
            DeformationRing(alg, eps=eps)


def test_modes_agree_at_small_eps(alg):
    # a stack of samples, real and complex, gives each sample's row the
    # value that sample gives alone
    samples = (1e-3, -2e-3) + circle(0.1, 4)
    stack = DeformationRing(alg, eps=samples)

    def probe(ring):
        inv = algebra_inverse(2.0 - algebra_exp(ring.divisor(1) * (-1.0)))
        bp = ring.branched_power(0.4 + 0.2j,
                                 ring.divisor(2) * (1.0 / TWO_PI_I))
        g, = ring.recip_gamma([1.5], [ring.divisor(0) * (1.0 / TWO_PI_I)])
        return inv * bp * g + ring.power(ring.divisor(0) + 3.0, -2)

    got = probe(stack)
    assert got.coords.shape == (len(samples), alg.dim)
    for row, eps in zip(got.coords, samples):
        want = probe(DeformationRing(alg, eps=eps))
        assert np.abs(row - want.coords).max() <= 1e-14 * want.norm()


def test_stack_sends_a_shared_centre_once(alg, monkeypatch):
    # a shift whose scalar part has the same bits at every sample (D_0 +
    # a_0 eps, a_0 = 0) goes to the kernel once for the stack and its
    # rows are shared; one that differs at a sample, if only in the sign
    # of zero, goes once per sample.  Each row, laddered or not, has the
    # bits that its sample gives alone
    sent = []
    real = kernels.recip_gamma_series

    def counted(z, kmax):
        sent.append(np.size(z))
        return real(z, kmax)
    stack = DeformationRing(alg, eps=(3e-3, -3e-3))
    shared = stack.divisor(0) * (1.0 / TWO_PI_I)
    signed = alg.element(shared.coords.copy())
    signed.coords[1, alg.basis_index[()]] = complex(-0.0, 0.0)
    apart = stack.divisor(1) * (1.0 / TWO_PI_I)
    w = np.array([1.5, 0.25 + 1j, 1.0])
    picks = [(np.array([0, 1, 2, 2]), np.array([0, 2, 1, 3]), 0)] * 3
    monkeypatch.setattr(kernels, "recip_gamma_series", counted)
    got = stack.recip_gamma([w] * 3, [shared, signed, apart], picks)
    assert sent == [3 + 6 + 6]
    for value, d in zip(got, (shared, signed, apart)):
        for i in range(2):
            alone, = stack.recip_gamma([w], [alg.element(d.coords[i])],
                                       picks[:1])
            assert value.coords[i].tobytes() == alone.coords.tobytes()


def test_eps_zero_and_principal():
    # the circle's samples avoid the real axis, and its even samples are
    # the half-size rule rotated by a quarter step
    samples = circle(0.1, 32)
    assert all(abs(e) == pytest.approx(0.1) and e.imag for e in samples)
    assert np.allclose(samples[::2],
                       np.array(circle(0.1, 16)) * np.exp(-0.25j * math.pi
                                                          / 8))
    eps = np.array(samples)[:, None]
    a, b = np.array([1.0, 2.0j]), np.array([3.0, -1.0])
    # a pole term P / eps^2 is read as the eps^-2 coefficient, over |A|
    value, principal, nested = circle_read(a + b * eps + 0.5 / eps ** 2,
                                           samples, 3)
    assert np.abs(value - a).max() < 1e-14
    assert principal == pytest.approx(0.25, rel=1e-12)
    assert nested < 1e-14
    # cancelled: no principal part, and a regular function integrates to
    # roundoff
    value, principal, nested = circle_read(a + b * eps, samples, 3)
    assert np.abs(value - a).max() < 1e-15
    assert principal < 1e-15 and nested < 1e-15
    # an eps^16 term aliases onto the rotated 16-sample rule alone: the
    # nested estimate reads it, the 32-sample mean does not
    value, principal, nested = circle_read(a + 1e10 * eps ** 16, samples, 3)
    assert np.abs(value - a).max() < 1e-14
    assert nested == pytest.approx(1e10 * 0.1 ** 16 / 2, rel=1e-9)


def test_eps_zero_rejects_a_nan_pole_part():
    # one NaN sample makes every coefficient NaN: a gate reading
    # principal < tol or nested < tol then fails
    samples = circle(0.1, 32)
    values = np.ones((32, 2), dtype=complex)
    values[5, 1] = math.nan
    _, principal, nested = circle_read(values, samples, 3)
    assert math.isnan(principal) and math.isnan(nested)
    assert not principal < 1e-9 and not nested < 1e-9


def test_principal_log_branch():
    assert abs(principal_log(1j) - 1j * math.pi / 2) < 1e-15
    with pytest.raises(BranchCut):
        principal_log(-2.0)
    with pytest.raises(BranchCut):
        principal_log(0.0)


@pytest.mark.parametrize("eps", [0.0, 3e-3, (1e-2, -2e-3, 5e-3j)],
                         ids=["zero", "one", "stack"])
def test_divisor_exponentials_are_formed_once_per_ring(alg, eps):
    # each exponential is formed on first read, read-only, with the bits
    # of algebra_exp on the ring's own divisor, and shared by later reads;
    # another ring forms its own
    ring = DeformationRing(alg, eps=eps)
    n = alg.data.n
    for j in range(n):
        for s in (-1.0, 0.5, -1.0 / 3, None):
            got = ring.exp_divisor(j, s)
            assert got is ring.exp_divisor(j, s)
            assert not got.coords.flags.writeable
            exponent = ring.divisor(j) if s is None else ring.divisor(j) * s
            assert got.coords.tobytes() == algebra_exp(exponent).coords \
                .tobytes()
        for k in range(n):
            for r in (0.5, -2.0):
                got = ring.exp_delta(j, k, r)
                assert got is ring.exp_delta(j, k, r)
                want = algebra_exp((ring.divisor(j) - ring.divisor(k) * r)
                                   * (-1.0))
                assert got.coords.tobytes() == want.coords.tobytes()
    other = DeformationRing(alg, eps=eps)
    assert other.exp_divisor(0, -1.0) is not ring.exp_divisor(0, -1.0)
