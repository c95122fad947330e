"""Deformed divisor arithmetic: D_j -> D_j + a_j * eps.

Residue formulas across the wall need the localization values attached to
the circuit indices to stay distinct; fixtures where divisor classes
coincide in a sector algebra (the conifold) merge those poles.  Shifting
each class by a distinct rational multiple a_j of a small parameter eps
separates them again.  Two evaluation modes share one formula path:

  * numeric mode: eps is a concrete number and the shift is folded into
    the scalar part of an AlgebraElement;
  * series mode: eps stays formal and every value is a truncated Laurent
    series in eps with AlgebraElement coefficients, so pole cancellation
    is checked explicitly before the eps^0 coefficient is read off.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import BranchCut, InfeasibleArgs, NotInvertible, UncancelledPole
from . import kernels
from .rings import AlgebraElement, algebra_exp, algebra_inverse

TWO_PI_I = 2j * math.pi


def principal_log(x):
    """log with argument in (-pi, pi); the cut itself is rejected."""
    x = complex(x)
    if x == 0 or (x.imag == 0 and x.real < 0):
        raise BranchCut(f"argument {x} sits on the branch cut")
    return cmath.log(x)


def unit_phase(q):
    """e^{2 pi i q} for rational q, exact at quarter-integer q."""
    q = Fraction(q) % 1
    if q == 0:
        return 1.0 + 0.0j
    if q == Fraction(1, 2):
        return -1.0 + 0.0j
    if q == Fraction(1, 4):
        return 1j
    if q == Fraction(3, 4):
        return -1j
    return cmath.exp(TWO_PI_I * float(q))


def branched_power(x, a):
    """x**a for an AlgebraElement exponent a, principal branch."""
    return algebra_exp(a * principal_log(x))


def constant_series(algebra, element, order):
    """EpsSeries equal to a single eps-free coefficient, known below order."""
    if isinstance(element, (int, float, complex)):
        element = algebra.scalar(element)
    pad = [algebra.zero() for _ in range(order - 1)]
    return EpsSeries(algebra, 0, [element] + pad)


class EpsSeries:
    """Truncated Laurent series in eps over one sector algebra.

    coeffs[i] is the coefficient of eps**(val+i).  Exponents below val
    are exactly zero; exponents at or beyond val+len(coeffs) are unknown
    (truncated away).  Exact leading zeros are trimmed on construction.
    """

    __slots__ = ("algebra", "val", "coeffs")

    def __init__(self, algebra, val, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            val += 1
        self.algebra = algebra
        self.val = val
        self.coeffs = coeffs

    @property
    def order(self):
        """First unknown exponent."""
        return self.val + len(self.coeffs)

    def coeff(self, e):
        if e < self.val:
            return self.algebra.zero()
        assert e < self.order, f"coefficient of eps^{e} beyond window"
        return self.coeffs[e - self.val]

    def shift(self, d):
        return EpsSeries(self.algebra, self.val + d, list(self.coeffs))

    def norm(self):
        return max((c.norm() for c in self.coeffs), default=0.0)

    def is_zero(self, tol=0.0):
        return all(c.is_zero(tol) for c in self.coeffs)

    def principal_norm(self):
        """Largest coefficient norm at strictly negative exponents."""
        out = 0.0
        for i, c in enumerate(self.coeffs):
            if self.val + i >= 0:
                break
            out = max(out, c.norm())
        return out

    def _coerce(self, other):
        if isinstance(other, EpsSeries):
            return other
        if isinstance(other, (int, float, complex, AlgebraElement)):
            return constant_series(self.algebra, other, max(self.order, 1))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        val = min(self.val, o.val)
        order = min(self.order, o.order)
        assert order >= val, "series windows do not overlap"
        coeffs = [self.coeff(e) + o.coeff(e) for e in range(val, order)]
        return EpsSeries(self.algebra, val, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return EpsSeries(self.algebra, self.val, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return EpsSeries(self.algebra, self.val,
                             [c * other for c in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        val = self.val + o.val
        order = min(self.order + o.val, o.order + self.val)
        out = [self.algebra.zero() for _ in range(order - val)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            base = self.val + i + o.val - val
            for j, b in enumerate(o.coeffs):
                e = base + j
                if e >= len(out):
                    break
                out[e] = out[e] + a * b
        return EpsSeries(self.algebra, val, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, AlgebraElement)):
            return self * other
        return NotImplemented

    def power(self, k):
        assert k >= 0
        acc = constant_series(self.algebra, self.algebra.one(),
                              max(self.order, 1))
        for _ in range(k):
            acc = acc * self
        return acc


def series_inverse(x, rtol=1e-9):
    """Inverse of an EpsSeries whose scalar part is a nonzero Laurent series.

    Splits x = S + N with S the scalar-part series (noise below the
    detected scalar valuation is dropped) and N the nilpotent remainder;
    then x^-1 = S^-1 sum_m (-S^-1 N)^m, a finite sum by nilpotency even
    when N sits at a lower eps-order than S.
    """
    alg = x.algebra
    scal = [c.scalar_part for c in x.coeffs]
    mags = [abs(s) for s in scal]
    top = max(mags, default=0.0)
    if top == 0.0:
        raise NotInvertible("series scalar part vanishes on its window")
    lead = next(i for i, m in enumerate(mags) if m > rtol * top)
    s = scal[lead:]
    sinv = [0j] * len(s)
    sinv[0] = 1.0 / s[0]
    for m in range(1, len(s)):
        acc = 0j
        for i in range(1, m + 1):
            acc += s[i] * sinv[m - i]
        sinv[m] = -acc / s[0]
    s_inv = EpsSeries(alg, -(x.val + lead), [alg.scalar(c) for c in sinv])
    nilp = EpsSeries(alg, x.val, [c.nilpotent_part() for c in x.coeffs])
    t = s_inv * nilp
    acc = s_inv
    term = s_inv
    for _ in range(1, alg.zero_degree):
        term = (term * t) * (-1.0)
        if term.is_zero():
            break
        acc = acc + term
    return acc


def series_exp(x):
    """exp of an EpsSeries with nonnegative valuation."""
    alg = x.algebra
    assert x.val >= 0, "exp needs a nonnegative eps-valuation"
    width = max(x.order, 1)
    if not x.coeffs:
        return constant_series(alg, alg.one(), width)
    head = algebra_exp(x.coeff(0))
    rest = x - constant_series(alg, x.coeff(0), width)
    acc = constant_series(alg, alg.one(), width)
    term = acc
    for m in range(1, width):
        term = term * rest * (1.0 / m)
        if term.is_zero():
            break
        acc = acc + term
    return acc * head


def _as_exact(z):
    if isinstance(z, (int, Fraction)):
        return Fraction(z)
    if isinstance(z, np.ndarray):
        return z
    return complex(z)


def _scalar_like(d, value):
    if isinstance(d, AlgebraElement):
        return d.algebra.scalar(value)
    return constant_series(d.algebra, value, max(d.order, 1))


def _taylor_recip(z, d):
    """1/Gamma(1 + z + d) by Taylor composition around the scalar center.

    In numeric mode z may be an array, which gives a batch of elements.
    """
    if isinstance(d, AlgebraElement):
        s = d.scalar_part
        n = d.nilpotent_part()
        mmax = d.algebra.zero_degree - 1
        # exact z (Fractions, alone or in an object array) meets the
        # float center only after 1 + z is formed exactly
        center = np.asarray(1 + z + s, dtype=complex) \
            if isinstance(z, np.ndarray) else complex(1 + z) + s
        c = kernels.recip_gamma_series(center, mmax)
        acc = d.algebra.scalar(c[..., mmax])
        for m in range(mmax - 1, -1, -1):
            acc = acc * n + c[..., m]
        return acc
    assert isinstance(d, EpsSeries)
    if isinstance(z, np.ndarray):
        raise InfeasibleArgs("series-mode shifts take one scalar z at a time")
    assert d.val >= 0
    lead = d.coeff(0) if d.order > 0 else d.algebra.zero()
    assert abs(lead.scalar_part) <= 1e-9 * max(1.0, d.norm()), \
        "eps^0 coefficient of the shift must be nilpotent"
    mmax = d.algebra.zero_degree - 1 + max(d.order - 1, 0)
    c = kernels.recip_gamma_series(complex(1 + z), mmax)
    acc = _scalar_like(d, c[mmax])
    for m in range(mmax - 1, -1, -1):
        acc = acc * d + _scalar_like(d, c[m])
    return acc


def _one_like(d):
    if isinstance(d, AlgebraElement):
        return d.algebra.one()
    return constant_series(d.algebra, d.algebra.one(), max(d.order, 1))


def falling_products(d, m_max, start=0):
    """Running products prod_{start <= i < m} (d - i) for m = 1, ..., m_max.

    Each product extends the previous one by one factor; an empty
    product is one.  These are the functional-equation factors of
    1/Gamma(1 - m + d).
    """
    acc = _one_like(d)
    out = []
    for i in range(m_max):
        if i >= start:
            acc = acc * (d - i)
        out.append(acc)
    return out


def reciprocal_gamma_shifted(z, d):
    """1/Gamma(1 + z + d) for z and a nilpotent or deformed shift d.

    z is a scalar, or in numeric mode an array of scalars (a batch).

    At integer z <= -1 the functional equation is applied first, which
    exposes the leading factor d explicitly: 1/Gamma(1 - m + d) =
    d (d-1) ... (d-m+1) / Gamma(1 + d).
    """
    zq = _as_exact(z)
    if isinstance(zq, Fraction) and zq.denominator == 1 and zq <= -1:
        return falling_products(d, -int(zq))[-1] * _taylor_recip(0, d)
    return _taylor_recip(zq, d)


def reciprocal_gamma_stripped(z, d):
    """g with d * g = 1/Gamma(1 + z + d), defined for integer z <= -1.

    This is the functional-equation product with its leading factor d
    removed, so the divisibility by d is realized without ring division.
    """
    zq = _as_exact(z)
    assert isinstance(zq, Fraction) and zq.denominator == 1 and zq <= -1, \
        "stripping requires a negative integer scalar part"
    return falling_products(d, -int(zq), start=1)[-1] * _taylor_recip(0, d)


def localization_point(algebra):
    """r_j = e^{D_j + 2 pi i gamma_j} for the algebra's own sector."""
    out = []
    for j in range(algebra.data.n):
        phase = unit_phase(algebra.sector.coords[j])
        out.append(algebra_exp(algebra.divisor(j)) * phase)
    return out


class DeformationRing:
    """Shared arithmetic context for the deformed classes D_j + a_j eps.

    eps=None selects series mode (values are EpsSeries truncated at
    eps^window); a concrete eps folds the shift into scalar parts and
    every operation stays plain AlgebraElement arithmetic.
    """

    def __init__(self, algebra, offsets=None, eps=None, window=8):
        n = algebra.data.n
        if offsets is None:
            offsets = tuple(Fraction(j) for j in range(n))
        else:
            offsets = tuple(Fraction(a) for a in offsets)
        if len(offsets) != n:
            raise InfeasibleArgs(f"need {n} offsets, got {len(offsets)}")
        if len(set(offsets)) != n:
            raise InfeasibleArgs("offsets must be pairwise distinct")
        self.algebra = algebra
        self.offsets = offsets
        self.eps = None if eps is None else complex(eps)
        self.window = int(window)

    @property
    def laurent(self):
        return self.eps is None

    # -- constructors ---------------------------------------------------

    def divisor(self, j):
        base = self.algebra.divisor(j)
        a = complex(self.offsets[j])
        if self.laurent:
            pad = [self.algebra.zero() for _ in range(self.window - 2)]
            return EpsSeries(self.algebra, 0,
                             [base, self.algebra.scalar(a)] + pad)
        return base + self.algebra.scalar(a * self.eps)

    def constant(self, a):
        if isinstance(a, (int, float, complex)):
            a = self.algebra.scalar(a)
        if self.laurent:
            return constant_series(self.algebra, a, self.window)
        return a

    def one(self):
        return self.constant(self.algebra.one())

    def zero(self):
        if self.laurent:
            return EpsSeries(self.algebra, self.window, [])
        return self.algebra.zero()

    def scalar(self, z):
        return self.constant(z)

    # -- operations -----------------------------------------------------

    def exp(self, x):
        if isinstance(x, EpsSeries):
            return series_exp(x)
        return algebra_exp(x)

    def inv(self, x, rtol=1e-9):
        if isinstance(x, EpsSeries):
            return series_inverse(x, rtol=rtol)
        return algebra_inverse(x)

    def power(self, x, k):
        k = int(k)
        if k < 0:
            return self.inv(x).power(-k)
        return x.power(k)

    def branched_power(self, x, a):
        return self.exp(a * principal_log(x))

    def recip_gamma(self, z, d):
        return reciprocal_gamma_shifted(z, d)

    # -- reading off values ---------------------------------------------

    def principal_ratio(self, x):
        if not isinstance(x, EpsSeries):
            return 0.0
        scale = max(x.norm(), 1e-300)
        return x.principal_norm() / scale

    def eps_zero(self, x, rtol=1e-9):
        """Value at eps^0 after checking the pole part cancelled.

        A NaN ratio is not a cancelled pole part: it raises too.
        """
        if not isinstance(x, EpsSeries):
            return x
        ratio = self.principal_ratio(x)
        if not ratio <= rtol:
            raise UncancelledPole(
                f"principal part at relative size {ratio:.3e}")
        return x.coeff(0)
