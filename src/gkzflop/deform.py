"""Deformed divisor arithmetic: D_j -> D_j + a_j * eps.

Residue formulas across the wall need the localization values attached to
the circuit indices to stay distinct; fixtures where divisor classes
coincide in a sector algebra (the conifold) merge those poles.  Shifting
each class by a distinct rational multiple a_j of a small parameter eps
separates them again.  A DeformationRing works in one of two modes:

  * numeric mode: eps is a number, or a tuple of samples that gives each
    value a leading sample axis; the shift is folded into the scalar
    part of an AlgebraElement.  Every operation works here, 1/Gamma (at
    one eps) included, so the Gamma-series terms are evaluated here;
  * series mode: eps stays formal and every value is a truncated
    Laurent series in eps (EpsSeries): one complex array of shape
    (width, dim) per value, row i the algebra coordinates of the
    coefficient of eps^(val + i).  This mode does sums, products, exp,
    inverse and powers only, which is all the residue coefficients and
    monomial values of a transform need; 1/Gamma and the Gamma-series
    terms need a sampled eps and raise InfeasibleArgs here.  Each
    operation acts on the whole window at once, and pole cancellation is
    checked explicitly before the eps^0 coefficient is read off.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import (BranchCut, InfeasibleArgs, NegativeValuation,
                     NonFiniteValue, NotInvertible, SeriesWindowExceeded,
                     UncancelledPole)
from . import kernels
from .rings import AlgebraElement, algebra_exp, algebra_inverse

TWO_PI_I = 2j * math.pi
# series_inverse drops scalar-part coefficients below SCALAR_RTOL of the
# largest; eps_zero refuses a principal part above POLE_RTOL.
SCALAR_RTOL = POLE_RTOL = 1e-9


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


def constant_series(algebra, element, order):
    """EpsSeries equal to a single eps-free coefficient, known below order."""
    if isinstance(element, (int, float, complex)):
        element = algebra.scalar(element)
    coords = np.zeros((max(order, 1), algebra.dim), dtype=complex)
    coords[0] = element.coords
    return EpsSeries(algebra, 0, coords)


class EpsSeries:
    """Truncated Laurent series in eps over one sector algebra.

    coords is one read-only complex array of shape (width, dim): row i
    holds the coordinates of the coefficient of eps**(val+i).  Exponents
    below val are exactly zero; exponents at or beyond val+width are
    unknown (truncated away).  Exact leading zero rows are trimmed on
    construction.  Every operation acts on the whole window at once.
    """

    __slots__ = ("algebra", "val", "coords")

    def __init__(self, algebra, val, coords):
        coords = np.asarray(coords, dtype=complex).reshape(-1, algebra.dim)
        lead = 0
        while lead < len(coords) and not np.count_nonzero(coords[lead]):
            lead += 1
        coords = coords[lead:]
        coords.flags.writeable = False
        self.algebra = algebra
        self.val = val + lead
        self.coords = coords

    @property
    def order(self):
        """First unknown exponent."""
        return self.val + len(self.coords)

    @property
    def coeffs(self):
        """The coefficients of the window, as read-only elements."""
        return tuple(AlgebraElement(self.algebra, row) for row in self.coords)

    def coeff(self, e):
        if e < self.val:
            return self.algebra.zero()
        if e >= self.order:
            raise SeriesWindowExceeded(
                f"coefficient of eps^{e} lies beyond the series window, "
                f"which ends before eps^{self.order}")
        return AlgebraElement(self.algebra, self.coords[e - self.val])

    def norm(self):
        """Largest coordinate modulus in the window; NaN if any is NaN."""
        return float(np.abs(self.coords).max()) if self.coords.size else 0.0

    def is_zero(self, tol=0.0):
        return not self.coords.size or bool(np.abs(self.coords).max() <= tol)

    def principal_norm(self):
        """Largest coordinate modulus at strictly negative exponents."""
        pole = self.coords[:max(-self.val, 0)]
        return float(np.abs(pole).max()) if pole.size else 0.0

    def _padded(self, lo, hi):
        """Rows of the exponents lo, ..., hi - 1, exact zeros below val.

        lo <= val and hi <= order, so every row is known.
        """
        out = np.zeros((hi - lo, self.algebra.dim), dtype=complex)
        k = max(hi - self.val, 0)
        out[self.val - lo:self.val - lo + k] = self.coords[:k]
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
        # each window starts at its val, so order >= val: they always meet
        val = min(self.val, o.val)
        order = min(self.order, o.order)
        return EpsSeries(self.algebra, val, self._padded(val, order)
                         + o._padded(val, order))

    __radd__ = __add__

    def __neg__(self):
        return EpsSeries(self.algebra, self.val, -self.coords)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product on the window both factors know.

        One SectorAlgebra.multiply over the grid of the left factor's
        nonzero rows against every right row; each left row then adds
        its products into the output in ascending row order.
        """
        if isinstance(other, (int, float, complex)):
            return EpsSeries(self.algebra, self.val, self.coords * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        width = min(len(self.coords), len(o.coords))
        left, right = self.coords[:width], o.coords[:width]
        rows = left.any(axis=1).nonzero()[0]
        prods = self.algebra.multiply(left[rows][:, None], right[None])
        out = np.zeros((width, self.algebra.dim), dtype=complex)
        for i, p in zip(rows.tolist(), prods):
            out[i:] += p[:width - i]
        return EpsSeries(self.algebra, self.val + o.val, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, AlgebraElement)):
            return self * other
        return NotImplemented

    def power(self, k):
        assert k >= 0   # internal: DeformationRing.power inverts first
        acc = constant_series(self.algebra, self.algebra.one(),
                              max(self.order, 1))
        for _ in range(k):
            acc = acc * self
        return acc


def series_inverse(x):
    """Inverse of an EpsSeries whose scalar part is a nonzero Laurent series.

    Splits x = S + N with S the scalar-part series (noise below the
    detected scalar valuation is dropped) and N the nilpotent remainder;
    then x^-1 = S^-1 sum_m (-S^-1 N)^m, a finite sum by nilpotency even
    when N sits at a lower eps-order than S.
    """
    alg = x.algebra
    unit = alg.basis_index[()]
    scal = [complex(v) for v in x.coords[:, unit]]
    mags = [abs(s) for s in scal]
    top = max(mags, default=0.0)
    if top == 0.0:
        raise NotInvertible("series scalar part vanishes on its window")
    if not math.isfinite(top):
        raise NonFiniteValue("series scalar part is not finite")
    lead = next(i for i, m in enumerate(mags) if m > SCALAR_RTOL * top)
    s = scal[lead:]
    sinv = [0j] * len(s)
    sinv[0] = 1.0 / s[0]
    for m in range(1, len(s)):
        acc = 0j
        for i in range(1, m + 1):
            acc += s[i] * sinv[m - i]
        sinv[m] = -acc / s[0]
    inv_coords = np.zeros((len(s), alg.dim), dtype=complex)
    inv_coords[:, unit] = sinv
    s_inv = EpsSeries(alg, -(x.val + lead), inv_coords)
    nilp_coords = x.coords.copy()
    nilp_coords[:, unit] = 0.0
    t = s_inv * EpsSeries(alg, x.val, nilp_coords)
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
    if x.val < 0:
        raise NegativeValuation(f"exp of a series with a pole of order "
                                f"{-x.val} in eps")
    width = max(x.order, 1)
    if not len(x.coords):
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


def laurent_window(data):
    """Coefficients that series mode keeps: n + 1.

    A value knows its coefficients up to its order, and a product knows
    min(o1 + v2, o2 + v1): a factor with a pole of order p costs p
    known coefficients, whether or not the pole cancels later.  The
    transform's poles come from the residue coefficient C of a plus
    sector, which inverts one denominator 1 - e^{D_k/h_k} phase for
    every k in I_-.  Where such a denominator vanishes at eps = 0, its
    scalar part vanishes to first order, and the pole of its inverse
    has order at most the nilpotency degree of the sector algebra,
    which is at most |I_+|: the classes D_j for j in I_+ span no cone of
    the plus side, so their product is zero.  Traced on circuits of
    rank 2 to 7, the first such inversion costs |I_+| + 1 coefficients
    and every further one costs 1, so eps^0 stays known with
    |I_+| + |I_-| + 1 <= n + 1 of them, and n + 1 is the smallest window
    that works on each.  A narrower window raises SeriesWindowExceeded
    where eps^0 is read.
    """
    return data.n + 1


class DeformationRing:
    """Shared arithmetic context for the deformed classes D_j + a_j eps.

    eps=None selects series mode (values are EpsSeries of
    laurent_window(data) coefficients); a concrete eps folds the shift
    into scalar parts and every operation stays plain AlgebraElement
    arithmetic.  A tuple of samples is a stack: a value's rows are the
    samples, each the bits of that sample alone.  A sample whose shift
    a_j eps is not a finite complex number raises NonFiniteValue here.
    """

    def __init__(self, algebra, offsets=None, eps=None):
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
        self.eps = None if eps is None else np.array(eps, dtype=complex) \
            if isinstance(eps, tuple) else complex(eps)
        if self.eps is not None:
            for e in eps if isinstance(eps, tuple) else (eps,):
                for a in offsets:
                    if not cmath.isfinite(complex(a) * complex(e)):
                        raise NonFiniteValue(
                            f"divisor shift {a} * eps is not finite at "
                            f"eps = {e!r}")
        self.window = laurent_window(algebra.data)
        self._memo = {}

    @property
    def laurent(self):
        return self.eps is None

    # -- constructors ---------------------------------------------------

    def divisor(self, j):
        base = self.algebra.divisor(j)
        a = complex(self.offsets[j])
        if self.laurent:
            coords = np.zeros((self.window, self.algebra.dim), dtype=complex)
            coords[0] = base.coords
            coords[1, self.algebra.basis_index[()]] = a
            return EpsSeries(self.algebra, 0, coords)
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
            return EpsSeries(self.algebra, self.window, ())
        return self.algebra.zero()

    # -- operations -----------------------------------------------------

    def _once(self, op, x, *args):
        """op(x, *args) for a series x, computed once per distinct x.

        The residue coefficients and monomial values of a transform
        exponentiate, invert and raise the same series for every pole
        and monomial; a series-mode ring keeps each result, keyed by
        the exact window of its argument.  Series are read-only, so the
        callers can share one result.
        """
        key = (op, x.val, x.coords.tobytes(), args)
        if key not in self._memo:
            self._memo[key] = op(x, *args)
        return self._memo[key]

    def exp(self, x):
        if isinstance(x, EpsSeries):
            return self._once(series_exp, x)
        return algebra_exp(x)

    def inv(self, x):
        if isinstance(x, EpsSeries):
            return self._once(series_inverse, x)
        return algebra_inverse(x)

    def power(self, x, k):
        k = int(k)
        if k < 0:
            x, k = self.inv(x), -k
        if isinstance(x, EpsSeries):
            return self._once(EpsSeries.power, x, k)
        return x.power(k)

    def branched_power(self, x, a):
        return self.exp(a * principal_log(x))

    def recip_gamma(self, ws, ds):
        """1/Gamma(w + d) by Taylor composition around the scalar center.

        ws is a list of float centres w, each a number or an array of any
        shape, and ds the list of their shifts d, one element each.  A w
        is the centre less its d's scalar part: 1 + z for the factor
        1/Gamma(1 + z + d) of a series term or the integrand, formed by
        the caller (series forms (N + v) / N from integer numerators).
        One kernel call serves every pair, and the result is the list of
        their values, a batch of elements for an array w.  The kernel is
        elementwise, so a value does not depend on the arrays it is sent
        with.  It is exact at the poles of Gamma, so a nonpositive
        integer w needs no functional equation.  A Laurent ring raises
        InfeasibleArgs: it never meets 1/Gamma.
        """
        if self.laurent:
            raise InfeasibleArgs("1/Gamma needs a sampled eps")
        ws = [np.asarray(v, dtype=complex) for v in ws]
        center = np.concatenate([(v + x.scalar_part).reshape(-1)
                                 for v, x in zip(ws, ds)])
        mmax = self.algebra.zero_degree - 1
        c = kernels.recip_gamma_series(center, mmax)
        out, start = [], 0
        for v, x in zip(ws, ds):
            row = c[start:start + v.size].reshape(v.shape + (mmax + 1,))
            start += v.size
            n = x.nilpotent_part()
            acc = self.algebra.scalar(row[..., mmax])
            for m in range(mmax - 1, -1, -1):
                acc = acc * n + row[..., m]
            out.append(acc)
        return out

    # -- reading off values ---------------------------------------------

    def principal_ratio(self, x):
        """Pole part of x against its largest coefficient at exponents <= 0.

        The coefficients above eps^0 do not count: how many of them are
        known depends on the window width, and the ratio must not.
        """
        if not isinstance(x, EpsSeries):
            return 0.0
        head = np.abs(x.coords[:max(1 - x.val, 0)])
        scale = max(float(head.max()) if head.size else 0.0, 1e-300)
        return x.principal_norm() / scale

    def eps_zero(self, x):
        """Value at eps^0 after checking the pole part cancelled.

        A window that ends before eps^0 raises SeriesWindowExceeded.  A
        NaN ratio is not a cancelled pole part: it raises too.
        """
        if not isinstance(x, EpsSeries):
            return x
        value = x.coeff(0)
        ratio = self.principal_ratio(x)
        if not ratio <= POLE_RTOL:
            raise UncancelledPole(
                f"principal part at relative size {ratio:.3e}")
        return value
