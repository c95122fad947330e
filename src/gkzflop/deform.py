"""Deformed divisor arithmetic: D_j -> D_j + a_j * eps.

Residue formulas across the wall need the localization values attached to
the circuit indices to stay distinct; fixtures where divisor classes
coincide in a sector algebra (the conifold) merge those poles.  Shifting
each class by a distinct rational multiple a_j of a small parameter eps
separates them again.  A DeformationRing folds the shift into the scalar
part of an AlgebraElement at a concrete eps: one number, or a tuple of
samples that gives each value a leading sample axis (a stack).  Every
operation, 1/Gamma included, works on both.

The undeformed (eps^0) value of a function that is analytic at eps = 0
once its poles cancel is read off a circle of samples (circle,
circle_read): its mean over K samples on |eps| = rho is the trapezoid
rule for Cauchy's integral, which converges geometrically (Trefethen &
Weideman, SIAM Review 56, 2014; Bornemann, Found. Comput. Math. 11,
2011).  The same samples give the coefficients of eps^-m, which must
vanish, and the even samples form a rotated K/2 rule, so the two means
differ by a nested error estimate.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import BranchCut, InfeasibleArgs, NonFiniteValue
from . import kernels
from .rings import algebra_exp, algebra_inverse

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


def circle(rho, k):
    """The k samples rho e^{2 pi i (j + 1/2) / k}, j = 0, ..., k - 1.

    For an even k none lies on the real axis, and the even samples are
    the rule of k / 2 samples rotated by a quarter step.
    """
    return tuple(rho * cmath.exp(TWO_PI_I * (j + 0.5) / k) for j in range(k))


def circle_read(values, samples, poles):
    """eps^0 value of an array function from its values on a circle.

    values holds one array per sample of circle(rho, k), stacked on the
    leading axis.  Returns the mean (the eps^0 coefficient), the
    principal ratio and the nested estimate.  The principal ratio is the
    largest |eps^-m coefficient|, the mean of values * eps^m, over m = 1,
    ..., poles, and the nested estimate the largest |mean - mean of the
    even samples|, each over the largest |eps^0 coefficient|.  A NaN
    value makes both NaN.
    """
    eps = np.asarray(samples, dtype=complex).reshape(
        (-1,) + (1,) * (values.ndim - 1))
    value = values.mean(axis=0)
    scale = max(float(np.abs(value).max()), 1e-300)
    principal = max((float(np.abs((values * eps ** m).mean(axis=0)).max())
                     for m in range(1, poles + 1)), default=0.0)
    nested = float(np.abs(value - values[::2].mean(axis=0)).max())
    return value, principal / scale, nested / scale


class DeformationRing:
    """Shared arithmetic context for the deformed classes D_j + a_j eps.

    eps folds the shift into scalar parts, and every operation stays
    plain AlgebraElement arithmetic.  A tuple of samples is a stack: a
    value's rows are the samples, each the bits of that sample alone.  A
    sample whose shift a_j eps is not a finite complex number raises
    NonFiniteValue here.  Each deformed class D_j + a_j eps is formed
    once, read-only, and shared by every caller.
    """

    def __init__(self, algebra, offsets=None, eps=0.0):
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
        self.eps = np.array(eps, dtype=complex) if isinstance(eps, tuple) \
            else complex(eps)
        self._shifts = [complex(a) for a in offsets]
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.multiply.outer(self.eps,
                                                   self._shifts)).all()
        if not finite:
            for e in eps if isinstance(eps, tuple) else (eps,):
                for a in offsets:
                    if not cmath.isfinite(complex(a) * complex(e)):
                        raise NonFiniteValue(
                            f"divisor shift {a} * eps is not finite at "
                            f"eps = {e!r}")
        self._divisors = {}

    # -- constructors ---------------------------------------------------

    def divisor(self, j):
        if j not in self._divisors:
            d = self.algebra.divisor(j) \
                + self.algebra.scalar(self._shifts[j] * self.eps)
            d.coords.flags.writeable = False
            self._divisors[j] = d
        return self._divisors[j]

    # -- operations -----------------------------------------------------

    def power(self, x, k):
        k = int(k)
        if k < 0:
            x, k = algebra_inverse(x), -k
        return x.power(k)

    def branched_power(self, x, a):
        return algebra_exp(a * principal_log(x))

    def recip_gamma(self, ws, ds, picks=None, scaled=False):
        """1/Gamma(w + d) by Taylor composition around the scalar center.

        ws is a list of float centres w, each a number or an array of any
        shape, and ds the list of their shifts d, one element each.  A w
        is the centre less its d's scalar part: 1 + z for the factor
        1/Gamma(1 + z + d) of a series term or the integrand, formed by
        the caller (series forms (N + a) / N from integer numerators).
        A d of a batch shape B (a stack's sample axis) pairs each of its
        rows with every w: the value has shape B + w.shape, B leading.
        picks, if given, holds per w None or (slots, depths, lowered),
        int arrays, slots and depths of one shape P: that w holds anchors
        along its first axis, and its value is 1/Gamma(w[slot] - depth +
        d) per request, of shape B + P + w.shape[1:], read off the
        anchors by kernels.recip_gamma_ladder.  lowered, 0 or of w's
        shape, ladders an anchor from w - 1 where it is 1: its requests
        leave out the leading factor (w - 1 + d).  scaled (with picks for
        every w) returns each value as (element, exponents), the value
        being the element times 2**exponents: the ladder's scaling past
        the float range.  One kernel call serves every pair and anchor,
        and the result is the list of their values, a batch of elements
        for an array w or d.  The kernel and the ladder are elementwise,
        so a value does not depend on the arrays it is sent with.  Both
        are exact at the poles of Gamma, so a nonpositive integer w needs
        no functional equation.
        """
        dim = self.algebra.dim
        centres = [np.add.outer(x.scalar_part, np.asarray(w, dtype=complex))
                   for w, x in zip(ws, ds)]
        mmax = self.algebra.zero_degree - 1
        c = kernels.recip_gamma_series(
            np.concatenate([v.reshape(-1) for v in centres]), mmax)
        out, start = [], 0
        for w, v, x, pick in zip(ws, centres, ds, picks or [None] * len(ws)):
            row = c[start:start + v.size].reshape(v.shape + (mmax + 1,))
            start += v.size
            lead = x.coords.shape[:-1]
            if pick is not None:
                slots, depths, lowered = pick
                row = kernels.recip_gamma_ladder(
                    row, w - lowered, slots, depths, axis=len(lead),
                    scaled=scaled, shift=np.asarray(x.scalar_part).reshape(
                        lead + (1,) * (np.ndim(w) + 1)))
                if scaled:
                    row, exps = row
            n = self.algebra.element(x.nilpotent_part().coords.reshape(
                lead + (1,) * (row.ndim - 1 - len(lead)) + (dim,)))
            acc = self.algebra.scalar(row[..., mmax])
            for m in range(mmax - 1, -1, -1):
                acc = acc * n + row[..., m]
            out.append((acc, exps) if scaled else acc)
        return out
