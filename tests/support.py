"""Shared helpers for the test suite."""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from gkzflop import kernels, rational
from gkzflop.errors import NotInvertible
from gkzflop.rings import algebra_exp
from gkzflop.deform import TWO_PI_I, principal_log, unit_phase
from gkzflop.series import scalar_power
from gkzflop.toric import ToricData, Triangulation, cone_index

# Local P^2: the nontrivial 3-fold flop of Borisov & Horja, "Mellin-Barnes
# integrals as Fourier-Mukai transforms" (Adv. Math. 207, 2006).
LOCAL_P2 = """rank 3
1 0 1
0 1 1
-1 -1 1
0 0 1
deg 0 0 1
triangulation plus
2 3 4
1 3 4
1 2 4
triangulation minus
1 2 3
"""


def brute_force_box_classes(data, t, c, coord_bound=3):
    """Fractional-part classes of the bounded rational solution set.

    Enumerates l with denominators dividing the maximal cone index and
    |l_i| <= coord_bound solving sum l_i v_i = -c, keeps those whose
    fractional support is a cone of t, and returns the set of
    fractional-part vectors (the class invariant modulo the integer
    solution lattice).
    """
    d_max = max(cone_index(data, sigma) for sigma in t.maximal)
    vals = [Fraction(k, d_max)
            for k in range(-coord_bound * d_max, coord_bound * d_max + 1)]
    target = tuple(Fraction(-v) for v in c)
    classes = set()
    for l in product(vals, repeat=data.n):
        if data.combine(l) != target:
            continue
        frac = tuple(v % 1 for v in l)
        support = frozenset(j for j, f in enumerate(frac) if f)
        if not t.is_cone(support):
            continue
        classes.add(frac)
    return classes


def run_box_bijection(data, t, c_values=None, coord_bound=3):
    """Exact two-sided comparison against compute_box for a c battery."""
    from gkzflop.toric import compute_box
    if c_values is None:
        c_values = [(0,) * data.rank] + [tuple(p) for p in data.points]
    box = {g.coords for g in compute_box(data, t)}
    results = {}
    for c in c_values:
        classes = brute_force_box_classes(data, t, c, coord_bound)
        results[c] = (classes, box)
        assert classes == box, (c, classes, box)
    return results


def circuit_fixture(h):
    """(ToricData, {"plus", "minus"}) of the circuit flop with relation h.

    The points are the columns of the Hermite basis of the saturated
    lattice h^perp, so they span Z^(n-1) and satisfy sum h_j v_j = 0.
    The degree functional solves deg . v_j = 1, which (1, ..., 1) in
    h^perp allows.  The two triangulations are
    T+- = {supp h - {j} : j in I+-}.
    """
    basis, _ = rational.hnf(rational.integer_kernel([[v] for v in h]))
    points = [tuple(row[j] for row in basis) for j in range(len(h))]
    deg = rational.solve([list(v) for v in points], [1] * len(h))
    assert deg is not None and all(x.denominator == 1 for x in deg)
    support = frozenset(j for j, v in enumerate(h) if v)

    def side(sign):
        return tuple(support - {j} for j in sorted(support)
                     if sign * h[j] > 0)

    data = ToricData(rank=len(basis), points=tuple(points),
                     deg=tuple(int(x) for x in deg))
    return data, {"plus": Triangulation("plus", side(1)),
                  "minus": Triangulation("minus", side(-1))}


def reference_integrand(x, lprime, circuit, ring):
    """The line integrand in its Gamma-ratio form, node by node or batched.

    Independent of wall.make_integrand's form: pi/sin(pi s) is written
    -Gamma(-s) Gamma(1 + s) and the x-dependence of the s-shift is the
    single power y^s, in place of 2 pi i/(1 - e^{-2 pi i s}) and one
    power of x_j per coordinate.  It has no node guard.
    """
    x = tuple(complex(v) for v in x)
    n = len(x)
    iminus = sorted(circuit.I_minus)
    h = circuit.h
    lp = [complex(v) for v in lprime]
    d = [ring.divisor(j) * (1.0 / TWO_PI_I) for j in range(n)]
    one = ring.one()
    exp_neg = {j: ring.exp(ring.divisor(j) * (-1.0)) for j in iminus}
    nums = {j: one - exp_neg[j] * unit_phase(-lprime[j]) for j in iminus}
    logx = [principal_log(v) for v in x]
    const = ring.one()
    for j in range(n):
        const = const * ring.branched_power(x[j], d[j]) \
            * scalar_power(x[j], lprime[j])
    logy = sum(hv * lg.real for hv, lg in zip(h, logx))
    ay = sum(hv * lg.imag for hv, lg in zip(h, logx)) \
        + math.pi * sum(h[j] for j in iminus)
    hm_sum = sum(h[j] for j in iminus)

    def f(s):
        s = np.asarray(s, dtype=complex)
        pref = -np.exp(kernels.log_gamma(-s) + kernels.log_gamma(1.0 + s))
        grow = np.exp(s * complex(logy, ay + math.pi * (1 - hm_sum)))
        acc = const * (pref * grow)
        for j in iminus:
            den = one - exp_neg[j] * np.exp(-TWO_PI_I * (lp[j] + s * h[j]))
            acc = acc * nums[j] * ring.inv(den)
        for j in range(n):
            acc = acc * ring.recip_gamma(lp[j] + s * h[j], d[j])
        return acc
    return f


def reference_solutions(l0, basis, bound):
    """series._solutions walked in Fractions, one coefficient at a time.

    Each coefficient runs over the exact interval where its pivot entry
    stays within the bound; a tuple is kept when sum |l_i| <= bound.
    """
    out = []

    def descend(cur, idx):
        if idx == len(basis):
            if sum(abs(v) for v in cur) <= bound:
                out.append(tuple(cur))
            return
        row = basis[idx]
        p = next(i for i, v in enumerate(row) if v)
        k = Fraction(row[p])
        lo, hi = sorted(((-bound - cur[p]) / k, (bound - cur[p]) / k))
        for m in range(math.ceil(lo), math.floor(hi) + 1):
            descend([c + m * r for c, r in zip(cur, row)], idx + 1)

    descend([Fraction(v) for v in l0], 0)
    return out


class ListSeries:
    """Reference eps-Laurent series: a list of AlgebraElement coefficients.

    gkzflop.deform.EpsSeries's arithmetic written one coefficient at a
    time, against which its whole-window array form must give the same
    floating-point values: coeffs[i] is the coefficient of
    eps**(val+i), exact leading zeros are trimmed, and a product adds
    a * b into each output exponent one coefficient pair at a time, in
    ascending order of the left factor's rows, skipping its zero rows.
    """

    def __init__(self, algebra, val, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            val += 1
        self.algebra = algebra
        self.val = val
        self.coeffs = coeffs

    @classmethod
    def of(cls, series):
        """The reference twin of an EpsSeries."""
        return cls(series.algebra, series.val,
                   [series.algebra.element(row.copy())
                    for row in series.coords])

    @property
    def order(self):
        return self.val + len(self.coeffs)

    def coeff(self, e):
        if e < self.val:
            return self.algebra.zero()
        assert e < self.order, f"coefficient of eps^{e} beyond window"
        return self.coeffs[e - self.val]

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def _coerce(self, other):
        if isinstance(other, ListSeries):
            return other
        return list_constant(self.algebra, other, max(self.order, 1))

    def __add__(self, other):
        o = self._coerce(other)
        val = min(self.val, o.val)
        order = min(self.order, o.order)
        coeffs = [self.coeff(e) + o.coeff(e) for e in range(val, order)]
        return ListSeries(self.algebra, val, coeffs)

    def __neg__(self):
        return ListSeries(self.algebra, self.val, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ListSeries(self.algebra, self.val,
                              [c * other for c in self.coeffs])
        o = self._coerce(other)
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
        return ListSeries(self.algebra, val, out)

    def power(self, k):
        acc = list_constant(self.algebra, self.algebra.one(),
                            max(self.order, 1))
        for _ in range(k):
            acc = acc * self
        return acc


def list_constant(algebra, element, order):
    if isinstance(element, (int, float, complex)):
        element = algebra.scalar(element)
    pad = [algebra.zero() for _ in range(order - 1)]
    return ListSeries(algebra, 0, [element] + pad)


def list_series_inverse(x, rtol=1e-9):
    """series_inverse on the reference form."""
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
    s_inv = ListSeries(alg, -(x.val + lead), [alg.scalar(c) for c in sinv])
    nilp = ListSeries(alg, x.val, [c.nilpotent_part() for c in x.coeffs])
    t = s_inv * nilp
    acc = s_inv
    term = s_inv
    for _ in range(1, alg.zero_degree):
        term = (term * t) * (-1.0)
        if term.is_zero():
            break
        acc = acc + term
    return acc


def list_series_exp(x):
    """series_exp on the reference form, for nonnegative valuation."""
    alg = x.algebra
    assert x.val >= 0, "exp needs a nonnegative eps-valuation"
    width = max(x.order, 1)
    if not x.coeffs:
        return list_constant(alg, alg.one(), width)
    head = algebra_exp(x.coeff(0))
    rest = x - list_constant(alg, x.coeff(0), width)
    acc = list_constant(alg, alg.one(), width)
    term = acc
    for m in range(1, width):
        term = term * rest * (1.0 / m)
        if term.is_zero():
            break
        acc = acc + term
    return acc * head
