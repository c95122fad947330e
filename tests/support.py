"""Shared helpers for the test suite."""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from gkzflop import kernels, rational
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
