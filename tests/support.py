"""Shared helpers for the test suite."""

from fractions import Fraction
from itertools import product

from gkzflop import rational
from gkzflop.toric import ToricData, Triangulation, cone_index


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
