"""Shared helpers for the test suite."""

import argparse
import cmath
import functools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

import mpmath
import numpy as np

from gkzflop import cli, rational, wall
from gkzflop.errors import InfeasibleArgs, NonFiniteValue, \
    PoleOnContour, PoleProximity, PoleRightOfLine, TailBoundViolated
from gkzflop.deform import TWO_PI_I, principal_log, unit_phase
from gkzflop.rings import algebra_exp, algebra_inverse
from gkzflop.series import LatticeTerm, enumerate_terms, scalar_power
from gkzflop.toric import ToricData, Triangulation, TwistedSector, _apply, \
    canonical_lift, cone_index, essential_cones, star_rays

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

# A square flop with a fifth point (2, 0) outside its circuit: the one
# fixture whose wall-blind index set J = {5} is not every point, so its
# blind classes R^b (1 - R_5) are nonzero, and whose plus-side series
# has non-essential terms.
TRAPEZOID = """rank 3
1 0 1
0 0 1
0 1 1
1 1 1
2 0 1
deg 0 0 1
triangulation plus
1 2 4
2 3 4
1 4 5
triangulation minus
1 2 3
1 3 4
1 4 5
"""

# every circuit relation of n <= 6 points with 1 <= |h_j| <= 3, sum h = 0
# and gcd 1, one per multiset of coefficients (in descending order): 50
SMALL_CIRCUITS = [h for n in range(3, 7) for h in
                  combinations_with_replacement((3, 2, 1, -1, -2, -3), n)
                  if sum(h) == 0 and math.gcd(*h) == 1]


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
    The degree functional is the integer solution of deg . v_j = 1,
    which (1, ..., 1) in h^perp allows; the points span Z^(n-1), so it
    is unique.  The two triangulations are
    T+- = {supp h - {j} : j in I+-}.
    """
    basis, _ = rational.hnf(rational.integer_kernel([[v] for v in h]))
    points = [tuple(row[j] for row in basis) for j in range(len(h))]
    deg = rational.solve_integer(*rational._hnf_full(basis), [1] * len(h))
    assert deg is not None
    support = frozenset(j for j, v in enumerate(h) if v)

    def side(sign):
        return tuple(support - {j} for j in sorted(support)
                     if sign * h[j] > 0)

    data = ToricData(rank=len(basis), points=tuple(points),
                     deg=tuple(int(x) for x in deg))
    return data, {"plus": Triangulation("plus", side(1)),
                  "minus": Triangulation("minus", side(-1))}


def relabel(data, tris, order):
    """(ToricData, {label: Triangulation}) with the points in order.

    Point i of the result is point order[i] of data, and every cone
    names the same points by their new indices.
    """
    new = {old: i for i, old in enumerate(order)}
    points = tuple(data.points[old] for old in order)
    return (ToricData(rank=data.rank, points=points, deg=data.deg),
            {label: Triangulation(t.label, tuple(
                frozenset(new[j] for j in sigma) for sigma in t.maximal))
             for label, t in tris.items()})


def reference_canonical_lift(data, sector, c):
    """toric.canonical_lift's values, with the lattice derived per call.

    The points' HNF, their integer kernel and the kernel's HNF are
    computed afresh for this one lift, without ToricData.lattice.  None
    when no integer lift exists.
    """
    rows = [list(v) for v in data.points]
    target = [-int(ci) - gp for ci, gp in zip(c, sector.point)]
    z = rational.solve_integer(*rational._hnf_full(rows), target)
    if z is None:
        return None
    kernel = rational.integer_kernel(rows)
    z = rational.reduce_mod_lattice(z, rational.hnf(kernel)[0])
    return tuple(Fraction(zi) + gi for zi, gi in zip(z, sector.coords))


# toric's cone geometry as it was before the HNF toolkit answered it: a
# Fraction determinant for the cone index, a rational nullspace scaled to
# a primitive normal, and a scan of all m^rank tuples k/m per cone for the
# Box.  The pinning test in test_toric checks the HNF forms against these.


def reference_cone_index(data, sigma):
    """Lattice index (|det|) of a full-dimensional simplicial cone."""
    m = [list(data.points[j]) for j in sorted(sigma)]
    return abs(_reference_det_int(m))


def _reference_det_int(m):
    n = len(m)
    if n == 0:
        return 1
    work = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    assert det.denominator == 1   # internal: the rows are integral
    return int(det)


def reference_facet_normal(data, facet, sigma):
    """Primitive normal of span(facet), oriented positive on sigma's extra ray."""
    rows = [list(data.points[j]) for j in facet]
    null = rational.nullspace(rows) if rows else []
    if rows and len(null) != 1:
        return None
    if not rows:
        return None
    mu = null[0]
    den = 1
    for x in mu:
        den = den * x.denominator // _reference_gcd(den, x.denominator) \
            if x else den
    ints = [int(x * den) for x in mu]
    g = 0
    for x in ints:
        g = _reference_gcd(g, abs(x))
    ints = [x // g for x in ints] if g else ints
    extra = next(iter(set(sigma) - set(facet)))
    s = _apply(ints, data.points[extra])
    if s < 0:
        ints = [-x for x in ints]
    return ints


def _reference_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def reference_compute_box(data, t):
    """All twisted sectors of t, by the m^rank scan of each maximal cone."""
    found = {}
    for sigma in t.maximal:
        rays = sorted(sigma)
        m = reference_cone_index(data, sigma)
        if m == 0:
            continue
        for ks in _reference_tuples(len(rays), m):
            coeffs = [Fraction(k, m) for k in ks]
            point = [Fraction(0)] * data.rank
            for c, j in zip(coeffs, rays):
                for a in range(data.rank):
                    point[a] += c * data.points[j][a]
            if any(p.denominator != 1 for p in point):
                continue
            coords = [Fraction(0)] * data.n
            for c, j in zip(coeffs, rays):
                coords[j] = c
            sector = TwistedSector(coords=tuple(coords),
                                   point=tuple(int(p) for p in point))
            found[sector.key()] = sector
    return sorted(found.values(), key=lambda s: s.key())


def _reference_tuples(length, bound):
    if length == 0:
        yield ()
        return
    for rest in _reference_tuples(length - 1, bound):
        for k in range(bound):
            yield (k,) + rest


# rings.SectorAlgebra's build as it was before the linear relations were
# eliminated once: the annihilator forms of sigma times every surviving
# monomial in all the generators, reduced degree by degree, with the
# Stanley-Reisner monomials dropped from each block.  test_rings checks
# the basis, zero degree, generator classes and products against it.


def reference_sector_algebra(data, t, sector):
    """{basis, zero_degree, divisor, mult} of the sector, exactly.

    divisor maps each generator j to the coordinates of D_j; mult maps
    (a, b) to those of the product of basis monomials a and b.  None
    when the nilpotency degree is not reached within 2 rank + 1.
    """
    support = sector.support
    gens = tuple(sorted(star_rays(t, support)))

    def mono_mul(a, b):
        return tuple(sorted(a + b))

    def sr_zero(mono):
        return not t.is_cone(support | frozenset(gens[g] for g in mono))

    sig_rows = [list(data.points[j]) for j in sorted(support)]
    ann = rational.nullspace(sig_rows) if sig_rows else \
        [[Fraction(i == j) for j in range(data.rank)]
         for i in range(data.rank)]
    forms = []
    for mu in ann:
        coeff = [sum(Fraction(a) * b for a, b in zip(mu, data.points[j]))
                 for j in gens]
        forms.append([(g, c) for g, c in enumerate(coeff) if c])
    basis = [()]
    reductions = {(): {0: Fraction(1)}}
    prev = [()]
    for d in range(1, 2 * data.rank + 2):
        products = {mono_mul(p, (g,)) for p in prev for g in range(len(gens))}
        monos = sorted(m for m in products if not sr_zero(m))
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for form in forms:
            for p in prev:
                row = [Fraction(0)] * len(monos)
                for g, c in form:
                    i = index.get(mono_mul(p, (g,)))
                    if i is not None:
                        row[i] = c
                rows.append(row)
        reduced, pivots = rational.rref(rows)
        free = sorted(set(range(len(monos))) - set(pivots))
        if not free:
            zero_degree = d
            break
        pos = {i: len(basis) + k for k, i in enumerate(free)}
        basis.extend(monos[i] for i in free)
        for i in free:
            reductions[monos[i]] = {pos[i]: Fraction(1)}
        for row, c in zip(reduced, pivots):
            reductions[monos[c]] = {pos[i]: -row[i] for i in free if row[i]}
        prev = monos
    else:
        return None

    def reduce(mono):
        if sr_zero(mono) or len(mono) >= zero_degree:
            return [Fraction(0)] * len(basis)
        sparse = reductions[mono]
        return [sparse.get(b, Fraction(0)) for b in range(len(basis))]

    return {
        "basis": tuple(basis),
        "zero_degree": zero_degree,
        "divisor": {j: reduce((g,)) for g, j in enumerate(gens)},
        "mult": {(a, b): reduce(mono_mul(ma, mb))
                 for a, ma in enumerate(basis)
                 for b, mb in enumerate(basis)},
    }


def subparser_reference():
    """The command-line parser as one subparser per command.

    Every subparser carries the same flags (cli._add_common); the
    command-line front end reads them with one flat parser, which must
    give the same Namespace for every command line this one accepts.
    """
    parser = argparse.ArgumentParser(
        prog="gkzflop",
        description="wall-crossing solution series and transform checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in cli.COMMANDS.items():
        cli._add_common(sub.add_parser(name, help=help_text))
    return parser


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
    one = ring.algebra.one()
    exp_neg = {j: algebra_exp(ring.divisor(j) * (-1.0)) for j in iminus}
    nums = {j: one - exp_neg[j] * unit_phase(-lprime[j]) for j in iminus}
    logx = [principal_log(v) for v in x]
    const = ring.algebra.one()
    for j in range(n):
        const = const * ring.branched_power(x[j], d[j]) \
            * scalar_power(x[j], lprime[j])
    logy = sum(hv * lg.real for hv, lg in zip(h, logx))
    ay = sum(hv * lg.imag for hv, lg in zip(h, logx)) \
        + math.pi * sum(h[j] for j in iminus)
    hm_sum = sum(h[j] for j in iminus)

    gamma = np.frompyfunc(lambda z: complex(mpmath.gamma(z)), 1, 1)

    def f(s):
        s = np.asarray(s, dtype=complex)
        pref = -np.asarray(gamma(-s) * gamma(1.0 + s), dtype=complex)
        grow = np.exp(s * complex(logy, ay + math.pi * (1 - hm_sum)))
        acc = const * (pref * grow)
        for j in iminus:
            den = one - exp_neg[j] * np.exp(-TWO_PI_I * (lp[j] + s * h[j]))
            acc = acc * nums[j] * algebra_inverse(den)
        for j in range(n):
            acc = acc * ring.recip_gamma([1 + (lp[j] + s * h[j])], [d[j]])[0]
        return acc
    return f


# wall's line integral as it was before the lines of a node grid were
# evaluated as one stack: one integrand per line, built afresh, and one
# quadrature per line.  test_wall checks the stacks against these, bit
# for bit and error for error.


def reference_line_integrand(x, line, ring, per_class=True):
    """The integrand of one Line, every factor formed for it alone.

    The factors multiply in wall.make_integrand's order, each formed as
    it forms them: the constant, the product of the branched powers
    x_j^{D_j / 2 pi i} times the scalar prod_j x_j^{l'_j}; per
    coordinate j one 1/Gamma call at the anchor of l'_j (its class r =
    l'_j mod 1 when l'_j < 1, else l'_j), laddered down the anchor -
    l'_j steps of 1/Gamma(w - 1) = (w - 1)/Gamma(w) on its Taylor
    coefficients (the ring's picks); the pole factor at r and the power
    x_j^{h_j s}.  per_class=False gives the form before the classes: the
    constant multiplied factor by factor, 1/Gamma from the kernel at 1 +
    l'_j + h_j s, the pole factor at l'_j and the power e^{(l'_j + h_j
    s) log x_j - l'_j log x_j}.  The node guard raises PoleProximity at
    the first node near a point of the line's pole model, removable
    points included.
    """
    x = tuple(complex(v) for v in x)
    n = len(x)
    lprime, h = line.lprime, line.circuit.h
    exact = [Fraction(v) for v in lprime]
    classes = [v % 1 for v in exact]
    anchors = [r if v < 1 else v for v, r in zip(exact, classes)]
    iminus = sorted(line.circuit.I_minus)
    families = [(float(lk), hk, lk.numerator, lk.denominator)
                for lk, hk in line.families]
    d = [ring.divisor(j) * (1.0 / TWO_PI_I) for j in range(n)]
    one = ring.algebra.one()
    exp_neg = {j: algebra_exp(ring.divisor(j) * (-1.0)) for j in iminus}
    nums = {j: one - exp_neg[j] * unit_phase(-lprime[j]) for j in iminus}
    logx = [principal_log(v) for v in x]
    if per_class:
        const = functools.reduce(operator.mul, (
            ring.branched_power(x[j], d[j]) for j in range(n))) \
            * functools.reduce(operator.mul, (
                scalar_power(x[j], lprime[j]) for j in range(n)))
    else:
        const = ring.algebra.one()
        for j in range(n):
            const = const * ring.branched_power(x[j], d[j]) \
                * scalar_power(x[j], lprime[j])
    ay = sum(hv * lg.imag for hv, lg in zip(h, logx)) \
        + math.pi * sum(h[j] for j in iminus)

    def f(s):
        s = np.asarray(s, dtype=complex)
        hit = np.abs(s - np.rint(s.real)) < wall.GUARD
        for lk, hk, a, b in families:
            w = np.rint(lk - hk * s.real)
            hit |= np.abs(s - (a - w * b) / (b * hk)) < wall.GUARD
        if hit.any():
            raise PoleProximity(f"s = {complex(s[hit].flat[0])} too "
                                f"close to a pole")
        with np.errstate(over="ignore", invalid="ignore"):
            acc = const * (TWO_PI_I / (1.0 - np.exp(-TWO_PI_I * s)))
            for j in iminus:
                lpj = complex(classes[j] if per_class else lprime[j])
                den = one - exp_neg[j] * np.exp(-TWO_PI_I * (lpj + s * h[j]))
                acc = acc * nums[j] * algebra_inverse(den)
            for j in range(n):
                if not per_class:
                    lpj = complex(lprime[j])
                    if h[j]:
                        acc = acc * np.exp((lpj + s * h[j]) * logx[j]
                                           - lpj * logx[j])
                    acc = acc * ring.recip_gamma([1 + (lpj + s * h[j])],
                                                 [d[j]])[0]
                    continue
                if h[j]:
                    acc = acc * np.exp(s * h[j] * logx[j])
                z = 1 + (complex(anchors[j]) + s * h[j])
                acc = acc * ring.recip_gamma([z[None]], [d[j]], [
                    (0, int(anchors[j] - exact[j]), 0)])[0]
        return acc

    f.decay = (2.0 * math.pi + ay, -ay)
    f.arg_y = ay
    return f


def reference_line_oracle(f, line, height):
    """One line's quadrature: its value, diagnostics and node values.

    The checks run in their order for one line: the 1/Gamma bound and
    the node cap before any evaluation, then (in f) the node guard, the
    finiteness of the line nodes, then of the two tail probes, the decay
    rates and the tail bound.
    """
    low = min(1 + lk + hk * line.s0
              for lk, hk in zip(line.lprime, line.circuit.h) if hk)
    if low < wall.GAMMA_RE_MIN:
        raise NonFiniteValue(
            f"1/Gamma overflows on the line Re s = {line.s0}: an argument "
            f"has Re z = {float(low):.6g} < {wall.GAMMA_RE_MIN}")
    n = 2 * math.ceil(height * wall.LINE_EXPONENT
                      / (math.pi * line.distance))
    if n > wall.MAX_LINE_NODES:
        raise InfeasibleArgs(f"a line of half-height {height} at distance "
                             f"{line.distance} from its nearest pole needs "
                             f"{n} nodes, more than {wall.MAX_LINE_NODES}")
    step = 2.0 * height / n
    probes = [complex(line.s0, height), complex(line.s0, -height)]
    vals = f(np.concatenate([line.s0 + 1j * (-height + (np.arange(n) + 0.5)
                                              * step), probes]))
    alg = vals.algebra
    nodes = alg.element(vals.coords[:n])
    if not np.isfinite(nodes.coords).all():
        raise NonFiniteValue("integrand is not finite on the line")
    scale = step * (-1.0 / (2.0 * math.pi))
    fine = nodes.sum() * scale
    coarse = alg.element(nodes.coords[::2]).sum() * (2.0 * scale)
    ends = alg.element(vals.coords[n:])
    if not np.isfinite(ends.coords).all():
        raise NonFiniteValue("integrand is not finite on the tail probes")
    rate_up, rate_dn = f.decay
    if min(rate_up, rate_dn) <= 0:
        raise TailBoundViolated("arg y outside (-2 pi, 0): no decay")
    tail_up, tail_dn = (float(v) for v in ends.norm() / (rate_up, rate_dn))
    if tail_up + tail_dn > wall.TAIL_TOL:
        raise TailBoundViolated(
            f"measured tails {tail_up:.2e}+{tail_dn:.2e} "
            f"exceed {wall.TAIL_TOL:.2e}")
    return fine, {"nodes": n, "step": step,
                  "est_error": (fine - coarse).norm(),
                  "tail": tail_up + tail_dn}, vals.coords


def reference_line_battery(x, rings, lines, height):
    """The lines of a battery run one at a time, in battery order.

    lines holds (sector key, Line) pairs.  Each line runs its quadrature,
    then its orbit split (first_right); the first failing line raises.
    Returns (value, diagnostics, node values) per line.
    """
    out = []
    for key, line in lines:
        out.append(reference_line_oracle(
            reference_line_integrand(x, line, rings[key]), line, height))
        reference_first_right(line.lprime, line.circuit, line.s0)
    return out


# wall's pole model as it was before one Line per orbit generator held
# it: every question listed the exact points afresh, per call and per
# eps.  test_wall checks wall.Line against these.


def reference_pole_model(lprime, circuit, lo, hi):
    """Exact real points in [lo, hi] where the line integrand is singular.

    Returns sorted (location, kind) pairs, each location a Fraction: the
    integer points ("integer") and, for k in I_minus, the ratio-factor
    points (l'_k - w) / (-h_k), w an integer.  For w >= 0 these are poles
    ("ratio", also where they meet an integer); for w < 0 a zero of
    1/Gamma(l'_k + s h_k) cancels the pole ("removable": no residue, but
    at eps = 0 the formula cannot be evaluated there).  Every ratio pole
    lies at or below max_k |l'_k|.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    kinds = {Fraction(m): "integer"
             for m in range(math.ceil(lo), math.floor(hi) + 1)}
    for k in sorted(circuit.I_minus):
        hk, lk = -circuit.h[k], Fraction(lprime[k])
        for w in range(math.ceil(lk - hk * hi), math.floor(lk - hk * lo) + 1):
            loc = (lk - w) / hk
            kinds[loc] = "ratio" if w >= 0 else kinds.get(loc, "removable")
    return sorted(kinds.items())


def _reference_ratio_poles_above(lprime, circuit, lo):
    top = max(abs(Fraction(v)) for v in lprime)
    return [p for p, kind in reference_pole_model(lprime, circuit, lo, top)
            if kind == "ratio"]


def reference_place_line(lprime, circuit, s0):
    """Abscissa of the integration line for one generator, and its
    distance to the nearest pole.

    s0 None asks for the smallest half-integer >= 1/2 right of every
    ratio-factor pole.  A line closer than CLEARANCE to a pole (removable
    points do not count) moves by +0.25, else by -0.25, else fails.  An
    integer point always lies within 1/2 of the line, so the poles one
    unit either side hold the nearest.
    """
    if s0 is None:
        poles = _reference_ratio_poles_above(lprime, circuit, 0)
        s0 = math.floor(poles[-1] + Fraction(1, 2)) + 0.5 if poles else 0.5
    s0 = float(s0)
    for cand in (s0, s0 + 0.25, s0 - 0.25):
        near = [loc for loc, kind
                in reference_pole_model(lprime, circuit, cand - 1, cand + 1)
                if kind != "removable"]
        if all(abs(cand - float(loc)) >= wall.CLEARANCE for loc in near):
            return cand, float(min(abs(Fraction(cand) - loc)
                                   for loc in near))
    raise PoleOnContour(f"no clear line near Re s = {s0}")


def reference_first_right(lprime, circuit, s0):
    """First orbit index right of the line Re s = s0.

    The orbit splits there into restored terms and the line integral,
    which holds only with every ratio-factor pole left of the line.
    """
    poles = _reference_ratio_poles_above(lprime, circuit, s0)
    if poles:
        raise PoleRightOfLine(f"the line Re s = {s0} has ratio-factor poles "
                              f"on its right, the largest at s = {poles[-1]}")
    return math.floor(s0) + 1


def reference_circles(lprime, circuit, s0):
    """The circles of wall.left_residue_sum, right to left: (centre,
    radius, anchor, shift) each, the anchor the centre of the first
    circle of its class (centre mod 1, radius) and the shift the integer
    distance to it."""
    points = reference_pole_model(lprime, circuit, s0 - wall.MAX_DEPTH - 1,
                                  s0 + 1)
    # Fraction bounds compare as the floats did, without converting them
    # once per point
    lo, hi = Fraction(s0 - wall.MAX_DEPTH), Fraction(s0)
    centers, radii = [], []
    for i in reversed(range(1, len(points) - 1)):
        re, kind = points[i]
        if kind == "removable" or not lo <= re < hi:
            continue
        gap = min(points[i + 1][0] - re, re - points[i - 1][0])
        centers.append(re)
        radii.append(min(0.2, 0.4 * float(gap)))
    first = {}
    out = []
    for re, radius in zip(centers, radii):
        top = first.setdefault((re % 1, radius), re)
        out.append((float(re), radius, float(top), int(top - re)))
    return out


def reference_left_residue_sum(f, circles, nodes=64):
    """wall.left_residue_sum with one integrand call per circle.

    The circles, (centre, radius, anchor, shift) right to left as
    reference_circles lists them, each evaluated on its own, with the
    ladder from its anchor circle: its nodes checked finite, its residue
    (values * z).sum() / nodes, then the add-and-stop rule.  f is an
    integrand that returns one block.  Returns the sum and the number of
    circles summed.
    """
    acc, small, summed = None, 0, 0
    for center, radius, anchor, shift in circles:
        z = np.exp(TWO_PI_I * np.arange(nodes) / nodes) * radius
        ladder = ((complex(anchor) + z)[None], np.zeros(1, dtype=int),
                  np.array([shift]))
        vals = f((complex(center) + z)[None], ladder=ladder)
        vals = vals.algebra.element(vals.coords[0])
        if not np.isfinite(vals.coords).all():
            raise NonFiniteValue("integrand is not finite on the circle")
        val = (vals * z).sum() * (1.0 / nodes)
        acc = val if acc is None else acc + val
        summed += 1
        small = small + 1 if val.norm() < wall.STOP * max(acc.norm(), 1.0) \
            else 0
        if small == 3:
            break
    return acc, summed


def own_circles(centers, radii):
    """wall.Circles of the given centres and radii, each its own class."""
    centers = np.array(centers, dtype=float)
    return wall.Circles(centers, np.array(radii, dtype=float), centers,
                        np.zeros(len(centers), dtype=int))


def residue(f, line, center, radius=0.25):
    """The residue of f, an integrand on [line], by the one circle
    (center, radius)."""
    batch = wall.residue_at(f, line, own_circles([center], [radius]))
    return batch.algebra.element(batch.coords[0])


def terms_of(data, t, c, gamma, policy, circuit=None):
    """series.enumerate_terms on the battery of c alone: c's terms."""
    [terms] = enumerate_terms(data, t, [c], gamma, policy, circuit)
    return terms


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


# series' term enumeration and evaluation as they were before the
# exponents became integer numerators over one denominator: every term a
# tuple of Fractions, classified, sorted and evaluated as such.  Only the
# reciprocal-Gamma call is adapted: DeformationRing.recip_gamma now takes
# lists of centres 1 + z and shifts, each centre formed here exactly from
# the Fractions as before.
# test_series checks the integer tables against these.


@dataclass(frozen=True)
class ReferenceTerm:
    l: tuple                 # Fractions
    support: frozenset
    owning_cones: tuple
    essential: bool = False
    generator: bool = False


def _reference_term_support(l):
    return frozenset(i for i, v in enumerate(l)
                     if not (v.denominator == 1 and v >= 0))


def _reference_negative_integer(v):
    return v.denominator == 1 and v < 0


def reference_integer_walk(l0, basis, bound):
    """series._solutions as it emitted Fractions."""
    den = math.lcm(*(Fraction(v).denominator for v in l0))
    start = [int(Fraction(v) * den) for v in l0]
    top = bound * den
    rows = [(next(i for i, v in enumerate(row) if v),
             [r * den for r in row]) for row in basis]
    out = []

    def descend(cur, idx):
        if idx == len(rows):
            if sum(map(abs, cur)) <= top:
                out.append(tuple(Fraction(v, den) for v in cur))
            return
        p, row = rows[idx]
        k = row[p]
        budget = top - sum(map(abs, cur[:p]))
        lo, hi = -budget - cur[p], budget - cur[p]
        if k < 0:
            lo, hi = hi, lo
        for m in range(-(-lo // k), hi // k + 1):
            descend([c + m * r for c, r in zip(cur, row)], idx + 1)

    descend(start, 0)
    return out


def reference_enumerate_terms(data, t, c, gamma, policy, circuit=None):
    """series.enumerate_terms on Fraction tuples."""
    lift = canonical_lift(data, gamma, c)
    basis = data.lattice.kernel_basis
    maximal = sorted(t.maximal, key=sorted)
    ess = set(map(frozenset, essential_cones(data, t, circuit))) \
        if circuit is not None else set()
    h = tuple(circuit.h) if circuit is not None else None

    def essential_of(l):
        sup = _reference_term_support(l)
        return any(sup <= e for e in ess)

    out = []
    for l in reference_integer_walk(lift.values, basis, policy.degree_bound):
        sup = _reference_term_support(l)
        owning = tuple(s for s in maximal if sup <= s)
        if not owning:
            continue
        is_ess = bool(ess) and any(frozenset(s) in ess for s in owning)
        gen = False
        if is_ess:
            back = tuple(v - hv for v, hv in zip(l, h))
            gen = not essential_of(back)
        out.append(ReferenceTerm(l=l, support=sup, owning_cones=owning,
                                 essential=is_ess, generator=gen))
    den = math.lcm(*(Fraction(v).denominator for v in lift.values))

    def key(term):
        scaled = tuple(v.numerator * (den // v.denominator) for v in term.l)
        return sum(map(abs, scaled)), scaled
    out.sort(key=key)
    return out


def _reference_power(x, v):
    """x**v for a Fraction v as (m, e), m 2**e with |m| in [1/2, 1).

    scalar_power's value, scaled exactly, where that is a normal float;
    else read off t = v log x: e from Re t, m = exp(t - e log 2).
    """
    try:
        p = scalar_power(x, v)
    except OverflowError:
        p = 0j
    if sys.float_info.min <= abs(p) < math.inf:
        e = math.frexp(abs(p))[1]
        return p * 2.0 ** -e, e
    t = float(v) * principal_log(x)
    e = math.floor(t.real / math.log(2.0)) + 1
    return cmath.exp(t - e * math.log(2.0)), e


def _reference_recip_gamma_rows(values, d, ring, dual):
    """1/Gamma(1 + v + d) per Fraction v of values, one ring call each.

    The kernel runs at 1 + the anchor of v (its class v mod 1 when v < 1,
    else v), laddered anchor - v steps down by the ring's picks, scaled
    past the float range.  dual leaves out the leading factor d of a
    negative integer v: the ladder runs from w - 1 on the series at w,
    one step less.  Returns the rows and their exponents, each with d's
    sample axis (if any) leading, rows then along the next axis.
    """
    rows, exps = [], []
    for v in values:
        anchor = v % 1 if v < 1 else v
        lowered = int(dual and _reference_negative_integer(v))
        (row, e), = ring.recip_gamma(
            [np.array([float(1 + anchor)])], [d],
            [(np.array([0]), np.array([int(anchor - v) - lowered]),
              np.array([lowered]))], scaled=True)
        rows.append(row.coords[..., 0, :])
        exps.append(e[..., 0])
    return np.stack(rows, axis=-2), np.stack(exps, axis=-1)


def reference_term_values(x, ls, ring, dual=False):
    """series.term_values on a list of Fraction tuples.

    Per coordinate, each factor x_j^{l_j} (_reference_power) and each
    1/Gamma row (_reference_recip_gamma_rows) is scaled by a power of
    two to a largest modulus in [1/2, 1), and a term's exponents are
    applied once, at the end.
    """
    ls = list(ls)
    lead = np.shape(ring.eps)
    acc = ring.algebra.scalar(np.ones(len(ls)))
    if not ls:
        return ring.algebra.scalar(np.ones(lead + (0,)))
    scale = np.zeros(lead + (len(ls),), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, xj in enumerate(x):
            d = ring.divisor(j) * (1.0 / TWO_PI_I)
            column = [l[j] for l in ls]
            values = sorted(set(column))
            index = {v: i for i, v in enumerate(values)}
            take = np.array([index[v] for v in column], dtype=int)
            powers, e = map(np.array, zip(*(_reference_power(xj, v)
                                            for v in values)))
            rows, exps = _reference_recip_gamma_rows(values, d, ring, dual)
            k = np.frexp(np.abs(rows).max(axis=-1))[1]
            rows = np.ldexp(rows.view(float), -k[..., None]).view(complex)
            power = ring.branched_power(xj, d)
            acc = acc * ring.algebra.element(
                power.coords.reshape(lead + (1, -1))) * powers[take]
            acc = acc * d.algebra.element(rows[..., take, :])
            scale = scale + e[take] + (exps + k)[..., take]
            if dual:
                stripped = np.array([_reference_negative_integer(v)
                                     for v in column])
                acc.coords[..., stripped, :] *= 1.0 / TWO_PI_I
        coords = np.ascontiguousarray(acc.coords)
        return ring.algebra.element(np.ldexp(
            coords.view(float), scale[..., None]).view(complex))


def reference_term_values_product(x, ls, ring, dual=False):
    """series.term_values as it formed a negative integer l_j = -m
    before the ladder: the functional-equation product prod_{i<m}
    (d - i), from i = 1 for dual, times the kernel's 1/Gamma(1 + d), on
    AlgebraElements, every other 1/Gamma from the kernel at 1 + l_j;
    unscaled, so only for terms in the float range, and one eps."""
    acc = ring.algebra.scalar(np.ones(len(ls)))
    for j, xj in enumerate(x):
        d = ring.divisor(j) * (1.0 / TWO_PI_I)
        rows = []
        for l in ls:
            v = l[j]
            if _reference_negative_integer(v):
                factor = d.algebra.one()
                for i in range(int(dual), -int(v)):
                    factor = factor * (d - i)
                value = factor * ring.recip_gamma([1.0], [d])[0]
                if dual:
                    value = value * (1.0 / TWO_PI_I)
            else:
                value = ring.recip_gamma([float(1 + v)], [d])[0]
            rows.append(value.coords)
        acc = acc * ring.branched_power(xj, d) \
            * np.array([scalar_power(xj, l[j]) for l in ls])
        acc = acc * d.algebra.element(np.array(rows))
    return acc


# series.enumerate_terms as it walked one c at a time, before the
# battery became one array pass: the integer walk of one lift, then each
# tuple classified on its own.  test_series checks the battery form
# against it.


def _reference_solutions_of_c(l0, basis, bound):
    """series._solutions as it walked one lift recursively."""
    den = math.lcm(*(v.denominator for v in l0))
    start = [v.numerator * (den // v.denominator) for v in l0]
    top = bound * den
    rows = [(next(i for i, v in enumerate(row) if v),
             [r * den for r in row]) for row in basis]
    out = []

    def descend(cur, idx):
        if idx == len(rows):
            if sum(map(abs, cur)) <= top:
                out.append(tuple(cur))
            return
        p, row = rows[idx]
        k = row[p]
        budget = top - sum(map(abs, cur[:p]))
        lo, hi = -budget - cur[p], budget - cur[p]
        if k < 0:
            lo, hi = hi, lo
        for m in range(-(-lo // k), hi // k + 1):
            descend([c + m * r for c, r in zip(cur, row)], idx + 1)

    descend(start, 0)
    return den, out


def reference_terms_of_c(data, t, c, gamma, policy, circuit=None):
    """The sorted LatticeTerms of one c, as enumerate_terms found them."""
    lift = canonical_lift(data, gamma, c)
    den, nums = _reference_solutions_of_c(
        lift.values, data.lattice.kernel_basis, policy.degree_bound)
    ess = set(map(frozenset, essential_cones(data, t, circuit))) \
        if circuit is not None else set()
    maximal = [(s, frozenset(s) in ess) for s in t.maximal]
    step = tuple(den * v for v in circuit.h) if circuit is not None else None
    nums.sort(key=lambda num: (sum(map(abs, num)), num))
    out = []
    for num in nums:
        sup = frozenset(i for i, v in enumerate(num) if v < 0 or v % den)
        owning = [e for s, e in maximal if sup <= s]
        if not owning:
            continue
        is_ess = any(owning)
        gen = False
        if is_ess:
            back = frozenset(i for i, v in enumerate(num)
                             if v - step[i] < 0 or (v - step[i]) % den)
            gen = not any(back <= e for e in ess)
        out.append(LatticeTerm(num=num, den=den, support=sup,
                               essential=is_ess, generator=gen))
    return out
