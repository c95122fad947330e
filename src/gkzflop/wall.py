"""Continuation across the wall between two adjacent triangulations.

Three independent computations of the same linear map are assembled here
and played against each other:

  * the residue route: coefficients C read off the pole families of the
    auxiliary integrand, with the adjacent-sector data transported along
    stored lifts;
  * the kernel route: the same coefficients parametrized by the residue
    locations themselves, evaluated through the localization points;
  * the contour oracle: direct numeric quadrature of the integrand on a
    vertical line, which is the ground truth for both.

Everything runs over a DeformationRing so that coinciding divisor
classes stay separated; matrices are sampled at generic eps or built as
eps-Laurent data whose principal parts must cancel before the value at
eps^0 is read off.

Each orbit generator has one Line: its integration line, the split of
its orbit and its residue circles, built once per command and passed to
the integrand, the quadrature, the residue sums and the orbit sums.  The
integrand and the quadrature take one form, a stack: a list of Lines on
one node grid, with one block per line; a line alone is a stack of one.

The end-to-end check of verify_fm_equals_ac runs over a battery of
lattice points c at eps = 0 and evaluates it as a whole: one set of
rings per side, one line integral per orbit generator, the lines of a
sector on one node grid evaluated as one stack, and one series batch
(series.term_values) per sector and side for every c at once
(continued_vector, gamma_vector).  Each c sums only its own rows, in
term order, so its values do not depend on the rest of the battery.
"""

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import GkzflopError, InfeasibleArgs, \
    LocalizationRankDeficient, NonFiniteValue, PoleOnContour, PoleProximity, \
    PoleRightOfLine, TailBoundViolated
from .toric import canonical_lift, adjacent_sector, essential_cones, \
    essential_sectors, sector_label
from .deform import DeformationRing, TWO_PI_I, unit_phase, principal_log
from .rings import algebra_exp
from .series import enumerate_terms, exponent_table, sector_batches, \
    term_values, sum_rows, scalar_power, nan_max


# A line pass is one trapezoid rule at half-step offsets; its even nodes
# form the coarse level.  The coarse step h2 solves e^(-2 pi a / h2) =
# e^(-LINE_EXPONENT), about 2e-16, for the distance a from the line to its
# nearest pole, and the fine step is h2 / 2.  A line that would need more
# than MAX_LINE_NODES nodes (a half-height in the hundreds) is refused.
# Tails stay under TAIL_TOL.  A line keeps CLEARANCE from the poles, a node
# GUARD from every model point.  Left residues reach MAX_DEPTH below the
# line and stop after three in a row under STOP of their sum; their
# circles, of _CIRCLE_NODES nodes each, are evaluated in rounds of
# _ROUND, 2 _ROUND, 4 _ROUND, ... circles, one integrand call each.
# Orbit terms are restored from -M_BACK; the right pole sum ends at M_MAX.
LINE_EXPONENT, MAX_LINE_NODES, TAIL_TOL = 36, 2 ** 16, 1e-9
CLEARANCE, GUARD = 0.15, 1e-7
MAX_DEPTH, STOP = 40, 1e-13
_ROUND, _CIRCLE_NODES = 4, 64
M_BACK, M_MAX = 25, 30
RCOND_MIN = 1e-8     # smallest sigma_min / sigma_max of a sampled transform
# A line whose 1/Gamma argument z = 1 + l'_j + h_j s, h_j != 0, lies left of
# Re z = GAMMA_RE_MIN cannot be finite.  With K = ceil(1/2 - Re z), 1/Gamma(z)
# = z (z+1) ... (z+K-1) / Gamma(z+K) and |Gamma(z+K)| <= sqrt(pi); the
# factors but the last have |Re| >= 1/2, 3/2, ..., so |1/Gamma(z)| >=
# Gamma(K - 1/2) |Im z| / pi, above the float range there (K >= 181) at
# every node more than 4e-20 off the real axis.  The kernel would multiply
# the K factors back one pass at a time.
GAMMA_RE_MIN = -180


# -- path and endpoints -------------------------------------------------


@dataclass(frozen=True)
class PathSpec:
    """Endpoints on the two sides of the wall, sharing their arguments."""

    x_plus: tuple
    x_minus: tuple
    y_abs_plus: float
    y_abs_minus: float


def y_value(circuit, x):
    """Auxiliary coordinate (|y|, continuous arg y) at the point x."""
    la = sum(h * math.log(abs(v)) for h, v in zip(circuit.h, x))
    ay = sum(h * cmath.phase(complex(v)) for h, v in zip(circuit.h, x))
    ay += math.pi * sum(circuit.h[j] for j in sorted(circuit.I_minus))
    return math.exp(la), ay


def select_endpoints(circuit, amplitude, y_abs):
    """Deterministic endpoints with |y| = y_abs on the near side.

    Moduli follow the circuit direction, arguments are a common small
    tilt that parks arg y at -pi, the midpoint of its allowed window
    (and the fastest two-sided decay for the line integral).  An
    amplitude of None puts the far endpoint at |y| = 1 / y_abs.  A y_abs
    whose square underflows, or an amplitude whose far |y| is no finite
    float, is refused.
    """
    if not 0.0 < y_abs < 1.0:
        raise InfeasibleArgs("target |y| must lie strictly inside (0, 1)")
    h = circuit.h
    h2 = sum(v * v for v in h)
    if amplitude is None:
        if y_abs ** 2 < 1.0 / sys.float_info.max:     # 1 / y_abs^2 overflows
            raise InfeasibleArgs(f"target |y| = {y_abs:g} underflows when "
                                 f"squared")
        amplitude = math.log(1.0 / y_abs ** 2) / h2
    if amplitude <= 0.0:
        raise InfeasibleArgs("amplitude must be positive")
    try:
        y_minus = y_abs * math.exp(amplitude * h2)
    except OverflowError:
        y_minus = math.inf
    if not math.isfinite(y_minus):
        raise InfeasibleArgs(f"amplitude {amplitude:g} puts the far |y| "
                             f"beyond the float range")
    hm = sum(-h[j] for j in circuit.I_minus)
    delta = math.pi * (hm - 1) / h2
    args = [delta * v for v in h]
    if any(abs(a) >= math.pi for a in args):
        raise InfeasibleArgs("argument tilt leaves the principal range")
    base = math.log(y_abs) / h2
    x_plus = tuple(cmath.exp(base * v + 1j * a) for v, a in zip(h, args))
    x_minus = tuple(v * math.exp(amplitude * hj)
                    for v, hj in zip(x_plus, h))
    if y_minus <= 1.0:
        raise InfeasibleArgs("amplitude too small to cross |y| = 1")
    _, ay = y_value(circuit, x_plus)
    # internal: every |arg x_j| < pi was checked, so arg y = -pi
    assert abs(ay + math.pi) < 1e-9
    return PathSpec(x_plus=x_plus, x_minus=x_minus, y_abs_plus=y_abs,
                    y_abs_minus=y_minus)


# -- the line of one orbit generator ------------------------------------


class Line:
    """The integration line of one orbit generator l', and its pole model.

    It depends on l' and the circuit alone, not on eps or the endpoint:
    a command builds one Line per generator and passes it down.
    families are the pairs (l'_k, -h_k), k in I_minus, whose points
    (l'_k - w) / (-h_k), w an integer, are poles for w >= 0; top is the
    largest (w = 0).  Every point of the model is an integer over unit,
    the lcm of the families' denominators, and the model is listed in
    those numerators (points).  s0 None asks for the smallest
    half-integer >= 1/2 right of top.  A line closer than CLEARANCE to a
    pole (removable points do not count) moves by +0.25, else by -0.25,
    else raises PoleOnContour; distance is the placed line's distance to
    its nearest pole.  An integer point always lies within 1/2 of the
    line, so the poles 1.25 either side of the requested line hold the
    nearest of every candidate.  first_right and circles are read on
    first use.  The orbit l' + m h is read as integer numerators over
    den, the common denominator of l', the form series.term_values takes.
    """

    def __init__(self, lprime, circuit, s0=None):
        self.lprime = tuple(lprime)
        self.circuit = circuit
        (self.num,), self.den = exponent_table([self.lprime])
        self.families = tuple((Fraction(lprime[k]), -circuit.h[k])
                              for k in sorted(circuit.I_minus))
        self.unit = math.lcm(*(lk.denominator * hk
                               for lk, hk in self.families))
        self.top = max(lk / hk for lk, hk in self.families)
        if s0 is None:
            s0 = math.floor(max(self.top, 0) + Fraction(1, 2)) + 0.5
        s0 = float(s0)
        u = self.unit
        near = [p for p, kind in self.points(s0 - 1.25, s0 + 1.25)
                if kind != "removable"]
        for cand in (s0, s0 + 0.25, s0 - 0.25):
            if all(abs(cand - p / u) >= CLEARANCE for p in near):
                # |cand - p/u| over the one denominator of cand * u
                num, den = cand.as_integer_ratio()
                self.s0 = cand
                self.distance = min(abs(num * u - p * den)
                                    for p in near) / (den * u)
                return
        raise PoleOnContour(f"no clear line near Re s = {s0}")

    def points(self, lo, hi):
        """Exact real points in [lo, hi] where the line integrand is singular.

        Sorted (numerator over unit, kind) pairs: the integers
        ("integer") and the points of every family, "ratio" for w >= 0
        (also where they meet an integer) and "removable" for w < 0,
        where a zero of 1/Gamma(l'_k + s h_k) cancels the pole (no
        residue, but at eps = 0 the formula cannot be evaluated there).
        """
        lo, hi = Fraction(lo), Fraction(hi)
        u = self.unit
        kinds = {m * u: "integer"
                 for m in range(math.ceil(lo), math.floor(hi) + 1)}
        for lk, hk in self.families:
            a, b = lk.numerator, lk.denominator
            step = u // (b * hk)
            for w in range(math.ceil(lk - hk * hi),
                           math.floor(lk - hk * lo) + 1):
                loc = (a - w * b) * step
                kinds[loc] = "ratio" if w >= 0 else kinds.get(loc, "removable")
        return sorted(kinds.items())

    def pole_model(self, lo, hi):
        """points(lo, hi) with each location read as a Fraction."""
        return [(Fraction(p, self.unit), kind)
                for p, kind in self.points(lo, hi)]

    @property
    def first_right(self):
        """First orbit index right of the line, where the orbit splits;
        PoleRightOfLine unless every ratio pole lies left of the line."""
        if self.top >= self.s0:
            raise PoleRightOfLine(
                f"the line Re s = {self.s0} has ratio-factor poles on its "
                f"right, the largest at s = {self.top}")
        return math.floor(self.s0) + 1

    @functools.cached_property
    def circles(self):
        """Centres and radii of the residue circles left of the line.

        One circle encloses each pole location less than MAX_DEPTH left
        of the line, right to left, so poles sharing it (merged
        families, integer points hit by a family) never force a tiny
        radius; the radius, at most 0.2, keeps it off the neighbouring
        locations.
        """
        points = self.points(self.s0 - MAX_DEPTH - 1, self.s0 + 1)
        u = self.unit
        # lo <= p / u < hi, compared exactly in integers
        lo, lo_den = (self.s0 - MAX_DEPTH).as_integer_ratio()
        hi, hi_den = self.s0.as_integer_ratio()
        centers, radii = [], []
        for i in reversed(range(1, len(points) - 1)):
            re, kind = points[i]
            if kind == "removable" or not lo * u <= re * lo_den \
                    or not re * hi_den < hi * u:
                continue
            gap = min(points[i + 1][0] - re, re - points[i - 1][0])
            centers.append(re / u)
            radii.append(min(0.2, 0.4 * (gap / u)))
        return np.array(centers), np.array(radii)

    def orbit(self, m_from, m_to):
        """The exponent tuples l' + m h, m_from <= m <= m_to, as integer
        numerators over den."""
        step = [self.den * hv for hv in self.circuit.h]
        return [tuple(v + m * hv for v, hv in zip(self.num, step))
                for m in range(m_from, m_to + 1)]


# -- the integrand ------------------------------------------------------


class LineFactors:
    """The per-coordinate factors of the line integrands on one sector ring.

    Coordinate j's factors depend on a line only through l'_j, and the
    lines of a node grid share their nodes, so each factor is evaluated
    once per (exact node array, j, l'_j as a Fraction, h_j), and the
    power once more per x_j: 1/Gamma(1 + l'_j + h_j s + D_j / 2 pi i),
    the pole-denominator inverse of j in I_minus, 1 / (1 - e^{-D_j}
    e^{-2 pi i (l'_j + h_j s)}), and e^{(l'_j + h_j s) log x_j - l'_j
    log x_j}.  What depends only on the ring (d_j = D_j / 2 pi i and
    e^{-D_j}) or on x and the ring (the branched powers x_j^{d_j} and
    log x_j) is kept too.  The Gamma factors a stack of lines lacks go
    to the kernel in one call.  Every factor is formed exactly as for
    one line alone, so a shared value equals a fresh one bit for bit.
    A table lives as long as the call that builds it.
    """

    def __init__(self, ring):
        if ring.laurent:
            raise InfeasibleArgs("the line integrand needs a sampled eps")
        self.ring = ring
        self.d = [ring.divisor(j) * (1.0 / TWO_PI_I)
                  for j in range(ring.algebra.data.n)]
        self._exp_neg, self._at = {}, {}
        self._gamma, self._pole, self._power = {}, {}, {}

    def exp_neg(self, j):
        """e^{-D_j}, formed for the j in I_minus alone: at a large
        negative eps it may overflow for other j."""
        if j not in self._exp_neg:
            self._exp_neg[j] = self.ring.exp(self.ring.divisor(j) * (-1.0))
        return self._exp_neg[j]

    def at(self, x):
        """The key of the point x (its bytes: -0.0 is not 0.0 there), the
        branched powers x_j^{d_j} and log x_j."""
        key = np.array(x, dtype=complex).tobytes()
        if key not in self._at:
            self._at[key] = (key, [self.ring.branched_power(v, dj)
                                   for v, dj in zip(x, self.d)],
                             [principal_log(v) for v in x])
        return self._at[key]

    def pole(self, nodes, s, j, lj, hj):
        """1 / (1 - e^{-D_j} e^{-2 pi i (l'_j + h_j s)}) at the nodes s."""
        key = (nodes, j, Fraction(lj), hj)
        if key not in self._pole:
            den = self.ring.one() - self.exp_neg(j) * np.exp(
                -TWO_PI_I * (complex(lj) + s * hj))
            self._pole[key] = self.ring.inv(den)
        return self._pole[key]

    def power(self, point, nodes, s, logxj, j, lj, hj):
        """e^{(l'_j + h_j s) log x_j - l'_j log x_j} at the nodes s; point
        is the key of x from at()."""
        key = (point, nodes, j, Fraction(lj), hj)
        if key not in self._power:
            lpj = complex(lj)
            self._power[key] = np.exp((lpj + s * hj) * logxj - lpj * logxj)
        return self._power[key]

    def gammas(self, nodes, s, lprimes, h):
        """1/Gamma(1 + l'_j + h_j s + d_j), a list over j per l' of lprimes.

        The keys the table lacks, over every l', go to the kernel in one
        call.
        """
        keys = [[(nodes, j, Fraction(lj), hj)
                 for j, (lj, hj) in enumerate(zip(lprime, h))]
                for lprime in lprimes]
        missing = list(dict.fromkeys(k for row in keys for k in row
                                     if k not in self._gamma))
        if missing:
            vals = self.ring.recip_gamma(
                [1 + (complex(lj) + s * hj) for _, _, lj, hj in missing],
                [self.d[j] for _, j, _, _ in missing])
            self._gamma.update(zip(missing, vals))
        return [[self._gamma[k] for k in row] for row in keys]


def _rows(arrays):
    """The arrays stacked along a new leading axis; one is a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def make_integrand(x, lines, ring, factors):
    """Closure evaluating I(s) on a stack of lines at x, hoisted.

    lines is a list of Lines of one circuit; one line is a stack of one.
    The closure takes one node s or an array of nodes, shared by the
    lines, and returns a batch of shape (L,) + s.shape + (dim,), one
    block per line.  Each block is the line's I(s) alone to the last
    bit: the factors of a line multiply in one fixed order,
    SectorAlgebra.multiply treats rows apart, and the kernel works
    elementwise.  The ring must be in numeric mode (a concrete eps):
    series-mode values are not batched.  factors is the LineFactors
    table of ring that the caller's lines share.  A node closer than
    GUARD to any point of a line's pole model, removable points
    included, raises PoleProximity for the first such line.  The guard
    runs in floats: per node it measures the nearest integer and, for
    each of the line's families, the nearest (l'_k - w) / (-h_k) over
    every integer w, rounded as the model's Fraction rounds.  .decay
    and .arg_y depend on x and the circuit alone.
    """
    circuit = lines[0].circuit
    # internal: a shared table belongs to the ring it is passed with
    assert factors.ring is ring, "line factors of another ring"
    # internal: a stack holds the lines of one circuit
    assert all(line.circuit is circuit for line in lines)
    alg = ring.algebra
    x = tuple(complex(v) for v in x)
    n = len(x)
    h = circuit.h
    iminus = sorted(circuit.I_minus)
    lprimes = [line.lprime for line in lines]
    # per family k, a column with one row per line of l'_k = a / b as a
    # float, a, b and b (-h_k): the point of w is (a - w b) / (b (-h_k)),
    # one rounding
    families = []
    for i, (_, hk) in enumerate(lines[0].families):
        lks = [line.families[i][0] for line in lines]
        cols = np.array([[float(lk), lk.numerator, lk.denominator,
                          lk.denominator * hk] for lk in lks]).T
        families.append((hk, *cols[:, :, None]))
    one = ring.one()
    nums = {j: np.array([(one - factors.exp_neg(j)
                          * unit_phase(-lprime[j])).coords
                         for lprime in lprimes]) for j in iminus}
    point, bp, logx = factors.at(x)
    consts = []
    for lprime in lprimes:
        const = ring.one()
        for j in range(n):
            const = const * bp[j] * scalar_power(x[j], lprime[j])
        consts.append(const.coords)
    consts = np.array(consts)
    ay = sum(hv * lg.imag for hv, lg in zip(h, logx)) \
        + math.pi * sum(h[j] for j in iminus)

    def f(s):
        s = np.asarray(s, dtype=complex)
        # one entry per line, broadcast over the nodes
        lead = (len(lines),) + (1,) * s.ndim
        # the model's points lie on the real line, so the nearest of a
        # family to s is the nearest to Re s; one row of nodes per line
        flat = s.reshape(-1)
        hit = np.abs(flat - np.rint(flat.real)) < GUARD
        for hk, lk, a, b, bh in families:
            w = np.rint(lk - hk * flat.real)
            hit = hit | (np.abs(flat - (a - w * b) / bh) < GUARD)
        if hit.any():
            first = next(row for row in np.broadcast_to(
                hit, (len(lines), flat.size)) if row.any())
            raise PoleProximity(f"s = {complex(flat[first][0])} too "
                                f"close to a pole")
        nodes = (s.shape, s.tobytes())
        # a value that overflows stays inf or NaN without a numpy warning:
        # the quadratures gate the values for finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            acc = alg.element(consts.reshape(lead + (alg.dim,))) \
                * (TWO_PI_I / (1.0 - np.exp(-TWO_PI_I * s)))
            for j in iminus:
                acc = acc * alg.element(nums[j].reshape(lead + (alg.dim,))) \
                    * alg.element(_rows([
                        factors.pole(nodes, s, j, lp[j], h[j]).coords
                        for lp in lprimes]))
            gammas = factors.gammas(nodes, s, lprimes, h)
            for j in range(n):
                if h[j]:
                    acc = acc * _rows([
                        factors.power(point, nodes, s, logx[j], j, lp[j],
                                      h[j]) for lp in lprimes])
                acc = acc * alg.element(_rows([row[j].coords
                                               for row in gammas]))
        return acc

    f.decay = (2.0 * math.pi + ay, -ay)   # rates for t -> +inf / -inf
    f.arg_y = ay
    return f


def _require_finite(values, what):
    if not np.isfinite(values.coords).all():
        raise NonFiniteValue(f"integrand is not finite on the {what}")


# -- quadrature ---------------------------------------------------------


@dataclass(frozen=True)
class ContourSpec:
    s0: float = None         # None: automatic placement
    height: float = 14.0


def _line_nodes(height, a):
    """Fine-level nodes of a line of half-height height at distance a.

    The even count 2 ceil(height LINE_EXPONENT / (pi a)), or inf where
    that quotient is no finite float; a count above MAX_LINE_NODES is
    past the cap, where mb_contour_oracle refuses the line.
    """
    half = height * LINE_EXPONENT / (math.pi * a)
    return 2 * math.ceil(half) if math.isfinite(half) else math.inf


def _stack_size(height, a):
    """Lines per stack on a node grid of half-height height at distance a.

    A stack holds at most MAX_LINE_NODES nodes and tail probes in all,
    or one line: the largest single line a stack may hold, so no stack
    has larger temporaries.  A line past the node cap is alone in its
    stack, where the quadrature refuses it.
    """
    n = _line_nodes(height, a)
    return 1 if n > MAX_LINE_NODES else max(1, MAX_LINE_NODES // (n + 2))


def mb_contour_oracle(f, lines, height):
    """Numeric value of each line integral, downward orientation.

    f is the integrand built on lines, a list of Lines on one node grid
    (the same s0 and distance); one line is a stack of one.  With this
    orientation a line's result equals the right-hand pole sum when
    |y| < 1 and minus the left-hand pole sum when |y| > 1.  The nodes
    of the grid and both tail probes go to one integrand call, and each
    line sums its own block of it.  The fine level has an even number n
    of nodes t_k = -H + (k + 1/2) h, so no node lies at t = 0 (a
    removable point may sit on the line there); the coarse level is its
    even nodes at step 2h.  On a strip of half-width a both levels
    converge geometrically (Trefethen & Weideman, SIAM Review 56, 2014).
    Returns a list with, per line, the value and a diagnostics dict: the
    line nodes and the fine step, the error estimate |fine - coarse| of
    the two levels, and the measured tail bounds.  The checks run in the
    order one line runs them, each over the lines in stack order: a
    1/Gamma argument left of Re z = GAMMA_RE_MIN raises NonFiniteValue,
    and a grid past MAX_LINE_NODES InfeasibleArgs, before anything is
    evaluated; then the node guard, finiteness of the line nodes, then
    of the probes, the decay rates and the tail bounds.
    """
    s0, distance = lines[0].s0, lines[0].distance
    # internal: the lines of a stack share one node grid
    assert all(line.s0 == s0 and line.distance == distance
               for line in lines), "lines on different node grids"
    for line in lines:
        low = min(1 + lk + hk * s0
                  for lk, hk in zip(line.lprime, line.circuit.h) if hk)
        if low < GAMMA_RE_MIN:
            raise NonFiniteValue(
                f"1/Gamma overflows on the line Re s = {s0}: an argument "
                f"has Re z = {float(low):.6g} < {GAMMA_RE_MIN}")
    n = _line_nodes(height, distance)
    if n > MAX_LINE_NODES:
        raise InfeasibleArgs(f"a line of half-height {height} at distance "
                             f"{distance} from its nearest pole needs {n} "
                             f"nodes, more than {MAX_LINE_NODES}")
    step = 2.0 * height / n
    vals = f(np.concatenate([s0 + 1j * (-height + (np.arange(n) + 0.5)
                                         * step),
                             [complex(s0, height), complex(s0, -height)]]))
    alg = vals.algebra
    for block in vals.coords:
        _require_finite(alg.element(block[:n]), "line")
    ends = [alg.element(block[n:]) for block in vals.coords]
    for end in ends:
        _require_finite(end, "tail probes")
    rate_up, rate_dn = f.decay
    if min(rate_up, rate_dn) <= 0:
        raise TailBoundViolated("arg y outside (-2 pi, 0): no decay")
    tails = [tuple(float(v) for v in end.norm() / (rate_up, rate_dn))
             for end in ends]
    for tail_up, tail_dn in tails:
        if tail_up + tail_dn > TAIL_TOL:
            raise TailBoundViolated(
                f"measured tails {tail_up:.2e}+{tail_dn:.2e} "
                f"exceed {TAIL_TOL:.2e}")
    scale = step * (-1.0 / (2.0 * math.pi))
    out = []
    for block, (up, dn) in zip(vals.coords, tails):
        fine = alg.element(block[:n]).sum() * scale
        coarse = alg.element(block[:n:2]).sum() * (2.0 * scale)
        out.append((fine, {"nodes": n, "step": step,
                           "est_error": (fine - coarse).norm(),
                           "tail": up + dn}))
    return out


def residue_at(f, centers, radii):
    """Residues of f by small positively oriented circles, in one call.

    centers and radii are 1-d arrays of one length.  Every circle's
    _CIRCLE_NODES nodes go to one integrand call, so to one kernel call,
    and the result is a batch with one row per circle.  Each circle sums
    its own nodes, as one circle alone would.  A non-finite node makes
    its circle's residue non-finite; the caller checks the rows it uses.
    """
    centers = np.asarray(centers, dtype=complex)
    z = np.exp(TWO_PI_I * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES) \
        * np.asarray(radii, dtype=float)[:, None]
    vals = f((centers[:, None] + z).reshape(-1))
    alg = vals.algebra
    blocks = vals.coords.reshape(-1, _CIRCLE_NODES, alg.dim)
    return alg.element(np.array([
        ((alg.element(block) * zi).sum() * (1.0 / _CIRCLE_NODES)).coords
        for block, zi in zip(blocks, z)]))


def orbit_sum(x, line, ring, m_from, m_to):
    """Plain sum of the h-orbit terms m_from <= m <= m_to, one batch."""
    return sum_rows(term_values(x, line.orbit(m_from, m_to), line.den,
                                ring))


def left_residue_sum(f, line):
    """Sum of all residues of f left of the line, by line.circles.

    f is the integrand built on the stack [line] alone; residue_at
    reads its one block.  The circles go right to left in rounds of
    _ROUND, 2 _ROUND, 4 _ROUND, ..., one residue_at call each.  Residues
    are added one circle at a time, and the sum stops after three in a
    row under STOP of it; the rest of that round is dropped unchecked.
    """
    centers, radii = line.circles
    acc, small, start, size = None, 0, 0, _ROUND
    while start < len(centers):
        stop = start + size
        batch = residue_at(f, centers[start:stop], radii[start:stop])
        for row in batch.coords:
            val = batch.algebra.element(row)
            _require_finite(val, "residue circle")
            acc = val if acc is None else acc + val
            small = small + 1 if val.norm() < STOP * max(acc.norm(), 1.0) \
                else 0
            if small == 3:
                return acc
        start, size = stop, 2 * size
    return acc


# -- residue coefficients ------------------------------------------------


def adjacent_data_transport(data, circuit, t_minus, gamma, k, r, lift):
    """theta and the reached sector, via the stored lift moved along h."""
    q = (lift.values[k] - r) / (-circuit.h[k])
    theta = q % 1
    sector, _ = adjacent_sector(data, circuit, t_minus, gamma, k, r, lift)
    return theta, tuple(sector.coords)


def adjacent_data_pole(circuit, gamma, k, m):
    """theta and the reached coordinates, read off the residue location."""
    base = (gamma.coords[k] + m) / Fraction(-circuit.h[k])
    theta = base % 1
    coords = tuple((g + h * base) % 1 for g, h in zip(gamma.coords, circuit.h))
    return theta, coords


def coefficient_C(circuit, gamma, k, angles, ring):
    """Residue coefficient attached to a pole (k, r) of sector gamma.

    angles is the pair (theta, coords2) of that pole, from
    adjacent_data_transport (lifts) or adjacent_data_pole (the residue
    location); the two routes must produce identical elements and are
    kept as separate code paths on purpose.
    """
    h = circuit.h
    hk = h[k]
    assert k in circuit.I_minus   # internal: poles are built over I_minus
    theta, coords2 = angles
    dk = ring.divisor(k)
    num = ring.one() - ring.exp(dk * (-1.0)) * unit_phase(-gamma.coords[k])
    den = (ring.one() - ring.exp(dk * (1.0 / hk)) * unit_phase(-theta)) * hk
    acc = num * ring.inv(den)
    for j in sorted(circuit.I_minus):
        if j == k:
            continue
        dj = ring.divisor(j)
        delta = dj - dk * (h[j] / hk)
        numj = ring.one() - ring.exp(dj * (-1.0)) * unit_phase(-gamma.coords[j])
        denj = ring.one() - ring.exp(delta * (-1.0)) * unit_phase(-coords2[j])
        acc = acc * numj * ring.inv(denj)
    return acc


# -- transform matrices -------------------------------------------------


@dataclass
class TransformMatrix:
    """Entries indexed by WallContext.rows (target) and .cols (source)."""

    entries: np.ndarray
    principal_ratio: float = 0.0

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)


class WallContext:
    """Everything about one wall crossing that does not depend on eps.

    A command builds one context per crossing and drops it when it
    returns.  The context holds the two chambers `plus` and `minus`
    (rings.Chamber: the box and the sector algebras of each
    triangulation), the deformation offsets checked against the circuit,
    the essential sectors of the plus side, the row and column index of
    the transform, and for each essential plus sector the angular data
    (theta, coords2) of its poles (k, r) by both residue routes.  The
    monomial basis is found on first use, so a command that assembles
    no transform never searches for it.  The DeformationRings of a side
    at one eps are built once, by `rings`, and shared by every function
    that takes that eps, so the two residue routes share the series
    mode's memo of exp, inverse and powers; the rest of what depends on
    eps is built by those functions.
    """

    def __init__(self, circuit, plus, minus):
        data = plus.data
        self.circuit = circuit
        self.plus = plus
        self.minus = minus
        # the offsets 0, ..., n-1 that every DeformationRing takes
        self.offsets = tuple(Fraction(j) for j in range(data.n))
        for k in circuit.I_minus:
            if self.offsets[k] == 0:
                raise InfeasibleArgs(
                    f"the fixed deformation offsets 0, ..., {data.n - 1} "
                    f"cannot separate the poles of this crossing: index "
                    f"{k + 1} on the negative side has offset 0")
            for j in circuit.I_minus:
                if j != k and self.offsets[j] * circuit.h[k] \
                        == self.offsets[k] * circuit.h[j]:
                    raise InfeasibleArgs(
                        "the fixed deformation offsets cannot separate the "
                        "poles of this crossing: on the negative side they "
                        "are proportional to the circuit")
        self.poles = {}
        for g in essential_sectors(data, plus.t, circuit, plus.box):
            lift = canonical_lift(data, g, (0,) * data.rank)
            self.poles[g.key()] = [
                (k, r, {"transport": adjacent_data_transport(
                            data, circuit, minus.t, g, k, r, lift),
                        "pole": adjacent_data_pole(circuit, g, k, r)})
                for k in sorted(circuit.I_minus) for r in range(-circuit.h[k])]
        self.essential_plus = frozenset(self.poles)
        self.rows = tuple((g.key(), i) for g in plus.box
                          for i in range(plus.algebras[g.key()].dim))
        self.cols = tuple((g.key(), i) for g in minus.box
                          for i in range(minus.algebras[g.key()].dim))
        self._rings = {}

    @functools.cached_property
    def monomials(self):
        """The Laurent exponents that index the transform's columns."""
        return monomial_basis(self)

    def rings(self, chamber, eps):
        """The DeformationRing of every sector of chamber at eps.

        Built once per side and eps (None: Laurent), keyed by eps as the
        ring reads it, its sign of zero included; callers share them.
        """
        # internal: a context serves its own two chambers
        assert chamber is self.plus or chamber is self.minus
        side = (chamber is self.plus, None if eps is None
                else repr(complex(eps)))
        if side not in self._rings:
            self._rings[side] = {key: DeformationRing(alg, self.offsets,
                                                      eps=eps)
                                 for key, alg in chamber.algebras.items()}
        return self._rings[side]


def _localization_values(ring, coords, mons):
    """Values of the Laurent monomials R^b at r_j = e^{D~_j + 2 pi i g_j}.

    One batch row per exponent b of mons: one batched algebra_exp of the
    combinations sum_j b_j D~_j, times the exact phase e^{2 pi i b.g} of
    each b.  A Laurent ring gives the eps^0 coefficients: R^b has no
    pole in eps, and every caller reads eps^0 alone.
    """
    alg = ring.algebra
    b = np.array(mons, dtype=float).reshape(len(mons), alg.data.n)
    combo = np.zeros((len(mons), alg.dim), dtype=complex)
    for j in range(alg.data.n):
        div = alg.divisor(j) if ring.laurent else ring.divisor(j)
        combo = combo + b[:, j, None] * div.coords
    # b.g exactly, over the common denominator of the sector coordinates
    den = math.lcm(*(g.denominator for g in coords))
    nums = [int(g * den) for g in coords]
    phases = np.array([unit_phase(Fraction(sum(bj * nj for bj, nj
                                               in zip(bb, nums)), den))
                       for bb in mons], dtype=complex)
    return algebra_exp(alg.element(combo)) * phases


def localization_matrix(chamber, rings, mons):
    """Localization values of the monomials R^b, one stacked row per b."""
    return np.concatenate([_localization_values(rings[g.key()], g.coords,
                                                mons).coords
                           for g in chamber.box], axis=1)


def monomial_basis(wall):
    """Laurent exponents picked greedily to a full-rank localization image.

    Candidates go by total degree sum |b_j|, sorted within a degree; the
    localization values of one degree are evaluated as one batch.
    """
    minus = wall.minus
    target = len(wall.cols)
    n = minus.data.n
    rings0 = wall.rings(minus, 0.0)
    chosen = []
    rows = []

    def of_degree(deg):
        opts = []

        def grow(prefix, rem):
            if len(prefix) == n:
                if rem == 0:
                    opts.append(tuple(prefix))
                return
            for v in range(-rem, rem + 1):
                grow(prefix + [v], rem - abs(v))
        grow([], deg)
        return sorted(opts)

    for deg in range(3 * target + 1):
        cands = of_degree(deg)
        for b, col in zip(cands, localization_matrix(minus, rings0, cands)):
            trial = rows + [col]
            if np.linalg.matrix_rank(np.array(trial), tol=1e-9) > len(rows):
                chosen.append(b)
                rows.append(col)
                if len(chosen) == target:
                    return tuple(chosen)
    raise LocalizationRankDeficient(
        f"the localization values of the Laurent monomials up to degree "
        f"{3 * target} span {len(chosen)} of {target} dimensions")


def _stack(chamber, per_sector):
    """Per-sector values as one flat vector, in the chamber's box order."""
    out = []
    for g in chamber.box:
        out.extend(np.asarray(per_sector[g.key()].coords))
    return np.array(out, dtype=complex)


def _column_entries(chamber, rings, values):
    """Stacked ring values; if Laurent, at eps^0, with the worst pole part."""
    worst = 0.0
    for key, v in values.items():
        ring = rings[key]
        if ring.laurent:
            worst = nan_max(worst, ring.principal_ratio(v))
            values[key] = ring.eps_zero(v)
    return _stack(chamber, values), worst


def _transform(wall, eps, route):
    """Shared assembly for both residue routes at one eps (None: Laurent)."""
    circuit, plus, minus = wall.circuit, wall.plus, wall.minus
    h = circuit.h
    mons = wall.monomials
    rings_plus = wall.rings(plus, eps)
    rings_minus = wall.rings(minus, eps)
    residues = {}
    for g in plus.box:
        if g.key() in wall.poles:
            ring = rings_plus[g.key()]
            residues[g.key()] = [
                (k, r, angles[route][1],
                 coefficient_C(circuit, g, k, angles[route], ring))
                for k, r, angles in wall.poles[g.key()]]
    local = {g.key(): _localization_values(rings_plus[g.key()], g.coords,
                                           mons).coords
             for g in plus.box if g.key() not in residues}
    raw_cols = []
    principal = 0.0
    for i, b in enumerate(mons):
        values = {}
        for g in plus.box:
            key = g.key()
            ring = rings_plus[key]
            if key not in residues:
                values[key] = ring.algebra.element(local[key][i])
                continue
            acc = None
            for k, r, coords2, c_kr in residues[key]:
                if route == "transport":
                    phase = unit_phase(sum(Fraction(bj) * c2 for bj, c2
                                           in zip(b, coords2)))
                    combo = None
                    for j, bj in enumerate(b):
                        if bj == 0:
                            continue
                        piece = (ring.divisor(j)
                                 - ring.divisor(k) * (h[j] / h[k])) \
                            * float(bj)
                        combo = piece if combo is None else combo + piece
                    val = ring.one() * phase if combo is None \
                        else ring.exp(combo) * phase
                else:
                    pk = ring.exp(ring.divisor(k) * (1.0 / (-h[k]))) \
                        * unit_phase(Fraction(g.coords[k] + r, -h[k]))
                    val = ring.one()
                    for j, bj in enumerate(b):
                        if bj == 0:
                            continue
                        rj = ring.exp(ring.divisor(j)) \
                            * unit_phase(g.coords[j])
                        factor = rj * ring.power(pk, h[j]) if h[j] else rj
                        val = val * ring.power(factor, bj)
                contrib = c_kr * val
                acc = contrib if acc is None else acc + contrib
            values[key] = acc * (-1.0)
        col, worst = _column_entries(plus, rings_plus, values)
        principal = nan_max(principal, worst)
        raw_cols.append(col)
    loc = localization_matrix(minus, rings_minus, mons).T
    colmat = np.array(raw_cols, dtype=complex).T
    entries = colmat @ np.linalg.inv(loc)
    return TransformMatrix(entries=entries, principal_ratio=principal)


def invertibility(entries):
    """|det| and rcond = sigma_min / sigma_max of a transform, and the gate.

    The gate reads rcond > RCOND_MIN, which does not depend on the scale
    of the monomial basis that |det| carries.  Non-finite entries give
    rcond NaN, which fails.
    """
    det = float(abs(np.linalg.det(entries)))
    if np.isfinite(entries).all():
        sv = np.linalg.svd(entries, compute_uv=False)
        rcond = float(sv[-1] / sv[0]) if sv[0] else 0.0
    else:
        rcond = math.nan
    return {"det": det, "rcond": rcond}, rcond > RCOND_MIN


def ac_transform(wall, eps):
    """Transform assembled from lift-transported residue data."""
    return _transform(wall, eps, "transport")


def fm_transform(wall, eps):
    """Transform assembled from residue-location (kernel) data."""
    return _transform(wall, eps, "pole")


# -- verification -------------------------------------------------------


def c_battery(data, depth):
    cs = {(0,) * data.rank}
    frontier = list(cs)
    for _ in range(depth):
        new = []
        for c in frontier:
            for v in data.points:
                cn = tuple(a + b for a, b in zip(c, v))
                if cn not in cs:
                    cs.add(cn)
                    new.append(cn)
        frontier = new
    return sorted(cs)


def nonessential_set(data, circuit, t_plus, t_minus):
    """The first smallest index set inside no essential cone of either side."""
    ess = [frozenset(s) for t in (t_plus, t_minus)
           for s in essential_cones(data, t, circuit)]
    found = (J for size in range(1, data.n + 1)
             for J in combinations(range(data.n), size)
             if not any(e >= frozenset(J) for e in ess))
    J = next(found, None)
    # internal: no essential cone holds all indices, so some J exists
    assert J is not None, "every index set meets an essential cone"
    return J


def blind_classes(chamber, rings, mons, J):
    """Localization values of R^b prod_{j in J} (1 - R_j), one row per b.

    J from nonessential_set makes these classes blind to the wall, so the
    transform must fix them.  The factor is built once per sector.
    """
    units = [tuple(int(i == j) for i in range(chamber.data.n)) for j in J]
    out = []
    for g in chamber.box:
        ring = rings[g.key()]
        factor = ring.algebra.one()
        for rj in _localization_values(ring, g.coords, units).coords:
            factor = factor * (1.0 - ring.algebra.element(rj))
        out.append((_localization_values(ring, g.coords, mons)
                    * factor).coords)
    return np.concatenate(out, axis=1)


def gamma_vector(chamber, battery, x, policy):
    """Stacked sector coordinates of the series values, one per c.

    One series.sector_batches batch per sector for the whole battery,
    and each c adds its own rows in term order.
    """
    per = [{} for _ in battery]
    for key, _, rows, batch in sector_batches(chamber, battery, x, policy):
        for out, sel in zip(per, rows):
            out[key] = sum_rows(batch, sel)
    return [_stack(chamber, p) for p in per]


def _line_values(x, rings, factors, lines, height):
    """Value, diagnostics and left orbit terms of every (sector key, Line).

    The lines of one sector on one node grid (s0 and distance) are
    evaluated as stacks: one integrand and one mb_contour_oracle call
    per stack, in battery order, at most _stack_size lines each.  The
    orbit terms are those left of the line, l' + m h for -M_BACK <= m <
    first_right.  If a stack fails, the lines run again one at a time in
    battery order, each a stack of one, its quadrature and then its
    orbit split, so the first failing line raises what it would raise
    alone.
    """
    grids = {}
    for i, (key, line) in enumerate(lines):
        grids.setdefault((key, line.s0, line.distance), []).append(i)
    out = [None] * len(lines)
    try:
        for (key, _, distance), rows in grids.items():
            size = _stack_size(height, distance)
            for start in range(0, len(rows), size):
                part = rows[start:start + size]
                stack = [lines[i][1] for i in part]
                f = make_integrand(x, stack, rings[key], factors[key])
                for i, res in zip(part, mb_contour_oracle(f, stack, height)):
                    out[i] = res
    except GkzflopError:
        for key, line in lines:
            mb_contour_oracle(make_integrand(x, [line], rings[key],
                                             factors[key]), [line], height)
            line.orbit(-M_BACK, line.first_right - 1)
        raise
    return [(q, dg, line.orbit(-M_BACK, line.first_right - 1))
            for (q, dg), (_, line) in zip(out, lines)]


def continued_vector(wall, rings, battery, x, policy, spec):
    """Far-side values of the near-side solutions, one per c.

    Essential families are continued orbit-by-orbit from their
    generators: the line integral of the generator plus its orbit terms
    left of the line, the analytic continuation of the near-side orbit
    sum.  Non-essential leftovers (a1 and conifold have none; points
    outside the circuit can give some) are summed directly.  Every Line
    of the battery is built first, then the lines of each plus sector
    are evaluated as one stack per node grid (_line_values), sharing one
    LineFactors table over the whole battery: a factor of (j, l'_j) is
    evaluated once.  The first failing step in battery order decides
    the error, as if each c ran alone: an error while the lines are
    built is raised once the lines before it have run.  Per plus
    sector, the orbit terms and leftovers of every c are one term_values
    batch, and each c adds its own rows in term order.  Returns, per c,
    the stacked vector and the worst est_error and total nodes of its
    lines.
    """
    circuit, plus = wall.circuit, wall.plus
    factors = {key: LineFactors(ring) for key, ring in rings.items()}
    plans, lines, pending = [], [], None
    try:
        for c in battery:
            plans.append({})
            for g in plus.box:
                parts = plans[-1][g.key()] = []
                for term in enumerate_terms(plus.data, plus.t, c, g, policy,
                                            circuit):
                    if term.generator:
                        line = Line(term.l, circuit, spec.s0)
                        lines.append((g.key(), line))
                        parts.append(line)
                    elif not term.essential:
                        parts.append(term)
    except GkzflopError as err:     # raised once the lines before it ran
        pending = err
    values = iter(_line_values(x, rings, factors, lines, spec.height))
    if pending is not None:
        raise pending
    ls = {g.key(): [] for g in plus.box}
    dens = dict.fromkeys(ls, 1)
    layouts = []
    for plan in plans:
        layout, diag = {}, {"est_error": 0.0, "nodes": 0}
        for key, parts in plan.items():
            rows = ls[key]
            layout[key] = []
            for part in parts:
                if isinstance(part, Line):
                    q, dg, terms = next(values)
                    den = part.den
                    diag["est_error"] = nan_max(diag["est_error"],
                                                dg["est_error"])
                    diag["nodes"] += dg["nodes"]
                else:
                    q, terms, den = None, [part.num], part.den
                # internal: the terms of a sector share their fractional
                # parts, so the lcm of their denominators too
                assert not rows or dens[key] == den
                dens[key] = den
                layout[key].append((q, slice(len(rows),
                                             len(rows) + len(terms))))
                rows.extend(terms)
        layouts.append((layout, diag))
    batches = {key: term_values(x, rows, dens[key], rings[key])
               for key, rows in ls.items()}
    out = []
    for layout, diag in layouts:
        per = {}
        for key, parts in layout.items():
            acc = rings[key].zero()
            for q, rows in parts:
                val = sum_rows(batches[key], rows)
                acc = acc + (val if q is None else val + q)
            per[key] = acc
        out.append((_stack(plus, per), diag))
    return out


def oracle_report(circuit, plus, minus, eps_values, y_abs, amplitude, policy,
                  spec):
    """Quadrature vs pole sums on both sides, per generator and eps, at c = 0.

    plus and minus are the Chambers of the two triangulations, and policy
    bounds the terms searched for orbit generators.  Each generator's
    Line is built at its first use and serves every eps; per eps, one
    integrand at each endpoint on the stack of that one line, the far
    one shared by its quadrature and its residue circles.  The
    integrands of one eps and sector share a LineFactors table, so the
    near and far ends of a line evaluate their Gamma and pole factors,
    which do not depend on x, once.
    """
    data, t_plus = plus.data, plus.t
    path = select_endpoints(circuit, amplitude, y_abs)
    c = (0,) * data.rank
    wall = WallContext(circuit, plus, minus)
    generators = {}      # they do not depend on eps: found once
    for g in plus.box:
        if g.key() in wall.essential_plus:
            generators[g.key()] = [term.l for term in enumerate_terms(
                data, t_plus, c, g, policy, circuit) if term.generator]
    lines = {}
    checks = []
    for eps in eps_values:
        rings = wall.rings(plus, eps)
        for key, lps in generators.items():
            ring = rings[key]
            factors = LineFactors(ring)
            for lp in lps:
                if lp not in lines:
                    lines[lp] = Line(lp, circuit, spec.s0)
                line = lines[lp]
                (q_p, dg_p), = mb_contour_oracle(
                    make_integrand(path.x_plus, [line], ring, factors),
                    [line], spec.height)
                right = orbit_sum(path.x_plus, line, ring, line.first_right,
                                  M_MAX)
                dev_r, _ = _deviation(q_p.coords, right.coords)
                f_m = make_integrand(path.x_minus, [line], ring, factors)
                (q_m, dg_m), = mb_contour_oracle(f_m, [line], spec.height)
                left = left_residue_sum(f_m, line)
                dev_l, _ = _deviation(q_m.coords, -left.coords)
                # each side passes only with its line's quadrature error
                # under the same tolerance as its deviation
                err_r = dg_p["est_error"] / max(q_p.norm(), 1.0)
                err_l = dg_m["est_error"] / max(q_m.norm(), 1.0)
                checks.append({
                    "eps": eps, "sector": sector_label(key),
                    "c": list(c),
                    "lprime": [str(v) for v in lp],
                    "right_dev": dev_r, "left_dev": dev_l,
                    "right_pass": nan_max(dev_r, err_r) < 1e-7,
                    "left_pass": nan_max(dev_l, err_l) < 1e-6,
                    "est_error": nan_max(dg_p["est_error"],
                                         dg_m["est_error"]),
                    "nodes": [dg_p["nodes"], dg_m["nodes"]]})
    ok = all(c["right_pass"] and c["left_pass"] for c in checks)
    return {"kind": "contour-oracle", "y_abs": [path.y_abs_plus,
                                                path.y_abs_minus],
            "checks": checks, "pass": ok}


def _deviation(got, ref):
    """Largest |got - ref| over max(|ref|, 1), and that scale."""
    scale = max(np.abs(ref).max(), 1.0)
    return float(np.abs(got - ref).max() / scale), scale


def verify_fm_equals_ac(circuit, plus, minus, eps_samples, depth, y_abs,
                        amplitude, policy, spec):
    """The crossing battery: matrix, laurent, end_to_end and invariance.

    plus and minus are the Chambers of the two triangulations; one wall
    context over them serves every eps below.  `invariance` checks that
    the transform fixes R^b prod_{j in J} (1 - R_j), b over its monomials
    and J the first smallest index set in no essential cone of either
    side.  Returns a report dict;
    raises nothing on mere check failure (the caller decides), but
    propagates structural errors.
    """
    data, t_plus, t_minus = plus.data, plus.t, minus.t
    path = select_endpoints(circuit, amplitude, y_abs)
    report = {"kind": "fm-vs-ac", "fixture": {"plus": t_plus.label,
                                              "minus": t_minus.label},
              "eps_samples": list(eps_samples)}
    wall = WallContext(circuit, plus, minus)

    samples = []
    for eps in eps_samples:
        ac = ac_transform(wall, eps)
        fm = fm_transform(wall, eps)
        dev, _ = _deviation(ac.entries, fm.entries)
        sizes, invertible = invertibility(fm.entries)
        samples.append({"eps": eps, "matrix_dev": dev, **sizes,
                        "pass": dev < 1e-10 and invertible})
    report["matrix"] = {"samples": samples,
                        "pass": all(s["pass"] for s in samples)}

    ac0 = ac_transform(wall, None)
    fm0 = fm_transform(wall, None)
    dev0, _ = _deviation(ac0.entries, fm0.entries)
    principal = nan_max(ac0.principal_ratio, fm0.principal_ratio)
    report["laurent"] = {
        "principal_ratio": principal,
        "matrix_dev": dev0,
        "entries": [[[v.real, v.imag] for v in row]
                    for row in fm0.entries],
        "pass": principal < 1e-9}

    rings_plus, rings_minus = wall.rings(plus, 0.0), wall.rings(minus, 0.0)
    battery = c_battery(data, depth)
    continued = continued_vector(wall, rings_plus, battery, path.x_minus,
                                 policy, spec)
    values = gamma_vector(minus, battery, path.x_minus, policy)
    worst_dev = 0.0
    rows = []
    for c, (lhs, diag), value in zip(battery, continued, values):
        dev, scale = _deviation(fm0.entries @ value, lhs)
        worst_dev = nan_max(worst_dev, dev)
        rows.append({"c": list(c), "dev": dev,
                     "quad_error": diag["est_error"],
                     "quad_nodes": diag["nodes"],
                     "pass": nan_max(dev, diag["est_error"] / scale) < 1e-6})
    report["end_to_end"] = {"battery": rows, "max_dev": worst_dev,
                            "pass": all(r["pass"] for r in rows)}

    J = nonessential_set(data, circuit, t_plus, t_minus)
    src = blind_classes(minus, rings_minus, wall.monomials, J)
    tgt = blind_classes(plus, rings_plus, wall.monomials, J)
    worst_inv = nan_max(0.0, *(_deviation(fm0.entries @ vec, ref)[0]
                               for vec, ref in zip(src, tgt)))
    report["invariance"] = {"classes": len(wall.monomials),
                            "J": [j + 1 for j in J],
                            "signal": float(np.abs(tgt).max()),
                            "max_dev": worst_inv,
                            "pass": worst_inv < 1e-10}

    report["pass"] = all(report[k]["pass"] for k in
                         ("matrix", "laurent", "end_to_end", "invariance"))
    return report
