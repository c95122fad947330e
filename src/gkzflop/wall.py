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
classes stay separated.  A command samples its matrices at its generic
real eps and at a circle of complex eps around 0, all in one stack per
route; the circle's mean is the undeformed (eps^0) transform, and its
eps^-m coefficients, which must cancel, are gated (deform.circle_read).

Each orbit generator has one Line: its integration line, the split of
its orbit and its residue circles, built once per command and passed to
the integrand, the quadrature, the residue sums and the orbit sums.  The
integrand and the quadrature take one form, a stack: a list of Lines on
one node grid at a list of endpoints and on a ring of eps samples, with
one block per (eps, endpoint, line); a line alone, and one eps, is a
stack of one.  An integrand call forms each factor once, however many
blocks share it, and the quadrature returns one outcome per (eps,
endpoint, line): a value, or the error that entry raises alone.  Each
command then walks its lines in order and raises the first failure.

The end-to-end check of verify_fm_equals_ac runs over a battery of
lattice points c at eps = 0 and evaluates it as a whole: one set of
rings per side, one line integral per orbit generator, the lines of a
sector on one node grid evaluated as one stack at the far endpoint,
and one series batch (series.term_values) per sector and side for
every c at once (continued_vector, gamma_vector).  Each c sums only its
own rows, in term order, so its values do not depend on the rest of
the battery.  oracle_report builds one ring for its eps samples and one
integrand per generator, on that line at both endpoints and every eps:
its quadratures read both endpoints, its residue circles the far
endpoint alone.
"""

import cmath
import functools
import math
import operator
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
from .deform import DeformationRing, TWO_PI_I, circle, circle_read, \
    unit_phase, principal_log
from .rings import algebra_exp, algebra_inverse
from .series import enumerate_terms, exponent_table, ladder_anchors, \
    sector_batches, term_values, sum_rows, scalar_power, nan_max


# A line pass is one trapezoid rule at half-step offsets; its even nodes form
# the coarse level.  The coarse step h2 solves e^(-2 pi a / h2) =
# e^(-LINE_EXPONENT), about 2e-16, for the distance a from the line to its
# nearest pole, and the fine step is h2 / 2.  A line that would need more than
# MAX_LINE_NODES nodes (a half-height in the hundreds) is refused.  Tails stay
# under TAIL_TOL.  A line keeps CLEARANCE from the poles, a node GUARD from
# every point of Line.points, the one pole model.  Left residues reach
# MAX_DEPTH below the line and stop after three in a row under STOP of their
# sum, per eps; their circles, of _CIRCLE_NODES nodes each, are evaluated in
# rounds of _ROUND, then _ROUND_MAX, _ROUND_MAX, ... circles, one integrand
# call each for every eps of the ring.  A factor 1/Gamma with h_j < 0 sends
# every node of a round to the kernel, 8 circles 512 nodes (one
# kernels._BLOCK) per eps; one with h_j > 0 sends the 64 nodes of each circle
# class once and ladders down to the rest (Line.circles).  Orbit terms are
# restored from -M_BACK; the right pole sum ends at M_MAX.
LINE_EXPONENT, MAX_LINE_NODES, TAIL_TOL = 36, 2 ** 16, 1e-9
CLEARANCE, GUARD = 0.15, 1e-7
MAX_DEPTH, STOP = 40, 1e-13
_ROUND, _ROUND_MAX, _CIRCLE_NODES = 4, 8, 64
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
# The eps^0 transform is the mean of the transform over CIRCLE_NODES
# samples on |eps| = rho, rho = min(CIRCLE_RHO, R / 3) and R the nearest
# nonzero eps where a residue denominator vanishes (circle_radius).  While
# the nested estimate exceeds CIRCLE_RTOL of the largest entry, the
# circle doubles, up to CIRCLE_MAX samples.  EPS0_TOL gates that estimate
# and the principal ratio.
CIRCLE_NODES, CIRCLE_MAX, CIRCLE_RHO = 32, 256, 0.1
CIRCLE_RTOL, EPS0_TOL = 1e-11, 1e-9


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


@dataclass(frozen=True, eq=False)
class Circles:
    """Residue circles: 1-d arrays of centres and radii, and their classes.

    The circles of a class are integer translates of its first circle:
    circle i lies shifts[i] >= 0 to the left of the centre anchors[i],
    at the same radius, so that 1/Gamma(1 + l'_j + h_j s + D_j / 2 pi i)
    on its nodes is the value on its anchor circle's nodes shifts[i] h_j
    steps down the functional equation.  A circle that is its own class
    has itself as anchor and shift 0.  Indexing takes the same rows of
    every array.
    """

    centers: np.ndarray
    radii: np.ndarray
    anchors: np.ndarray
    shifts: np.ndarray

    def __getitem__(self, rows):
        return Circles(self.centers[rows], self.radii[rows],
                       self.anchors[rows], self.shifts[rows])

    def __len__(self):
        return len(self.centers)


class Line:
    """The integration line of one orbit generator l', and its pole model.

    It depends on l' and the circuit alone, not on eps or the endpoint: a
    command builds one Line per generator and passes it down.  families are
    the pairs (l'_k, -h_k), k in I_minus, whose points (l'_k - w) / (-h_k),
    w an integer, are poles for w >= 0; top is the largest (w = 0).  Every
    point of the model is an integer over unit, the lcm of the families'
    denominators, listed in those numerators (points) for the placement, the
    circles and the node guard (near_pole).  s0 None asks for the smallest
    half-integer >= 1/2 right of top.  A line closer than CLEARANCE to a
    pole (removable points do not count) moves by +0.25, else by -0.25, else
    raises PoleOnContour; distance is the placed line's distance to its
    nearest pole.  An integer point always lies within 1/2 of the line, so
    the poles 1.25 either side of the requested line hold the nearest of
    every candidate.  first_right and circles are read on first use.  The
    orbit l' + m h is read as integer numerators over den, the common
    denominator of l', the form series.term_values takes.
    """

    def __init__(self, lprime, circuit, s0=None):
        self.lprime = tuple(lprime)
        self.circuit = circuit
        (self.num,), self.den = exponent_table([self.lprime])
        # near_pole's points, as floats: none before the circles list some
        self._at = np.full(1, math.inf)
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

    def near_pole(self, s):
        """Per node of the flat array s, True within GUARD of a point of
        points, removable ones too.  The points are real, so only a node
        with |Im s| < GUARD can be; it is compared with its two
        neighbours, read as p / unit, both in [floor(Re s), floor(Re s) +
        1]: off the circles' points where they span that, else off points
        listed anew."""
        row = np.zeros(s.shape, dtype=bool)
        near = np.flatnonzero(np.abs(s.imag) < GUARD)
        if near.size:
            z = s[near]
            lo, hi = math.floor(z.real.min()), math.floor(z.real.max()) + 1
            at = self._at
            if not (at[0] <= lo and hi <= at[-1]):
                at = np.array([p for p, _ in self.points(lo, hi)]) / self.unit
            i = np.clip(np.searchsorted(at, z.real), 1, len(at) - 1)
            row[near] = (np.abs(z - at[i - 1]) < GUARD) \
                | (np.abs(z - at[i]) < GUARD)
        return row

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
        """The residue circles left of the line, as Circles.

        One circle encloses each pole location less than MAX_DEPTH left
        of the line, right to left, so poles sharing it (merged
        families, integer points hit by a family) never force a tiny
        radius; the radius, at most 0.2, keeps it off the neighbouring
        locations.  The circles are classed exactly, on the integer
        numerators of their centres: a class is one value of (centre
        mod 1, radius), and its first circle anchors it.
        """
        points = self.points(self.s0 - MAX_DEPTH - 1, self.s0 + 1)
        u = self.unit
        self._at = np.array([p for p, _ in points]) / u
        # lo <= p / u < hi, compared exactly in integers
        lo, lo_den = (self.s0 - MAX_DEPTH).as_integer_ratio()
        hi, hi_den = self.s0.as_integer_ratio()
        rows, first = [], {}
        for i in reversed(range(1, len(points) - 1)):
            re, kind = points[i]
            if kind == "removable" or not lo * u <= re * lo_den \
                    or not re * hi_den < hi * u:
                continue
            gap = min(points[i + 1][0] - re, re - points[i - 1][0])
            radius = min(0.2, 0.4 * (gap / u))
            top = first.setdefault((re % u, radius), re)
            rows.append((re / u, radius, top / u, (top - re) // u))
        centers, radii, anchors, shifts = zip(*rows) if rows \
            else ((),) * 4
        return Circles(np.array(centers, dtype=float),
                       np.array(radii, dtype=float),
                       np.array(anchors, dtype=float),
                       np.array(shifts, dtype=int))

    def orbit(self, m_from, m_to):
        """The exponent tuples l' + m h, m_from <= m <= m_to, as integer
        numerators over den."""
        step = [self.den * hv for hv in self.circuit.h]
        return [tuple(v + m * hv for v, hv in zip(self.num, step))
                for m in range(m_from, m_to + 1)]


# -- the integrand ------------------------------------------------------


def _pole_error(nodes, row):
    return PoleProximity(f"s = {complex(nodes[row][0])} too close to a "
                         f"pole")


def _slots(values):
    """The distinct values in first-seen order, and each value's slot."""
    index = {}
    slots = [index.setdefault(v, len(index)) for v in values]
    return list(index), slots


def make_integrand(xs, lines, ring):
    """Closure evaluating I(s) on a stack of lines at every endpoint of xs
    and every sample of ring.

    lines is a list of Lines of one circuit; one line is a stack of one.
    ring is a DeformationRing at one eps or at a stack of samples; one
    sample is a stack of one.  The closure takes one node s or an array
    of nodes, shared by the lines, and optionally keep, the indices of
    the lines to evaluate, and at, the indices of the endpoints of xs to
    evaluate them at (each default: all); every sample is evaluated.  It
    returns a batch of shape (E X K,) + s.shape + (dim,), E the samples,
    X the endpoints and K the lines kept: one block per (eps, x, line),
    eps-major.  For residue circles it also takes ladder = (base, slots,
    shifts): s of shape (C, N) holds C circles of N nodes, base (A, N)
    the nodes of their classes' anchor circles, and circle i lies
    shifts[i] to the left of base[slots[i]] (Circles).

    eps enters only scalar parts: the kernel centres, e^{-D_j} and the
    branched powers x_j^{D_j / 2 pi i}, so the samples are one more
    batch axis.  The product of the branched powers is formed once per
    endpoint, each line's constant from it by one scalar.  A factor
    that depends on l'_j only through its class r = l'_j mod 1 is
    formed once per class of the kept lines.  1/Gamma(1 + l'_j + h_j s
    + D_j / 2 pi i) goes to the kernel at its anchor (ladder_anchors),
    once per (eps, j, anchor), all in one DeformationRing.recip_gamma
    call, and l'_j = anchor - m is reached by m steps of the functional
    equation (kernels.recip_gamma_ladder), composed with the nilpotent
    part once per (eps, j, anchor, m).
    With a ladder, a factor with h_j > 0 goes to the kernel on base
    alone, once per (eps, j, anchor, class), and circle i takes
    shifts[i] h_j steps more; a factor with h_j <= 0 takes every node
    of s.  Each pole-denominator inverse of j in I_minus, 1 / (1 -
    e^{-D_j} e^{-2 pi i (r + h_j s)}), and its numerator are formed once
    per (eps, j, r), and each power x_j^{h_j s} once per (x, j).
    Classes, anchors and step counts are read once, when the integrand
    is built; a call only indexes them.

    A value depends on (eps, j, l'_j, s) alone, and on a residue circle
    on its anchor circle's nodes and its shift, so each block is its
    line's I(s) at its x and its eps alone to the last bit: every factor
    is formed as for that line alone, the factors of a line multiply in
    one fixed order, SectorAlgebra.multiply treats rows apart, and the
    kernel and the ladder work elementwise.  The closure does not guard
    its nodes: its callers, mb_contour_oracle and residue_at, keep every
    node they send GUARD away from Line.points (Line.near_pole).  .decay
    holds the tail rates of each (eps, x), eps-major, and .arg_y one
    value per x of xs; both depend on x and the circuit alone.
    """
    circuit = lines[0].circuit
    # internal: a stack holds the lines of one circuit
    assert all(line.circuit is circuit for line in lines)
    alg = ring.algebra
    dim = alg.dim
    xs = [tuple(complex(v) for v in x) for x in xs]
    n = alg.data.n
    h = circuit.h
    iminus = sorted(circuit.I_minus)
    # every class with a leading sample axis, of length 1 for one eps
    samples = np.size(ring.eps)

    def stacked(el, k=0):
        """el with k unit axes after its sample axis."""
        return alg.element(el.coords.reshape((samples,) + (1,) * k
                                             + (dim,)))

    divisors = [stacked(ring.divisor(j)) for j in range(n)]
    d = [dj * (1.0 / TWO_PI_I) for dj in divisors]
    # e^{-D_j} for the j in I_minus alone: at a large negative eps it may
    # overflow for other j
    exp_neg = {j: algebra_exp(divisors[j] * (-1.0)) for j in iminus}
    one = alg.one()
    logs = [[principal_log(v) for v in x] for x in xs]
    consts = []
    for x in xs:
        branched = functools.reduce(operator.mul, (
            ring.branched_power(v, dj) for v, dj in zip(x, d)))
        for line in lines:
            consts.append((branched * functools.reduce(operator.mul, (
                scalar_power(v, lj) for v, lj in zip(x, line.lprime))))
                .coords)
    # sample, x, line
    consts = np.moveaxis(np.array(consts).reshape(
        len(xs), len(lines), samples, dim), 2, 0)
    # per j: the distinct anchors as floats, and per line the index of
    # its anchor and its step count; for j in I_minus also the distinct
    # classes r = l'_j mod 1, each line's index among them and the pole
    # numerator 1 - e^{-D_j} e^{-2 pi i r} of each class (class,
    # sample).  Exact, on numerators over the lines' common denominator
    den = math.lcm(*(line.den for line in lines))
    anchors, steps, classes, nums = [], [], {}, {}
    for j in range(n):
        col = [line.num[j] * (den // line.den) for line in lines]
        an, m = ladder_anchors(col, den)
        steps.append(m)
        a_vals, a_pos = _slots(an)
        anchors.append((np.array(a_vals) / den + 0j, a_pos))
        if j in iminus:
            r_vals, r_pos = _slots([v % den for v in col])
            classes[j] = (np.array(r_vals) / den + 0j, r_pos)
            nums[j] = np.array([
                (one - exp_neg[j] * unit_phase(Fraction(-r, den))).coords
                for r in r_vals])

    def f(s, keep=None, at=None, ladder=None):
        s = np.asarray(s, dtype=complex)
        keep = list(range(len(lines)) if keep is None else keep)
        at = list(range(len(xs)) if at is None else at)
        # one entry per (eps, x, line), broadcast over the nodes
        lead = (samples, len(at), len(keep)) + (1,) * s.ndim
        # a value that overflows stays inf or NaN without a numpy warning:
        # the quadratures gate the values for finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            # per j: the distinct (anchor, step count) pairs of the kept
            # lines and each kept line's row among them; the anchors of
            # the pairs, each once, and each pair's (slot, depth) request
            ws, picks, rows = [], [], []
            base, at_base, shifts = ladder or (None,) * 3
            for j, (vals, pos) in enumerate(anchors):
                pairs, at_pair = _slots([(pos[i], steps[j][i]) for i in keep])
                used, slots = _slots([a for a, _ in pairs])
                depths = np.array([m for _, m in pairs])
                if ladder is not None and h[j] > 0:
                    ws.append(1 + (vals[used][:, None, None] + base * h[j])
                              .reshape((-1,) + base.shape[1:]))
                    picks.append((np.array(slots)[:, None] * len(base)
                                  + at_base, depths[:, None] + shifts * h[j],
                                  0))
                else:
                    ws.append(1 + (vals[used].reshape((-1,) + (1,) * s.ndim)
                                   + s * h[j]))
                    picks.append((slots, depths, 0))
                # with a pair per kept line, the rows come in line order
                rows.append(slice(None) if len(pairs) == len(keep)
                            else at_pair)
            # (sample, line) + s.shape, one unit axis for the endpoints
            gammas = [g.coords[:, r][:, None] for g, r in zip(
                ring.recip_gamma(ws, d, picks), rows)]
            acc = alg.element(consts[np.ix_(range(samples), at, keep)]
                              .reshape(lead + (dim,))) \
                * (TWO_PI_I / (1.0 - np.exp(-TWO_PI_I * s)))
            for j in iminus:
                vals, pos = classes[j]
                cls = [pos[i] for i in keep]
                e_j = stacked(exp_neg[j], s.ndim)
                poles = {c: algebra_inverse(one - e_j * np.exp(
                    -TWO_PI_I * (vals[c] + s * h[j])))
                    for c in dict.fromkeys(cls)}
                acc = acc * alg.element(np.swapaxes(nums[j][cls], 0, 1)
                                        .reshape((samples, 1) + lead[2:]
                                                 + (dim,))) \
                    * alg.element(np.stack([poles[c].coords for c in cls],
                                           axis=1)[:, None])
            for j in range(n):
                if h[j]:
                    acc = acc * np.array([np.exp(s * h[j] * logs[i][j])
                                          for i in at]).reshape(
                        (len(at), 1) + s.shape)
                acc = acc * alg.element(gammas[j])
        return alg.element(acc.coords.reshape((-1,) + acc.coords.shape[3:]))

    f.arg_y = [y_value(circuit, x)[1] for x in xs]
    # rates for t -> +inf / -inf, per (eps, x)
    f.decay = [(2.0 * math.pi + ay, -ay) for ay in f.arg_y] * samples
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


def _line_sum(alg, block, n, step, rates):
    """Value and diagnostics of one (x, line) block of n line nodes and
    two tail probes; raises its first failing check."""
    nodes = alg.element(block[:n])
    _require_finite(nodes, "line")
    end = alg.element(block[n:])
    _require_finite(end, "tail probes")
    rate_up, rate_dn = rates
    if min(rate_up, rate_dn) <= 0:
        raise TailBoundViolated("arg y outside (-2 pi, 0): no decay")
    tail_up, tail_dn = (float(v) for v in end.norm() / (rate_up, rate_dn))
    if tail_up + tail_dn > TAIL_TOL:
        raise TailBoundViolated(f"measured tails {tail_up:.2e}+{tail_dn:.2e} "
                                f"exceed {TAIL_TOL:.2e}")
    scale = step * (-1.0 / (2.0 * math.pi))
    fine = nodes.sum() * scale
    coarse = alg.element(block[:n:2]).sum() * (2.0 * scale)
    return fine, {"nodes": n, "step": step,
                  "est_error": (fine - coarse).norm(),
                  "tail": tail_up + tail_dn}


def mb_contour_oracle(f, lines, height):
    """Numeric value of each line integral, downward orientation.

    f is the integrand built on lines, a list of Lines on one node grid
    (the same s0 and distance), at one or more endpoints x and on a ring
    of one or more eps samples; one line is a stack of one.  With this
    orientation a line's result equals the right-hand pole sum when |y|
    < 1 and minus the left-hand pole sum when |y| > 1.  The nodes of the
    grid and both tail probes go to one integrand call, and each (eps,
    x, line) sums its own block of it.  The fine level has an even
    number n of nodes t_k = -H + (k + 1/2) h, so no node lies at t = 0
    (a removable point may sit on the line there); the coarse level is
    its even nodes at step 2h.  On a strip of half-width a both levels
    converge geometrically (Trefethen & Weideman, SIAM Review 56, 2014).

    Returns one outcome per (eps, x, line), eps-major, then x: the value
    and a diagnostics dict (the line nodes and the fine step, the error
    estimate |fine - coarse| of the two levels, and the measured tail
    bounds), or the GkzflopError that the entry raises alone.  An
    entry's checks run in this order: a 1/Gamma argument left of Re z =
    GAMMA_RE_MIN (NonFiniteValue) and a grid past MAX_LINE_NODES
    (InfeasibleArgs) refuse a line before anything is evaluated, and so
    does a node within GUARD of its Line.points (PoleProximity,
    Line.near_pole); the integrand call skips the refused lines.  Then
    come the finiteness of the line nodes, then of the probes, the decay
    rates of x and the tail bounds.
    """
    s0, distance = lines[0].s0, lines[0].distance
    # internal: the lines of a stack share one node grid
    assert all(line.s0 == s0 and line.distance == distance
               for line in lines), "lines on different node grids"
    refused = []
    for line in lines:
        low = min(1 + lk + hk * s0
                  for lk, hk in zip(line.lprime, line.circuit.h) if hk)
        refused.append(NonFiniteValue(
            f"1/Gamma overflows on the line Re s = {s0}: an argument has "
            f"Re z = {float(low):.6g} < {GAMMA_RE_MIN}")
            if low < GAMMA_RE_MIN else None)
    n = _line_nodes(height, distance)
    if n > MAX_LINE_NODES:
        cap = InfeasibleArgs(f"a line of half-height {height} at distance "
                             f"{distance} from its nearest pole needs {n} "
                             f"nodes, more than {MAX_LINE_NODES}")
        return [err or cap for _ in f.decay for err in refused]
    step = 2.0 * height / n
    nodes = np.concatenate([s0 + 1j * (-height + (np.arange(n) + 0.5) * step),
                            [complex(s0, height), complex(s0, -height)]])
    rows = [line.near_pole(nodes) for line in lines]
    refused = [err or (_pole_error(nodes, row) if row.any() else None)
               for err, row in zip(refused, rows)]
    keep = [i for i, err in enumerate(refused) if err is None]
    vals = f(nodes, keep) if keep else None
    blocks = iter(() if vals is None else vals.coords)
    out = []
    for rates in f.decay:
        for err in refused:
            if err is not None:
                out.append(err)
                continue
            try:
                out.append(_line_sum(vals.algebra, next(blocks), n, step,
                                     rates))
            except GkzflopError as exc:
                out.append(exc)
    return out


def residue_at(f, line, circles, at=None):
    """Residues of f by small positively oriented circles, in one call.

    f is an integrand built on the stack [line] alone, on a ring of one or
    more eps samples, and at selects the one endpoint to evaluate (default:
    f has one).  circles is a Circles, rows of line.circles or circles of
    their own.  A node within GUARD of the line's Line.points
    (Line.near_pole) raises PoleProximity for the first such node before
    anything is evaluated.  Every circle's _CIRCLE_NODES nodes go to one
    integrand call, so to one kernel call: the nodes themselves for the
    factors 1/Gamma with h_j <= 0, and for those with h_j > 0 the nodes of
    each class's anchor circle, once per class, laddered down by the
    circle's shift.  So a circle's value depends on its eps and the circle
    alone, whatever the other circles of the call.  The result is a batch
    with one row per (eps, circle), eps-major.  Each circle sums its own
    nodes as one circle at one eps alone would, in one reduction over the
    (eps, circles, nodes, dim) array.  A non-finite node makes its circle's
    residue non-finite; the caller checks the rows it uses.
    """
    unit = np.exp(TWO_PI_I * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES)
    z = unit * circles.radii[:, None]
    nodes = np.asarray(circles.centers, dtype=complex)[:, None] + z
    row = line.near_pole(nodes.reshape(-1))
    if row.any():
        raise _pole_error(nodes.reshape(-1), row)
    # the classes of the call: (anchor, radius) pairs, first seen first
    tops, slots = _slots(zip(circles.anchors.tolist(),
                             circles.radii.tolist()))
    top, radius = np.array(tops).reshape(-1, 2).T
    base = top.astype(complex)[:, None] + unit * radius[:, None]
    vals = f(nodes, at=at, ladder=(base, np.array(slots, dtype=int),
                                   circles.shifts))
    alg = vals.algebra
    # a non-finite node value stays inf or NaN without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = vals.coords.reshape(-1, len(circles), _CIRCLE_NODES,
                                     alg.dim) * z[..., None]
        sums = blocks.sum(axis=2) * (1.0 / _CIRCLE_NODES)
    return alg.element(sums.reshape(-1, alg.dim))


def orbit_sum(x, line, ring, m_from, m_to):
    """Plain sum of the h-orbit terms m_from <= m <= m_to, one batch: on
    a stacked ring, one sum per sample, each the bits of that sample."""
    return sum_rows(term_values(x, line.orbit(m_from, m_to), line.den,
                                ring))


def left_residue_sum(f, line, at=None):
    """Sum of all residues of f left of the line, by line.circles, per eps.

    f is the integrand built on the stack [line] alone, on a ring of one
    or more eps samples, and at selects the endpoint whose residues are
    summed (default: f has one); residue_at reads one block per eps.
    The circles go right to left in rounds of _ROUND, then _ROUND_MAX,
    _ROUND_MAX, ... circles, one residue_at call each, while any eps is
    still summing.  A circle's residue does not depend on the round that
    evaluates it: its factors with h_j > 0 are laddered down from its
    class's anchor circle (residue_at), which need not share its round.
    Each eps adds its residues one circle at a time and
    stops after three in a row under STOP of its sum, the circle where
    it would stop alone; the rest of its rows are dropped unchecked.
    Returns one outcome per eps: its sum, or the NonFiniteValue of the
    first circle it sums that is not finite.  An error of residue_at
    (its node guard) is raised, for the stack as for one eps.
    """
    circles = line.circles
    # per eps, from the first round on: its sum and its run of small
    # residues, 3 once it has stopped (an error stops it too)
    sums = small = None
    start, size = 0, _ROUND
    while start < len(circles):
        stop = start + size
        batch = residue_at(f, line, circles[start:stop], at)
        alg = batch.algebra
        rows = batch.coords.reshape(-1, len(circles[start:stop]), alg.dim)
        if sums is None:
            sums, small = [None] * len(rows), [0] * len(rows)
        for i, block in enumerate(rows):
            for row in block:
                if small[i] == 3:
                    break
                val = alg.element(row)
                try:
                    _require_finite(val, "residue circle")
                except NonFiniteValue as exc:
                    sums[i], small[i] = exc, 3
                    break
                sums[i] = val if sums[i] is None else sums[i] + val
                small[i] = small[i] + 1 \
                    if val.norm() < STOP * max(sums[i].norm(), 1.0) else 0
        if min(small) == 3:
            break
        start, size = stop, _ROUND_MAX
    return sums


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
    one = ring.algebra.one()
    dk = ring.divisor(k)
    num = one - algebra_exp(dk * (-1.0)) * unit_phase(-gamma.coords[k])
    den = (one - algebra_exp(dk * (1.0 / hk)) * unit_phase(-theta)) * hk
    acc = num * algebra_inverse(den)
    for j in sorted(circuit.I_minus):
        if j == k:
            continue
        dj = ring.divisor(j)
        delta = dj - dk * (h[j] / hk)
        numj = one - algebra_exp(dj * (-1.0)) * unit_phase(-gamma.coords[j])
        denj = one - algebra_exp(delta * (-1.0)) * unit_phase(-coords2[j])
        acc = acc * numj * algebra_inverse(denj)
    return acc


# -- transform matrices -------------------------------------------------


@dataclass
class TransformMatrix:
    """Entries indexed by WallContext.rows (target) and .cols (source).

    A sampled transform has its entries alone.  An eps^0 transform
    (undeformed_transforms) also carries the circle it was read from:
    its radius rho, its number of samples, and deform.circle_read's
    principal ratio and nested estimate.
    """

    entries: np.ndarray
    principal_ratio: float = 0.0
    rho: float = None
    samples: int = None
    nested_error: float = None

    @property
    def undeformed_pass(self):
        """The eps^0 gate: principal ratio and nested estimate (NaN
        fails) under EPS0_TOL."""
        return nan_max(self.principal_ratio, self.nested_error) < EPS0_TOL


def separating_offsets(h):
    """The deformation offsets a of the crossing with circuit h.

    For each j in order, a_j is the smallest integer a >= j not used
    yet such that, where h_j < 0, a is nonzero and a / h_j differs from
    a_i / h_i for every earlier i with h_i < 0: the negative side's
    poles then part at eps != 0, and circle_radius's denominators are
    nonzero.  Where 0, ..., n-1 meet these conditions, they are the
    offsets.
    """
    offsets, ratios = [], set()
    for j, hj in enumerate(h):
        a = j
        while a in offsets or (hj < 0 and (a == 0
                                           or Fraction(a, hj) in ratios)):
            a += 1
        offsets.append(a)
        if hj < 0:
            ratios.add(Fraction(a, hj))
    return tuple(map(Fraction, offsets))


class WallContext:
    """Everything about one wall crossing that does not depend on eps.

    A command builds one context per crossing and drops it when it
    returns.  The context holds the two chambers `plus` and `minus`
    (rings.Chamber: the box and the sector algebras of each
    triangulation), the deformation offsets that separate the circuit's
    poles (separating_offsets), the essential sectors of the plus side,
    the row and column index of the transform, and for each essential
    plus sector the angular data (theta, coords2) of its poles (k, r) by
    both residue routes.  The monomial basis is found on first use, so
    a command that assembles no transform never searches for it.  The
    DeformationRings of a side at one eps or one stack of samples are
    built once, by `rings`, and shared by every function that takes it.
    The minus side's localization matrix at one eps or stack is built
    once, by `localization`, for both routes; the rest of what depends
    on eps is built by those functions.
    """

    def __init__(self, circuit, plus, minus):
        data = plus.data
        self.circuit = circuit
        self.plus = plus
        self.minus = minus
        self.offsets = separating_offsets(circuit.h)
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
        self._rings, self._localization = {}, {}

    @functools.cached_property
    def monomials(self):
        """The Laurent exponents that index the transform's columns."""
        return monomial_basis(self)

    def rings(self, chamber, eps):
        """The DeformationRing of every sector of chamber at eps.

        Built once per side and eps (a tuple: a stack), keyed by eps as
        the ring reads it, its sign of zero included.
        """
        # internal: a context serves its own two chambers
        assert chamber is self.plus or chamber is self.minus
        side = (chamber is self.plus, _eps_key(eps))
        if side not in self._rings:
            self._rings[side] = {key: DeformationRing(alg, self.offsets,
                                                      eps=eps)
                                 for key, alg in chamber.algebras.items()}
        return self._rings[side]

    def localization(self, eps):
        """The minus side's localization matrix of the monomials at eps.

        Built once per eps (keyed as rings keys it) and monomial basis,
        and shared by both residue routes.
        """
        key = (_eps_key(eps), self.monomials)
        if key not in self._localization:
            self._localization[key] = localization_matrix(
                self.minus, self.rings(self.minus, eps), self.monomials)
        return self._localization[key]


def _eps_key(eps):
    """eps as a dict key: one sample or a tuple, its bits (the sign of
    zero included) and its shape."""
    eps = np.asarray(eps, dtype=complex)
    return eps.shape, eps.tobytes()


def _localization_values(ring, coords, mons):
    """Values of the Laurent monomials R^b at r_j = e^{D~_j + 2 pi i g_j}.

    One batch row per exponent b of mons (after a stack's sample axis):
    one batched algebra_exp of the sums sum_j b_j D~_j, times the exact
    phase e^{2 pi i b.g} of each b.
    """
    alg = ring.algebra
    b = np.array(mons, dtype=float).reshape(len(mons), alg.data.n)
    combo = np.zeros((len(mons), alg.dim), dtype=complex)
    for j in range(alg.data.n):
        combo = combo + b[:, j, None] * ring.divisor(j).coords[..., None, :]
    # b.g exactly, over the common denominator of the sector coordinates
    den = math.lcm(*(g.denominator for g in coords))
    nums = [int(g * den) for g in coords]
    phases = np.array([unit_phase(Fraction(sum(bj * nj for bj, nj
                                               in zip(bb, nums)), den))
                       for bb in mons], dtype=complex)
    return algebra_exp(alg.element(combo)) * phases


def localization_matrix(chamber, rings, mons):
    """Localization values of the monomials R^b, a row per b (per sample)."""
    return np.concatenate([_localization_values(rings[g.key()], g.coords,
                                                mons).coords
                           for g in chamber.box], axis=-1)


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
    """Per-sector values as one flat vector (per sample), in box order."""
    return np.concatenate([per_sector[g.key()].coords for g in chamber.box],
                          axis=-1)


# a value that overflows stays inf or NaN without a numpy warning: the
# rcond and eps^0 gates fail on it
@np.errstate(over="ignore", invalid="ignore")
def _transform(wall, eps, route):
    """Shared assembly for both residue routes: one matrix per sample of
    the tuple eps, as one stack."""
    circuit, plus = wall.circuit, wall.plus
    h = circuit.h
    mons = wall.monomials
    rings_plus = wall.rings(plus, eps)
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
    for i, b in enumerate(mons):
        values = {}
        for g in plus.box:
            key = g.key()
            ring = rings_plus[key]
            if key not in residues:
                values[key] = ring.algebra.element(local[key][..., i, :])
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
                    val = phase if combo is None \
                        else algebra_exp(combo) * phase
                else:
                    pk = algebra_exp(ring.divisor(k) * (1.0 / (-h[k]))) \
                        * unit_phase(Fraction(g.coords[k] + r, -h[k]))
                    val = None      # the empty product, at b = 0
                    for j, bj in enumerate(b):
                        if bj == 0:
                            continue
                        rj = algebra_exp(ring.divisor(j)) \
                            * unit_phase(g.coords[j])
                        factor = rj * ring.power(pk, h[j]) if h[j] else rj
                        power = ring.power(factor, bj)
                        val = power if val is None else val * power
                contrib = c_kr if val is None else c_kr * val
                acc = contrib if acc is None else acc + contrib
            values[key] = acc * (-1.0)
        raw_cols.append(_stack(plus, values))
    cols = np.stack(raw_cols, axis=-2)      # sample, monomial, row
    inv = np.linalg.inv(np.swapaxes(wall.localization(eps), -1, -2))
    return [TransformMatrix(c.T @ m) for c, m in zip(cols, inv)]


def invertibility(entries):
    """|det| and rcond = sigma_min / sigma_max of a transform, and the gate.

    The gate reads rcond > RCOND_MIN, which does not depend on the scale
    of the monomial basis that |det| carries.  Non-finite entries give
    rcond NaN, which fails; a det that overflows reads inf or NaN
    without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
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


def sampled_transforms(wall, samples, routes):
    """Each route's transforms at the samples, one stack per route; if a
    stack raises, raise what the samples raise alone, route by route."""
    try:
        return [route(wall, tuple(samples)) for route in routes]
    except GkzflopError:
        for eps in samples:
            for route in routes:
                route(wall, (eps,))
        raise


def _gap(q):
    """Distance from the rational q to the nearest other integer."""
    q = Fraction(q) % 1
    return min(q, 1 - q) if q else Fraction(1)


def circle_radius(wall):
    """The radius rho = min(CIRCLE_RHO, R / 3) of the eps^0 circle.

    R is the smallest nonzero |eps| where the scalar part of a
    denominator of coefficient_C vanishes, over every essential plus
    sector, pole (k, r) and route's angles (theta, coords2): den_k at
    eps = 2 pi i h_k (theta + m) / a_k and den_j at eps = 2 pi i (m -
    coords2_j) / (a_j - a_k h_j / h_k), m any integer, a the offsets.
    separating_offsets keeps a_k and a_j - a_k h_j / h_k nonzero.
    """
    h, a = wall.circuit.h, wall.offsets
    near = math.inf
    for poles in wall.poles.values():
        for k, _, angles in poles:
            for theta, coords2 in angles.values():
                near = min(near, abs(h[k]) * _gap(theta) / abs(a[k]))
                for j in wall.circuit.I_minus - {k}:
                    near = min(near, _gap(coords2[j])
                               / abs(a[j] - a[k] * Fraction(h[j], h[k])))
    return min(CIRCLE_RHO, 2 * math.pi * float(near) / 3)


def undeformed_transforms(wall, samples, routes):
    """Each route's transforms at the samples and its eps^0 transform.

    The circle(rho, CIRCLE_NODES) samples (rho = circle_radius) go after
    the samples into one stack per route (sampled_transforms), and each
    route's eps^0 transform is read off its circle rows (circle_read).
    While a route's nested estimate exceeds CIRCLE_RTOL and the circle
    has fewer than CIRCLE_MAX samples, the circle doubles: a new stack of
    the circle alone.  Returns, per route, the list of its transforms at
    the samples and its eps^0 TransformMatrix.
    """
    samples = tuple(samples)
    rho, k = circle_radius(wall), CIRCLE_NODES
    stacks = sampled_transforms(wall, samples + circle(rho, k), routes)
    sampled = [stack[:len(samples)] for stack in stacks]
    rows = [stack[len(samples):] for stack in stacks]
    while True:
        limits = []
        for stack in rows:
            value, principal, nested = circle_read(
                np.array([m.entries for m in stack]), circle(rho, k),
                wall.plus.data.n)
            limits.append(TransformMatrix(value, principal, rho, k, nested))
        if k >= CIRCLE_MAX or not any(m.nested_error > CIRCLE_RTOL
                                      for m in limits):
            return list(zip(sampled, limits))
        k *= 2
        rows = sampled_transforms(wall, circle(rho, k), routes)


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
        factor = functools.reduce(operator.mul, (
            1.0 - ring.algebra.element(rj)
            for rj in _localization_values(ring, g.coords, units).coords))
        local = _localization_values(ring, g.coords, mons)
        # an algebra of dimension 1 holds numbers: R^b is its value alone
        out.append((factor * local.coords[:, 0] if local.algebra.dim == 1
                    else local * factor).coords)
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


def _result(outcome):
    """An outcome (of mb_contour_oracle, left_residue_sum or a Line
    build): raised if it is an error, else returned."""
    if isinstance(outcome, GkzflopError):
        raise outcome
    return outcome


def _line_values(x, rings, lines, height):
    """Value, diagnostics and left orbit terms of every (sector key, Line).

    lines is in battery order, and its last entry may hold, in place of
    a Line, the GkzflopError that building the lines raised there.  The
    lines of one sector on one node grid (s0 and distance) are evaluated
    as stacks: one integrand and one mb_contour_oracle call per stack,
    at most _stack_size lines each.  The orbit terms are those left of
    the line, l' + m h for -M_BACK <= m < first_right.  Then each line
    in battery order is built, integrated and split, and the first
    failure is raised: what the first failing line raises alone.
    """
    grids = {}
    for i, (key, line) in enumerate(lines):
        if not isinstance(line, GkzflopError):
            grids.setdefault((key, line.s0, line.distance), []).append(i)
    out = [None] * len(lines)
    for (key, _, distance), rows in grids.items():
        size = _stack_size(height, distance)
        for start in range(0, len(rows), size):
            part = rows[start:start + size]
            stack = [lines[i][1] for i in part]
            f = make_integrand([x], stack, rings[key])
            for i, res in zip(part, mb_contour_oracle(f, stack, height)):
                out[i] = res
    values = []
    for (_, line), res in zip(lines, out):
        _result(line)
        q, dg = _result(res)
        values.append((q, dg, line.orbit(-M_BACK, line.first_right - 1)))
    return values


def continued_vector(wall, rings, battery, x, policy, spec):
    """Far-side values of the near-side solutions, one per c.

    Essential families are continued orbit-by-orbit from their
    generators: the line integral of the generator plus its orbit terms
    left of the line, the analytic continuation of the near-side orbit
    sum.  Non-essential leftovers (a1 and conifold have none; points
    outside the circuit can give some) are summed directly.  The terms
    of each plus sector are enumerated for the whole battery at once,
    then every Line of the battery is built, then the lines of each plus
    sector are evaluated as one stack per node grid (_line_values).  The
    first failing step in battery order decides the error, as if each c
    ran alone: an error while the lines are built ends the list of
    lines, and is raised unless a line before it fails.  (Enumerating
    raises only where canonical_lift finds no lift, which a validated
    fixture always has.)  Per plus sector, the orbit terms and leftovers
    of every c are one term_values batch, and each c adds its own rows in
    term order.  Returns, per c, the stacked vector and the worst
    est_error, total nodes and largest |value| (line_signal) of its
    lines.
    """
    circuit, plus = wall.circuit, wall.plus
    plans, lines = [], []
    try:
        terms = {g.key(): enumerate_terms(plus.data, plus.t, battery, g,
                                          policy, circuit)
                 for g in plus.box}
        for i, _ in enumerate(battery):
            plans.append({})
            for g in plus.box:
                parts = plans[-1][g.key()] = []
                for term in terms[g.key()][i]:
                    if term.generator:
                        line = Line(term.l, circuit, spec.s0)
                        lines.append((g.key(), line))
                        parts.append(line)
                    elif not term.essential:
                        parts.append(term)
    except GkzflopError as err:
        lines.append((None, err))
    values = iter(_line_values(x, rings, lines, spec.height))
    ls = {g.key(): [] for g in plus.box}
    dens = dict.fromkeys(ls, 1)
    layouts = []
    for plan in plans:
        layout, diag = {}, {"est_error": 0.0, "nodes": 0, "line_signal": 0.0}
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
                    diag["line_signal"] = nan_max(diag["line_signal"],
                                                  q.norm())
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
            acc = rings[key].algebra.zero()
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
    bounds the terms searched for orbit generators.  The samples of
    eps_values are one stack (_oracle_checks): one ring, and per
    generator one Line and one integrand on that line at both endpoints
    and every eps.  Only c = 0 is checked, whatever the battery depth.
    The checks come in (eps, sector, generator) order, a generator's in
    the order near quadrature, right orbit sum, far quadrature, left
    residue sum, and the first failure is raised.  A failure of one
    sample's own outcome is raised as the walk meets it, which is what
    the first failing sample raises alone; only an error of the stack
    as a whole is read again sample by sample, raising what the
    samples raise alone.  An
    essential plus sector with no generator within policy contributes no
    check: the report fails and names it under unchecked_sectors.
    """
    data, t_plus = plus.data, plus.t
    path = select_endpoints(circuit, amplitude, y_abs)
    c = (0,) * data.rank
    wall = WallContext(circuit, plus, minus)
    generators = {}      # they do not depend on eps: found once
    for g in plus.box:
        if g.key() in wall.essential_plus:
            [terms] = enumerate_terms(data, t_plus, [c], g, policy, circuit)
            generators[g.key()] = [term.l for term in terms if term.generator]
    eps_values, lines = tuple(eps_values), {}
    checks = _oracle_checks(wall, path, generators, lines, eps_values, spec)
    if isinstance(checks, GkzflopError):
        if len(eps_values) > 1:
            for eps in eps_values:
                _result(_oracle_checks(wall, path, generators, lines,
                                       (eps,), spec))
        raise checks
    unchecked = [sector_label(key) for key, lps in generators.items()
                 if not lps]
    report = {"kind": "contour-oracle",
              "y_abs": [path.y_abs_plus, path.y_abs_minus], "checks": checks,
              "pass": not unchecked and all(
                  c["right_pass"] and c["left_pass"] for c in checks)}
    if unchecked:
        report["unchecked_sectors"] = unchecked
    return report


def _oracle_checks(wall, path, generators, lines, eps, spec):
    """oracle_report's checks at the tuple of samples eps, as one stack.

    First, per generator: its Line (kept in lines, at its first use), one
    integrand at both endpoints on the stacked ring, one
    mb_contour_oracle call (an outcome per (eps, endpoint)), one right
    orbit sum (a sum per eps, from one term_values batch) and one
    left_residue_sum (an outcome per eps), made only if the quadratures
    of some eps both give a value.  Then each eps walks the generators
    in order: near quadrature, right orbit sum, far quadrature, left
    residue sum, raising the first failure of its own: an outcome or
    the generator's Line, the same for every sample.  An error of the
    stack as a whole (the stacked ring, a generator's integrand,
    quadrature call or right orbit sum, its residue sum as a whole) is
    returned where the walk meets it, for oracle_report to read sample
    by sample; the checks are returned if none fails.  For one eps that
    is its order of checks alone.
    """
    circuit = wall.circuit
    try:
        rings = wall.rings(wall.plus, eps)
    except GkzflopError as exc:
        return exc
    # per generator: its Line's error, or (line, quadratures, right
    # sums, residue sums), an error of the stack in place of the last 3
    sides = {}
    for key, lps in generators.items():
        for lp in lps:
            try:
                if lp not in lines:
                    lines[lp] = Line(lp, circuit, spec.s0)
            except GkzflopError as exc:
                sides[key, lp] = exc
                continue
            line = lines[lp]
            try:
                f = make_integrand([path.x_plus, path.x_minus], [line],
                                   rings[key])
                quads = mb_contour_oracle(f, [line], spec.height)
            except GkzflopError as exc:
                sides[key, lp] = line, exc, None, None
                continue
            try:
                right = orbit_sum(path.x_plus, line, rings[key],
                                  line.first_right, M_MAX)
            except GkzflopError as exc:
                right = exc
            # the residues are summed only if some eps reaches them: its
            # near and far quadratures both give a value
            left = None
            if any(not isinstance(near, GkzflopError)
                   and not isinstance(far, GkzflopError)
                   for near, far in zip(quads[::2], quads[1::2])):
                try:
                    left = left_residue_sum(f, line, at=[1])
                except GkzflopError as exc:
                    left = exc
            sides[key, lp] = line, quads, right, left
    checks = []
    for i, e in enumerate(eps):
        for key, lps in generators.items():
            for lp in lps:
                line, quads, right, left = _result(sides[key, lp])
                if isinstance(quads, GkzflopError):
                    return quads
                q_p, dg_p = _result(quads[2 * i])
                if isinstance(right, GkzflopError):
                    return right
                dev_r, _ = _deviation(q_p.coords, right.coords[i])
                q_m, dg_m = _result(quads[2 * i + 1])
                if isinstance(left, GkzflopError):
                    return left
                dev_l, _ = _deviation(q_m.coords, -_result(left[i]).coords)
                # each side passes only with its line's quadrature error
                # under the same tolerance as its deviation
                err_r = dg_p["est_error"] / max(q_p.norm(), 1.0)
                err_l = dg_m["est_error"] / max(q_m.norm(), 1.0)
                checks.append({
                    "eps": e, "sector": sector_label(key),
                    "c": [0] * wall.plus.data.rank,
                    "lprime": [str(v) for v in lp],
                    "right_dev": dev_r, "left_dev": dev_l,
                    "right_pass": nan_max(dev_r, err_r) < 1e-7,
                    "left_pass": nan_max(dev_l, err_l) < 1e-6,
                    "est_error": nan_max(dg_p["est_error"],
                                         dg_m["est_error"]),
                    "nodes": [dg_p["nodes"], dg_m["nodes"]]})
    return checks


def _deviation(got, ref):
    """Largest |got - ref| over max(|ref|, 1), and that scale."""
    scale = max(np.abs(ref).max(), 1.0)
    return float(np.abs(got - ref).max() / scale), scale


def verify_fm_equals_ac(circuit, plus, minus, eps_samples, depth, y_abs,
                        amplitude, policy, spec):
    """The crossing battery: matrix, laurent, end_to_end and invariance.

    plus and minus are the Chambers of the two triangulations; one wall
    context over them serves every eps below.  `matrix` compares the two
    routes at the real samples, and `laurent` their eps^0 transforms,
    read off one circle of complex samples (undeformed_transforms): each
    route's pole part and nested estimate, and the two routes' deviation
    under the `matrix` gate's 1e-10 (NaN fails).
    `invariance` checks that the transform fixes R^b prod_{j in J} (1 -
    R_j), b over its monomials and J the first smallest index set in no
    essential cone of either side.  Returns a report dict; raises nothing
    on mere check failure (the caller decides), but propagates
    structural errors.
    """
    data, t_plus, t_minus = plus.data, plus.t, minus.t
    path = select_endpoints(circuit, amplitude, y_abs)
    report = {"kind": "fm-vs-ac", "fixture": {"plus": t_plus.label,
                                              "minus": t_minus.label},
              "eps_samples": list(eps_samples)}
    wall = WallContext(circuit, plus, minus)

    (acs, ac0), (fms, fm0) = undeformed_transforms(
        wall, eps_samples, (ac_transform, fm_transform))
    samples = []
    for eps, ac, fm in zip(eps_samples, acs, fms):
        dev, _ = _deviation(ac.entries, fm.entries)
        sizes, invertible = invertibility(fm.entries)
        samples.append({"eps": eps, "matrix_dev": dev, **sizes,
                        "pass": dev < 1e-10 and invertible})
    report["matrix"] = {"samples": samples,
                        "pass": all(s["pass"] for s in samples)}

    dev0, _ = _deviation(ac0.entries, fm0.entries)
    report["laurent"] = {
        "principal_ratio": nan_max(ac0.principal_ratio, fm0.principal_ratio),
        "matrix_dev": dev0,
        "entries": [[[v.real, v.imag] for v in row]
                    for row in fm0.entries],
        "rho": fm0.rho, "samples": fm0.samples,
        "nested_error": nan_max(ac0.nested_error, fm0.nested_error),
        "pass": ac0.undeformed_pass and fm0.undeformed_pass
        and dev0 < 1e-10}

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
                     "line_signal": diag["line_signal"],
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
