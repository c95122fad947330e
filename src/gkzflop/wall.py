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

The end-to-end check of verify_fm_equals_ac runs over a battery of
lattice points c at eps = 0 and evaluates it as a whole: one set of
rings per side, one line integral per orbit generator, and one series
batch (series.term_values) per sector and side for every c at once
(continued_vector, gamma_vector).  Each c sums only its own rows, in
term order, so its values do not depend on the rest of the battery.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import InfeasibleArgs, LocalizationRankDeficient, \
    NonFiniteValue, PoleOnContour, PoleProximity, PoleRightOfLine, \
    TailBoundViolated
from .toric import canonical_lift, adjacent_sector, essential_sectors, \
    sector_label
from .deform import DeformationRing, TWO_PI_I, unit_phase, principal_log
from .rings import algebra_exp
from .series import TruncationPolicy, enumerate_terms, term_values, \
    sum_rows, scalar_power, nan_max


# A line pass is one trapezoid rule at half-step offsets; its even nodes
# form the coarse level.  The coarse step h2 solves e^(-2 pi a / h2) =
# e^(-LINE_EXPONENT), about 2e-16, for the distance a from the line to its
# nearest pole, and the fine step is h2 / 2.  A line that would need more
# than MAX_LINE_NODES nodes (a half-height in the hundreds) is refused.
# Tails stay under TAIL_TOL.  A line keeps CLEARANCE from the poles, a node
# GUARD from every model point.  Left residues reach MAX_DEPTH below the
# line and stop after three in a row under STOP of their sum.  Orbit terms
# are restored from -M_BACK; the right pole sum ends at M_MAX.
LINE_EXPONENT, MAX_LINE_NODES, TAIL_TOL = 36, 2 ** 16, 1e-9
CLEARANCE, GUARD = 0.15, 1e-7
MAX_DEPTH, STOP = 40, 1e-13
M_BACK, M_MAX = 25, 30
INVARIANCE_SEED, INVARIANCE_CLASSES = 7, 20   # random classes, invariance
RCOND_MIN = 1e-8     # smallest sigma_min / sigma_max of a sampled transform


# -- path and endpoints -------------------------------------------------


@dataclass(frozen=True)
class PathSpec:
    """Endpoints on the two sides of the wall, sharing their arguments."""

    x_plus: tuple
    x_minus: tuple
    amplitude: float
    y_abs_plus: float
    y_abs_minus: float
    arg_y: float


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
    amplitude of None puts the far endpoint at |y| = 1 / y_abs.
    """
    if not 0.0 < y_abs < 1.0:
        raise InfeasibleArgs("target |y| must lie strictly inside (0, 1)")
    h = circuit.h
    h2 = sum(v * v for v in h)
    if amplitude is None:
        amplitude = math.log(1.0 / y_abs ** 2) / h2
    if amplitude <= 0.0:
        raise InfeasibleArgs("amplitude must be positive")
    hm = sum(-h[j] for j in circuit.I_minus)
    delta = math.pi * (hm - 1) / h2
    args = [delta * v for v in h]
    if any(abs(a) >= math.pi for a in args):
        raise InfeasibleArgs("argument tilt leaves the principal range")
    base = math.log(y_abs) / h2
    x_plus = tuple(cmath.exp(base * v + 1j * a) for v, a in zip(h, args))
    x_minus = tuple(v * math.exp(amplitude * hj)
                    for v, hj in zip(x_plus, h))
    y_minus = y_abs * math.exp(amplitude * h2)
    if y_minus <= 1.0:
        raise InfeasibleArgs("amplitude too small to cross |y| = 1")
    _, ay = y_value(circuit, x_plus)
    assert abs(ay + math.pi) < 1e-9
    return PathSpec(x_plus=x_plus, x_minus=x_minus, amplitude=amplitude,
                    y_abs_plus=y_abs, y_abs_minus=y_minus, arg_y=-math.pi)


# -- pole model ---------------------------------------------------------


def pole_model(lprime, circuit, lo, hi):
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


def _ratio_poles_above(lprime, circuit, lo):
    top = max(abs(Fraction(v)) for v in lprime)
    return [p for p, kind in pole_model(lprime, circuit, lo, top)
            if kind == "ratio"]


def place_line(lprime, circuit, s0):
    """Abscissa of the integration line for one generator.

    s0 None asks for the smallest half-integer >= 1/2 right of every
    ratio-factor pole.  A line closer than CLEARANCE to a pole (removable
    points do not count) moves by +0.25, else by -0.25, else fails.
    """
    if s0 is None:
        poles = _ratio_poles_above(lprime, circuit, 0)
        s0 = math.floor(poles[-1] + Fraction(1, 2)) + 0.5 if poles else 0.5
    s0 = float(s0)
    for cand in (s0, s0 + 0.25, s0 - 0.25):
        near = pole_model(lprime, circuit, cand - 1, cand + 1)
        if all(kind == "removable" or abs(cand - float(loc)) >= CLEARANCE
               for loc, kind in near):
            return cand
    raise PoleOnContour(f"no clear line near Re s = {s0}")


def first_right(lprime, circuit, s0):
    """First orbit index right of the line Re s = s0.

    The orbit splits there into restored terms and the line integral,
    which holds only with every ratio-factor pole left of the line.
    """
    poles = _ratio_poles_above(lprime, circuit, s0)
    if poles:
        raise PoleRightOfLine(f"the line Re s = {s0} has ratio-factor poles "
                              f"on its right, the largest at s = {poles[-1]}")
    return math.floor(s0) + 1


# -- the integrand ------------------------------------------------------


def make_integrand(x, lprime, circuit, ring):
    """Closure evaluating I(s) with the s-independent parts hoisted out.

    The closure takes one node s or an array of nodes and returns one
    element, or a batch with one row per node.  The ring must be in
    numeric mode (a concrete eps): series-mode values are not batched.
    A node closer than GUARD to any point of the pole model, removable
    points included, raises PoleProximity.
    """
    if ring.laurent:
        raise InfeasibleArgs("the line integrand needs a sampled eps")
    x = tuple(complex(v) for v in x)
    n = len(x)
    iminus = sorted(circuit.I_minus)
    h = circuit.h
    lp = [complex(v) for v in lprime]
    d = [ring.divisor(j) * (1.0 / TWO_PI_I) for j in range(n)]
    div = [ring.divisor(j) for j in range(n)]
    one = ring.one()
    exp_neg = {j: ring.exp(div[j] * (-1.0)) for j in iminus}
    nums = {j: one - exp_neg[j] * unit_phase(-lprime[j]) for j in iminus}
    bp = [ring.branched_power(x[j], d[j]) for j in range(n)]
    logx = [principal_log(x[j]) for j in range(n)]
    const = ring.one()
    for j in range(n):
        const = const * bp[j] * scalar_power(x[j], lprime[j])
    ay = sum(hv * lg.imag for hv, lg in zip(h, logx)) \
        + math.pi * sum(h[j] for j in iminus)

    def f(s):
        s = np.asarray(s, dtype=complex)
        # only points within GUARD of Re s can lie within GUARD of s
        near = pole_model(lprime, circuit, s.real.min() - GUARD,
                          s.real.max() + GUARD)
        hit = np.abs(s[..., None] - [float(p) for p, _ in near]) < GUARD
        if hit.any():
            raise PoleProximity(f"s = {complex(s[hit.any(-1)].flat[0])} too "
                                f"close to a pole")
        acc = const * (TWO_PI_I / (1.0 - np.exp(-TWO_PI_I * s)))
        for j in iminus:
            den = one - exp_neg[j] * np.exp(-TWO_PI_I * (lp[j] + s * h[j]))
            acc = acc * nums[j] * ring.inv(den)
        e = np.stack([lp[j] + s * h[j] for j in range(n)])
        gammas = ring.recip_gamma(e, d)    # one kernel call for every j
        for j in range(n):
            if h[j]:
                acc = acc * np.exp(e[j] * logx[j] - lp[j] * logx[j])
            acc = acc * gammas[j]
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


def pole_distance(lprime, circuit, s0):
    """Distance from the line Re s = s0 to its nearest pole.

    Removable points do not count; an integer point always lies within
    1/2, so the search stops one unit either side.
    """
    return float(min(abs(Fraction(s0) - loc) for loc, kind
                     in pole_model(lprime, circuit, s0 - 1, s0 + 1)
                     if kind != "removable"))


def _line_quadrature(f, s0, height, a, probes=()):
    """Nested trapezoid levels on the line, all nodes in one integrand call.

    The fine level has an even number n of nodes t_k = -H + (k + 1/2) h,
    so no node lies at t = 0 (a removable point may sit on the line
    there); the coarse level is its even nodes at step 2h.  On a strip
    of half-width a both levels converge geometrically (Trefethen &
    Weideman, SIAM Review 56, 2014).  The points of probes are evaluated
    in the same call.  Returns the fine and coarse values, the integrand
    values (the n nodes, then the probes) and the fine step.
    """
    n = 2 * math.ceil(height * LINE_EXPONENT / (math.pi * a))
    if n > MAX_LINE_NODES:
        raise InfeasibleArgs(f"a line of half-height {height} at distance "
                             f"{a} from its nearest pole needs {n} nodes, "
                             f"more than {MAX_LINE_NODES}")
    step = 2.0 * height / n
    vals = f(np.concatenate([s0 + 1j * (-height + (np.arange(n) + 0.5)
                                         * step), probes]))
    line = vals.algebra.element(vals.coords[:n])
    scale = step * (-1.0 / (2.0 * math.pi))
    coarse = vals.algebra.element(line.coords[::2]).sum() * (2.0 * scale)
    return line.sum() * scale, coarse, vals, step


def mb_contour_oracle(x, lprime, circuit, ring, spec=None):
    """Numeric value of the line integral, downward orientation.

    With this orientation the result equals the right-hand pole sum when
    |y| < 1 and minus the left-hand pole sum when |y| > 1.  Returns the
    value and a diagnostics dict: the placed abscissa s0, the line nodes
    and the fine step, the error estimate |fine - coarse| of the two
    trapezoid levels, and the measured tail bounds.  The two tail probes
    at the ends of the line share the line's one integrand call.
    """
    spec = spec or ContourSpec()
    s0 = place_line(lprime, circuit, spec.s0)
    f = make_integrand(x, lprime, circuit, ring)
    a = pole_distance(lprime, circuit, s0)
    probes = np.array([complex(s0, spec.height), complex(s0, -spec.height)])
    fine, coarse, vals, step = _line_quadrature(f, s0, spec.height, a,
                                                probes)
    nodes = len(vals.coords) - len(probes)
    line = vals.algebra.element(vals.coords[:nodes])
    ends = vals.algebra.element(vals.coords[nodes:])
    rate_up, rate_dn = f.decay
    if min(rate_up, rate_dn) <= 0:
        raise TailBoundViolated("arg y outside (-2 pi, 0): no decay")
    tail_up, tail_dn = (float(v) for v in ends.norm() / (rate_up, rate_dn))
    if tail_up + tail_dn > TAIL_TOL:
        raise TailBoundViolated(
            f"measured tails {tail_up:.2e}+{tail_dn:.2e} "
            f"exceed {TAIL_TOL:.2e}")
    _require_finite(line, "line")
    _require_finite(ends, "tail probes")
    return fine, {"s0": s0, "nodes": nodes, "step": step,
                  "est_error": (fine - coarse).norm(),
                  "tail": tail_up + tail_dn}


def residue_at(x, lprime, circuit, ring, center, radius=0.25, nodes=64,
               f=None):
    """Residue by a small positively oriented circle, in one batched call.

    f is the integrand of (x, lprime, circuit, ring) when the caller has
    built it already; otherwise it is built here.
    """
    if f is None:
        f = make_integrand(x, lprime, circuit, ring)
    z = np.exp(TWO_PI_I * np.arange(nodes) / nodes) * radius
    vals = f(complex(center) + z)
    _require_finite(vals, "residue circle")
    return (vals * z).sum() * (1.0 / nodes)


def orbit_sum(x, lprime, circuit, ring, m_from, m_to):
    """Plain sum of the h-orbit terms m_from <= m <= m_to, one batch."""
    return sum_rows(term_values(x, orbit(lprime, circuit, m_from, m_to),
                                ring))


def orbit(lprime, circuit, m_from, m_to):
    """The exponent tuples l' + m h, m_from <= m <= m_to."""
    return [tuple(v + m * hv for v, hv in zip(lprime, circuit.h))
            for m in range(m_from, m_to + 1)]


def left_residue_sum(x, lprime, circuit, ring, s0):
    """Sum of all residues left of the line Re s = s0, by circles.

    One circle encloses each pole location of the pole model, so poles
    sharing it (merged families, integer points hit by a family) never
    force a tiny radius; the radius, at most 0.2, keeps it off the
    neighbouring locations.  Every circle evaluates the one integrand
    built here.
    """
    f = make_integrand(x, lprime, circuit, ring)
    points = pole_model(lprime, circuit, s0 - MAX_DEPTH - 1, s0 + 1)
    acc, small = None, 0
    for i in reversed(range(1, len(points) - 1)):
        re, kind = points[i]
        if kind == "removable" or not s0 - MAX_DEPTH <= re < s0:
            continue
        gap = min(points[i + 1][0] - re, re - points[i - 1][0])
        val = residue_at(x, lprime, circuit, ring, complex(float(re)),
                         radius=min(0.2, 0.4 * float(gap)), f=f)
        acc = val if acc is None else acc + val
        small = small + 1 if val.norm() < STOP * max(acc.norm(), 1.0) else 0
        if small == 3:
            break
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
    assert k in circuit.I_minus
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
    source: str
    target: str
    row_index: tuple         # (sector key, basis position) on the target side
    col_index: tuple         # same on the source side
    entries: np.ndarray
    eps: object              # sampled eps, or None for the eps^0 extraction
    provenance: str
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
    no transform never searches for it.  Everything that depends on eps
    is built by the functions that take eps, from `rings`.
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

    @functools.cached_property
    def monomials(self):
        """The Laurent exponents that index the transform's columns."""
        return monomial_basis(self)

    def rings(self, chamber, eps):
        """The DeformationRing of every sector of chamber at eps."""
        return {key: DeformationRing(alg, self.offsets, eps=eps)
                for key, alg in chamber.algebras.items()}


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
    prov = "ac-residue" if route == "transport" else "fm-residue"
    return TransformMatrix(source=minus.t.label, target=plus.t.label,
                           row_index=wall.rows, col_index=wall.cols,
                           entries=entries, eps=eps, provenance=prov,
                           principal_ratio=principal)


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


def nonessential_index_sets(data, circuit, t_plus, t_minus):
    """Smallest index sets inside no essential cone of either side."""
    from .toric import essential_cones
    ess = {frozenset(s) for s in essential_cones(data, t_plus, circuit)}
    ess |= {frozenset(s) for s in essential_cones(data, t_minus, circuit)}
    n = data.n
    for size in range(1, n + 1):
        found = [J for J in combinations(range(n), size)
                 if not any(frozenset(J) <= e for e in ess)]
        if found:
            return found
    return []


def random_nonessential_class(rng, data, circuit, t_plus, t_minus):
    """A Laurent combination times prod (1 - R_j) over a non-essential set.

    The index set J fits in no essential cone on either side, so the
    class is blind to the wall and must be fixed by the transform.
    """
    sets = nonessential_index_sets(data, circuit, t_plus, t_minus)
    assert sets, "every index set meets an essential cone"
    best = sets[0]
    n = data.n
    terms = {}
    for _ in range(3):
        b = tuple(int(rng.integers(-2, 3)) for _ in range(n))
        terms[b] = terms.get(b, 0.0) + complex(rng.standard_normal(),
                                               rng.standard_normal())
    out = {}
    for b, cf in terms.items():
        expanded = {b: cf}
        for j in best:
            nxt = {}
            for bb, cc in expanded.items():
                nxt[bb] = nxt.get(bb, 0.0) + cc
                b2 = tuple(v + (1 if i == j else 0)
                           for i, v in enumerate(bb))
                nxt[b2] = nxt.get(b2, 0.0) - cc
            expanded = nxt
        for bb, cc in expanded.items():
            out[bb] = out.get(bb, 0.0) + cc
    return out, best


def evaluate_classes(chamber, rings, polys):
    """Localization values of Laurent combinations, one flat vector each.

    rings are the chamber's DeformationRings at one eps (at eps^0 for a
    Laurent ring).  The monomials of all combinations are evaluated as
    one batch; each combination adds its own rows in sorted order.
    """
    union = sorted(set().union(*polys))
    pos = {b: i for i, b in enumerate(union)}
    table = localization_matrix(chamber, rings, union)
    out = []
    for poly in polys:
        mons = sorted(poly)
        cfs = np.array([poly[b] for b in mons], dtype=complex)
        rows = table[[pos[b] for b in mons]] * cfs[:, None]
        out.append(np.cumsum(rows, axis=0)[-1])
    return out


def gamma_vector(chamber, rings, battery, x, policy):
    """Stacked sector coordinates of the series values, one per c.

    Per sector the terms of every c of the battery are one term_values
    batch, and each c adds its own rows in term order.
    """
    per = [{} for _ in battery]
    for g in chamber.box:
        ls = [[term.l for term in enumerate_terms(chamber.data, chamber.t,
                                                  c, g, policy)]
              for c in battery]
        batch = term_values(x, [l for part in ls for l in part],
                            rings[g.key()])
        start = 0
        for out, part in zip(per, ls):
            out[g.key()] = sum_rows(batch, slice(start, start + len(part)))
            start += len(part)
    return [_stack(chamber, p) for p in per]


def continued_vector(wall, rings, battery, x, policy, spec=None):
    """Far-side values of the near-side solutions, one per c.

    Essential families are continued orbit-by-orbit from their
    generators: the line integral of the generator plus its orbit terms
    left of the line, the analytic continuation of the near-side orbit
    sum.  Any non-essential leftovers (none in the bundled data) are
    summed directly.  Each generator gets its own line; per plus sector,
    the orbit terms and leftovers of every c are one term_values batch,
    and each c adds its own rows in term order.  Returns, per c, the
    stacked vector and the worst est_error and total nodes of its lines.
    """
    circuit, plus = wall.circuit, wall.plus
    ls = {g.key(): [] for g in plus.box}
    plans = []
    for c in battery:
        plan, diag = {}, {"est_error": 0.0, "nodes": 0}
        for g in plus.box:
            rows = ls[g.key()]
            parts = plan[g.key()] = []
            for term in enumerate_terms(plus.data, plus.t, c, g, policy,
                                        circuit):
                if term.generator:
                    q, dg = mb_contour_oracle(x, term.l, circuit,
                                              rings[g.key()], spec)
                    first = first_right(term.l, circuit, dg["s0"])
                    terms = orbit(term.l, circuit, -M_BACK, first - 1)
                    diag["est_error"] = nan_max(diag["est_error"],
                                                dg["est_error"])
                    diag["nodes"] += dg["nodes"]
                elif term.essential:
                    continue
                else:
                    q, terms = None, [term.l]
                parts.append((q, slice(len(rows), len(rows) + len(terms))))
                rows.extend(terms)
        plans.append((plan, diag))
    batches = {key: term_values(x, rows, rings[key])
               for key, rows in ls.items()}
    out = []
    for plan, diag in plans:
        per = {}
        for key, parts in plan.items():
            acc = rings[key].zero()
            for q, rows in parts:
                val = sum_rows(batches[key], rows)
                acc = acc + (val if q is None else val + q)
            per[key] = acc
        out.append((_stack(plus, per), diag))
    return out


def oracle_report(circuit, plus, minus, eps_values=(1e-2, 1e-3), y_abs=0.1,
                  amplitude=None, spec=None):
    """Quadrature vs pole sums on both sides, per generator and eps, at c = 0.

    plus and minus are the Chambers of the two triangulations.
    """
    data, t_plus = plus.data, plus.t
    path = select_endpoints(circuit, amplitude, y_abs)
    c = (0,) * data.rank
    policy = TruncationPolicy()
    wall = WallContext(circuit, plus, minus)
    generators = {}      # they do not depend on eps: found once
    for g in plus.box:
        if g.key() in wall.essential_plus:
            generators[g.key()] = [term.l for term in enumerate_terms(
                data, t_plus, c, g, policy, circuit) if term.generator]
    checks = []
    for eps in eps_values:
        rings = wall.rings(plus, eps)
        for key, lps in generators.items():
            ring = rings[key]
            for lp in lps:
                q_p, dg_p = mb_contour_oracle(path.x_plus, lp, circuit, ring,
                                              spec)
                right = orbit_sum(path.x_plus, lp, circuit, ring,
                                  first_right(lp, circuit, dg_p["s0"]), M_MAX)
                dev_r = (q_p - right).norm() / max(right.norm(), 1.0)
                q_m, dg_m = mb_contour_oracle(path.x_minus, lp, circuit,
                                              ring, spec)
                left = left_residue_sum(path.x_minus, lp, circuit, ring,
                                        dg_m["s0"])
                dev_l = (q_m + left).norm() / max(left.norm(), 1.0)
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


def verify_fm_equals_ac(circuit, plus, minus,
                        eps_samples=(1e-2, 5e-3, 2e-3), depth=2,
                        y_abs=0.1, amplitude=None, policy=None,
                        spec=None):
    """The full crossing battery: matrices, cancellation, end to end.

    plus and minus are the Chambers of the two triangulations; one wall
    context over them serves every eps below.  Returns a report dict;
    raises nothing on mere check failure (the caller decides), but
    propagates structural errors.
    """
    data, t_plus, t_minus = plus.data, plus.t, minus.t
    policy = policy or TruncationPolicy(degree_bound=25)
    path = select_endpoints(circuit, amplitude, y_abs)
    report = {"kind": "fm-vs-ac", "fixture": {"plus": t_plus.label,
                                              "minus": t_minus.label},
              "eps_samples": list(eps_samples)}
    wall = WallContext(circuit, plus, minus)

    samples = []
    for eps in eps_samples:
        ac = ac_transform(wall, eps)
        fm = fm_transform(wall, eps)
        scale = max(np.abs(fm.entries).max(), 1.0)
        dev = float(np.abs(ac.entries - fm.entries).max() / scale)
        sizes, invertible = invertibility(fm.entries)
        samples.append({"eps": eps, "matrix_dev": dev, **sizes,
                        "pass": dev < 1e-10 and invertible})
    report["matrix"] = {"samples": samples,
                        "pass": all(s["pass"] for s in samples)}

    ac0 = ac_transform(wall, None)
    fm0 = fm_transform(wall, None)
    scale = max(np.abs(fm0.entries).max(), 1.0)
    dev0 = float(np.abs(ac0.entries - fm0.entries).max() / scale)
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
    values = gamma_vector(minus, rings_minus, battery, path.x_minus, policy)
    worst_dev = 0.0
    rows = []
    for c, (lhs, diag), value in zip(battery, continued, values):
        rhs = fm0.entries @ value
        scale = max(np.abs(lhs).max(), 1.0)
        dev = float(np.abs(lhs - rhs).max() / scale)
        worst_dev = nan_max(worst_dev, dev)
        rows.append({"c": list(c), "dev": dev,
                     "quad_error": diag["est_error"],
                     "quad_nodes": diag["nodes"],
                     "pass": nan_max(dev, diag["est_error"] / scale) < 1e-6})
    report["end_to_end"] = {"battery": rows, "max_dev": worst_dev,
                            "pass": all(r["pass"] for r in rows)}

    rng = np.random.default_rng(INVARIANCE_SEED)
    drawn = [random_nonessential_class(rng, data, circuit, t_plus, t_minus)
             for _ in range(INVARIANCE_CLASSES)]
    polys = [poly for poly, _ in drawn]
    j_used = drawn[-1][1]
    worst_inv = 0.0
    for src, tgt in zip(evaluate_classes(minus, rings_minus, polys),
                        evaluate_classes(plus, rings_plus, polys)):
        got = fm0.entries @ src
        scale = max(np.abs(tgt).max(), 1.0)
        worst_inv = nan_max(worst_inv,
                             float(np.abs(got - tgt).max() / scale))
    report["invariance"] = {"classes": INVARIANCE_CLASSES,
                            "J": [j + 1 for j in j_used],
                            "max_dev": worst_inv,
                            "pass": worst_inv < 1e-10}

    report["pass"] = all(report[k]["pass"] for k in
                         ("matrix", "laurent", "end_to_end", "invariance"))
    return report
