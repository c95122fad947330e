"""Gamma-type series over the sector algebras.

A solution attached to a lattice point c of the cone is a sum over
rational tuples l with sum_i l_i v_i = -c and prescribed fractional
parts, of terms

    prod_j x_j^{l_j + D_j/2pi i} / Gamma(1 + l_j + D_j/2pi i),

valued in the direct sum of the sector algebras.  This module
enumerates the terms inside a degree ball, evaluates the primal and the
compactly supported (dual) variants, and checks the two defining PDE
families by exact term pairing: the derivative recursion maps the term
at l to the term at l - e_i through the Gamma functional equation, so
matched descriptor pairs contribute a residual of exactly zero and only
truncation-boundary terms carry a numeric bound.

The exponents of one sector share a denominator N: their fractional
parts are the sector's coordinates, whatever c is.  So a term is carried
as the integer numerators of N l, from the lattice walk (_solutions, one
array pass for a whole battery of c) through the classification
(enumerate_terms) to the Gamma kernel (term_values); only the exact
layer (canonical_lift, the sector algebras) and the reads that report or
pair terms (LatticeTerm.l) use Fractions.  Terms are evaluated in
batches (term_values): a table of numerators over one N becomes one
element batch, at one eps or a stack of them, and sums over the batch
add its rows in term order.  Every 1/Gamma takes the line integrand's
path: one DeformationRing.recip_gamma call at the distinct anchors
(ladder_anchors), laddered down the functional equation.  A batch may
hold the terms of several series (several c of a battery): a row does
not depend on the other rows, so each series sums its own rows to the
same value it would get alone.  evaluate_gamma and evaluate_gamma_dual
take a whole battery of c and make one batch per sector for the whole
battery; a single c is a battery of one.
"""

import cmath
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import BranchCut, DivergenceSuspected, InfeasibleArgs, \
    NonFiniteValue, NonInteriorPoint
from .toric import essential_cones, interior_cones, is_interior_point, \
    canonical_lift
from .deform import DeformationRing, TWO_PI_I, principal_log
from . import kernels


@dataclass(frozen=True)
class TruncationPolicy:
    """Degree ball sum_i |l_i| <= degree_bound, with optional tail fit."""

    degree_bound: int = 20
    tail_check: bool = True

    def __post_init__(self):
        assert self.degree_bound >= 1   # internal: cli rejects --trunc < 1


@dataclass(frozen=True)
class LatticeTerm:
    """One exponent tuple of the series, with its classification.

    The exponents are l = num / den: integer numerators over the common
    denominator den of the sector, the same for every c.  l reads them
    as Fractions, for the checks and reports that pair or print terms.
    """

    num: tuple               # ints
    den: int
    support: frozenset       # I(l) = {i : l_i not a nonnegative integer}
    essential: bool = False
    generator: bool = False

    @property
    def l(self):
        return tuple(Fraction(v, self.den) for v in self.num)


@dataclass
class GammaValue:
    """Per-sector components over the Box of one triangulation."""

    components: dict         # sector key -> AlgebraElement
    term_counts: dict
    tail: dict


@dataclass
class DualGammaValue:
    """Coefficients attached to interior-cone generators, per sector."""

    components: dict         # (sector key, cone tuple) -> AlgebraElement
    term_counts: dict
    reduced: dict = None     # sector key -> quotient coordinates


def _support(num, den):
    """I(l) of l = num / den: the i with l_i negative or not an integer."""
    return frozenset(i for i, v in enumerate(num) if v < 0 or v % den)


def _negative_integers(num, den):
    return frozenset(i for i, v in enumerate(num) if v < 0 and not v % den)


def scalar_power(x, e):
    """x**e on the principal branch, exact for integer e."""
    e = Fraction(e)
    if e.denominator == 1:
        return complex(x) ** int(e)
    return cmath.exp(float(e) * principal_log(x))


def _pivot(row):
    for i, v in enumerate(row):
        if v:
            return i
    # internal: the rows of an HNF basis are nonzero
    raise AssertionError("zero kernel row")


def _solutions(starts, den, basis, bound):
    """All l = l0 + Z-combinations of basis with sum |l_i| <= bound, for
    every start l0 at once.

    starts is the table of integer numerators den * l0, one row per
    start; returns the start of each tuple and the table of the tuples
    den * l.  The walk runs in these integers, with the bound scaled by
    den too, and passes over the basis rows once, for every partial
    tuple of every start at once.  The rows are in echelon form, so the
    columns left of a row's pivot are final once the rows above it are
    chosen; its coefficient is confined to the interval where the pivot
    entry fits in the budget those columns leave, and each partial tuple
    is repeated over its interval.  A start's tuples come in the order
    of the coefficients.
    """
    cur = np.array(starts, dtype=np.int64).reshape(len(starts), -1)
    owner = np.arange(len(cur))
    top = bound * den
    for row in basis:
        p = _pivot(row)
        step = np.array(row, dtype=np.int64) * den
        k = int(step[p])
        budget = top - np.abs(cur[:, :p]).sum(axis=1)
        lo, hi = -budget - cur[:, p], budget - cur[:, p]
        if k < 0:
            lo, hi = hi, lo
        first = -(-lo // k)
        count = np.maximum(hi // k + 1 - first, 0)
        take = np.repeat(np.arange(len(cur)), count)
        # each tuple's coefficient: its interval's start plus its rank
        m = first[take] + np.arange(len(take)) \
            - np.repeat(np.cumsum(count) - count, count)
        cur = cur[take] + m[:, None] * step
        owner = owner[take]
    keep = np.abs(cur).sum(axis=1) <= top
    return owner[keep], cur[keep]


def _support_bits(nums, den):
    """I(l) of each row l = num / den of nums, as the sum of 2**i over i
    in I(l)."""
    mask = (nums < 0) | (nums % den != 0)
    return mask @ (1 << np.arange(nums.shape[1], dtype=np.int64))


def _within(sup, cones):
    """Per support (as _support_bits) and cone: the support lies within
    the cone."""
    bits = np.array([sum(1 << j for j in s) for s in cones], dtype=np.int64)
    return (sup[:, None] & ~bits) == 0


def enumerate_terms(data, t, battery, gamma, policy, circuit=None):
    """Terms of the (c, gamma) series inside the degree ball, for every c
    of the battery: one list per c, each sorted.

    Sorted by degree, then by the numerators: with one denominator they
    order as the Fractions do.  Tuples whose support set fits in no
    maximal cone are dropped: their value vanishes identically because
    the support's divisor product is a relation of every sector algebra.
    With a circuit, a term is essential when an owning cone is, and a
    generator when l - h is not essential.  The whole battery is one
    lattice walk (_solutions), classified on supports and cones as bit
    masks and sorted once by (c, degree, numerators).
    """
    lifts = [canonical_lift(data, gamma, c).values for c in battery]
    if not lifts:
        return []
    dens = {math.lcm(*(v.denominator for v in lift)) for lift in lifts}
    # internal: the fractional parts of every lift are gamma's
    assert len(dens) == 1
    den = dens.pop()
    owner, nums = _solutions(
        [[v.numerator * (den // v.denominator) for v in lift]
         for lift in lifts], den, data.lattice.kernel_basis,
        policy.degree_bound)
    sup = _support_bits(nums, den)
    ess = set(map(frozenset, essential_cones(data, t, circuit))) \
        if circuit is not None else set()
    owning = _within(sup, t.maximal)
    keep = owning.any(axis=1)
    essential = (owning & np.array([frozenset(s) in ess
                                    for s in t.maximal])).any(axis=1)
    generator = np.zeros(len(nums), dtype=bool)
    if ess:
        back = _support_bits(nums - np.array(circuit.h) * den, den)
        generator = essential & ~_within(back, ess).any(axis=1)
    order = np.lexsort(tuple(nums[:, j] for j in reversed(range(data.n)))
                       + (np.abs(nums).sum(axis=1), owner))
    order = order[keep[order]]
    supports = {}
    out = [[] for _ in lifts]
    for i, num, bits, is_ess, gen in zip(
            owner[order].tolist(), nums[order].tolist(),
            sup[order].tolist(), essential[order].tolist(),
            generator[order].tolist()):
        if bits not in supports:
            supports[bits] = frozenset(j for j in range(data.n)
                                       if bits >> j & 1)
        out[i].append(LatticeTerm(num=tuple(num), den=den,
                                  support=supports[bits], essential=is_ess,
                                  generator=gen))
    return out


def exponent_table(ls):
    """Integer numerators over one common denominator for exponent tuples.

    ls holds tuples of rationals (Fractions or ints); returns the rows
    den * l and den, the lcm of every denominator: the form term_values
    takes.
    """
    ls = [[Fraction(v) for v in l] for l in ls]
    den = math.lcm(1, *(v.denominator for l in ls for v in l))
    return [tuple(v.numerator * (den // v.denominator) for v in l)
            for l in ls], den


def ladder_anchors(nums, den):
    """Per numerator v of l = v / den, the 1/Gamma ladder's anchor (the
    class v mod den when v < den, else v) and step count (anchor - v) /
    den, as lists: the rule of the line integrand and the terms."""
    anchors = [v % den if v < den else v for v in nums]
    return anchors, [(a - v) // den for a, v in zip(anchors, nums)]


def _powers(x, values, den):
    """x**(v / den) per numerator v, as arrays of m and e, m 2**e with
    |m| in [1/2, 1): scalar_power's value, scaled exactly, where that is
    a normal float, else read off t = (v / den) log x."""
    log = principal_log(x)
    out = []
    for v in values.tolist():
        try:
            p = cmath.exp(v / den * log) if v % den \
                else complex(x) ** (v // den)
        except OverflowError:
            p = 0j
        if sys.float_info.min <= abs(p) < math.inf:
            e = math.frexp(abs(p))[1]
            out.append((p * 2.0 ** -e, e))
        else:
            t = v / den * log
            e = math.floor(t.real / math.log(2)) + 1
            out.append((cmath.exp(t - e * math.log(2)), e))
    return tuple(map(np.array, zip(*out)))


def term_values(x, nums, den, ring, dual=False):
    """prod_j x_j^{l_j + D~_j/2pi i} / Gamma(1 + l_j + D~_j/2pi i), batched.

    The exponents are l = num / den, one row num of integer numerators
    per term, on a ring at one eps or a stack of samples: a batch of
    shape (len(nums), dim), after a sample axis for a stack, each
    sample's rows the bits of that sample alone.  Per coordinate j the
    branched power is formed once and each distinct numerator is
    evaluated once, then gathered back to its rows; the distinct anchors
    of every coordinate (ladder_anchors) go to one
    DeformationRing.recip_gamma call, laddered down to each numerator.
    The factors multiply in coordinate order, as one term at a time
    would, each x_j^{l_j} and 1/Gamma row scaled exactly to a largest
    modulus in [1/2, 1), and a term's powers of two are applied at the
    end: a finite term stays finite when a factor leaves the float
    range, and one with normal partial products gets its unscaled bits.
    dual=True gives the dual-series coefficients: for l_j < 0 integral
    the reciprocal-Gamma factor is divisible by D_j/2pi i, and that
    leading factor is left out (laddered from anchor 0's w - 1; the
    1/2pi i is kept), the divided coefficient of the support cone's
    generator.
    """
    table = np.array(nums, dtype=np.int64).reshape(len(nums), len(x))
    lead = np.shape(ring.eps)
    alg = ring.algebra
    if not len(table):
        return alg.scalar(np.ones(lead + (0,)))
    ds = [ring.divisor(j) * (1.0 / TWO_PI_I) for j in range(len(x))]
    distinct = [np.unique(column, return_inverse=True) for column in table.T]
    ws, picks = [], []
    for vals, _ in distinct:
        vals = vals.tolist()
        anchors, depths = ladder_anchors(vals, den)
        tops = sorted(set(anchors))
        slot = {a: i for i, a in enumerate(tops)}
        # a dual strip takes anchor 0 once more, laddered from w - 1
        strip = [dual and v < 0 and not v % den for v in vals]
        ws.append(np.array([den + a for a in tops + [0] * dual]) / den)
        picks.append((np.array([len(tops) if cut else slot[a]
                                for a, cut in zip(anchors, strip)]),
                      np.array(depths) - strip,
                      np.arange(len(ws[-1])) >= len(tops) if dual else 0))
    gammas = ring.recip_gamma(ws, ds, picks, scaled=True)
    scale = np.zeros(lead + (len(table),), dtype=int)
    acc = None
    # a term that is not finite says so in its value, and the callers'
    # finiteness gates raise NonFiniteValue
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (xj, d, (vals, take), (rows, exps)) in enumerate(
                zip(x, ds, distinct, gammas)):
            # x_j^d is one where d = 0 (D_j vanishes in the sector, eps = 0)
            if d.coords.any():
                power = ring.branched_power(xj, d)
                power = alg.element(power.coords.reshape(lead + (1, -1)))
                acc = power if acc is None else acc * power
            mant, e = _powers(xj, vals, den)
            acc = alg.scalar(mant[take]) if acc is None \
                else acc * mant[take]
            k = np.frexp(np.abs(rows.coords).max(axis=-1))[1]
            rows = kernels.ldexp(rows.coords, -k)
            acc = acc * alg.element(rows[..., take, :])
            scale = scale + (e + exps + k)[..., take]
            if dual:
                column = table[:, j]
                stripped = (column < 0) & (column % den == 0)
                acc.coords[..., stripped, :] *= 1.0 / TWO_PI_I
        return alg.element(kernels.ldexp(acc.coords, scale))


def sum_rows(batch, rows=None):
    """Sum of the batch's rows (all, or those that rows selects).

    The rows run along the second-to-last axis: a stack sums each
    sample's rows alone.  They are added in order, starting from zero,
    as a loop over terms adds them; numpy's own sum over the batch axis
    pairs rows up when the algebra has dimension 1.
    """
    coords = batch.coords if rows is None else batch.coords[..., rows, :]
    if not coords.shape[-2]:
        return batch.algebra.element(coords.sum(axis=-2))
    # rows that are not finite make a sum that the callers gate
    with np.errstate(over="ignore", invalid="ignore"):
        return batch.algebra.element(np.cumsum(coords, axis=-2)[..., -1, :]
                                     + 0.0)


def _point(x, n):
    """x as a tuple of complex numbers, every argument strictly inside
    (-pi, pi): a zero coordinate raises InfeasibleArgs, one on the
    negative axis BranchCut."""
    x = tuple(complex(v) for v in x)
    for j, v in enumerate(x):
        if v == 0:
            raise InfeasibleArgs(f"coordinate {j + 1} is zero")
        if v.imag == 0 and v.real < 0:
            raise BranchCut(f"coordinate {j + 1} on the negative axis")
    # internal: callers build x with one coordinate per point
    assert len(x) == n, f"need {n} coordinates"
    return x


def nan_max(*values):
    """Largest value, or NaN when any value is NaN.

    Python's max(0.0, nan) is 0.0 and max(nan, 0.0) is nan, so a worst
    case taken with it can drop a NaN; every gate reduces with this.
    """
    if any(math.isnan(v) for v in values):
        return math.nan
    return float(max(values))


def _tail_scan(shell_norms):
    """Geometric-decay fit on the last shells; ratio >= 1 is suspicious.

    shell_norms is keyed by degree, as the pair (p, q) of p/q in lowest
    terms; evaluate_gamma has checked them finite.
    """
    degs = sorted(shell_norms, key=lambda pq: Fraction(*pq))
    vals = [shell_norms[d] for d in degs if shell_norms[d] != 0]
    if len(vals) < 3:
        return {"ratio": 0.0, "checked": False}
    window = vals[-5:]
    ratios = [b / a for a, b in zip(window, window[1:])]
    return {"ratio": nan_max(*ratios), "checked": True}


def sector_batches(chamber, battery, x, policy, dual=False):
    """One term_values batch per sector for the whole battery.

    Yields, per twisted sector of the chamber in box order, its key, the
    terms of each c of the battery, the slice of the batch that holds
    each c's rows (in term order), and the batch itself.  Each sector's
    ring is the undeformed one (eps = 0, offsets 0..n-1); the crossing's
    end-to-end check (wall.gamma_vector) reads the same batches.
    """
    for gamma in chamber.box:
        key = gamma.key()
        ring = DeformationRing(chamber.algebras[key], eps=0.0)
        terms = enumerate_terms(chamber.data, chamber.t, battery, gamma,
                                policy)
        ends = list(accumulate(map(len, terms)))
        rows = [slice(end - len(part), end) for part, end in zip(terms, ends)]
        dens = {term.den for part in terms for term in part}
        # internal: the fractional parts of every term are gamma's
        assert len(dens) <= 1
        batch = term_values(x, [term.num for part in terms for term in part],
                            dens.pop() if dens else 1, ring, dual)
        yield key, terms, rows, batch


def _require_finite(finite, c):
    if not finite:
        raise NonFiniteValue(f"a series term at c = {tuple(c)} is not finite")


def evaluate_gamma(chamber, battery, x, policy):
    """Sum the series of every lattice point c of the battery at x.

    One batch per sector for the whole battery: each c adds its own rows
    in term order.  Returns one GammaValue per c, in battery order.  The
    checks run per c in battery order, as for that c alone: the
    finiteness of its shell norms, which a term that is not finite makes
    NaN or inf (NonFiniteValue), then their tail fit
    (DivergenceSuspected), which so never reads a NaN.
    """
    battery = list(battery)
    xs = _point(x, chamber.data.n)
    out = [GammaValue(components={}, term_counts={}, tail=None)
           for _ in battery]
    shells = [defaultdict(float) for _ in battery]
    for key, terms, rows, batch in sector_batches(chamber, battery, xs,
                                                  policy):
        norms = batch.norm()
        for i, (val, part, sel) in enumerate(zip(out, terms, rows)):
            for term, norm in zip(part, norms[sel]):
                size = sum(map(abs, term.num))
                g = math.gcd(size, term.den)
                shells[i][size // g, term.den // g] += float(norm)
            val.components[key] = sum_rows(batch, sel)
            val.term_counts[key] = len(part)
    for c, val, shell in zip(battery, out, shells):
        _require_finite(all(map(math.isfinite, shell.values())), c)
        val.tail = _tail_scan(shell)
        if policy.tail_check and val.tail["checked"] \
                and not val.tail["ratio"] < 1.0:
            raise DivergenceSuspected(
                f"shell norms grow with ratio {val.tail['ratio']:.3f}")
    return out


def evaluate_gamma_dual(chamber, battery, x, policy, module):
    """Dual series of every c of the battery: coefficients on the
    interior-cone generators, and their reduction in the CompactKModule
    module.

    Every c must be an interior point (NonInteriorPoint otherwise).  One
    batch per sector for the whole battery, as in evaluate_gamma; returns
    one DualGammaValue per c, in battery order, after checking each c's
    terms for finiteness (NonFiniteValue) in that order.
    """
    data, t = chamber.data, chamber.t
    battery = list(battery)
    for c in battery:
        if not is_interior_point(data, t, c, chamber.facets):
            raise NonInteriorPoint(f"{tuple(c)} is not interior")
    xs = _point(x, data.n)
    interior = set(map(frozenset, interior_cones(data, t, chamber.facets)))
    out = [DualGammaValue(components={}, term_counts={}) for _ in battery]
    finite = [True] * len(battery)
    for key, terms, rows, batch in sector_batches(chamber, battery, xs,
                                                  policy, dual=True):
        for i, (val, part, sel) in enumerate(zip(out, terms, rows)):
            finite[i] &= bool(np.isfinite(batch.coords[sel]).all())
            val.term_counts[key] = len(part)
            groups = {}
            for row, term in enumerate(part, sel.start):
                # internal: c is interior, so every facet functional is
                # positive on some point of the support of a term
                assert term.support in interior
                groups.setdefault((key, tuple(sorted(term.support))),
                                  []).append(row)
            for ckey, idx in groups.items():
                val.components[ckey] = sum_rows(batch, idx)
    for c, val, ok in zip(battery, out, finite):
        _require_finite(ok, c)
        val.reduced = module.reduce_components(val.components)
    return out


# -- PDE residuals ------------------------------------------------------


def _image_vanishes(alg, num, den):
    """Exact test that the term at l = num / den is the zero element.

    Each negative-integer coordinate contributes a factor divisible by
    its divisor class, so a vanishing product of those classes kills the
    whole term.
    """
    return not any(alg.divisor_product_exact(_negative_integers(num, den)))


def _euler_defect(alg, terms, c):
    """Exact Euler residual: scalar part plus the divisor-class part."""
    worst = Fraction(0)
    for row in alg.linear_relation_defects():
        m = max((abs(v) for v in row), default=Fraction(0))
        worst = max(worst, m)
    for term in terms:
        for a in range(alg.data.rank):
            s = sum(lv * v[a] for lv, v in zip(term.num, alg.data.points)) \
                + term.den * c[a]
            if s:
                worst = max(worst, Fraction(abs(s), term.den))
    return worst


def _factor_identity_dev(alg, lj):
    """Numeric check of recip(l-1, d) = (l + d) recip(l, d)."""
    ring = DeformationRing(alg, eps=0.0)
    worst = 0.0
    for j in range(alg.data.n):
        d = ring.divisor(j) * (1.0 / TWO_PI_I)
        lhs, rhs = ring.recip_gamma([lj, 1 + lj], [d, d])
        rhs = (d + complex(lj)) * rhs
        scale = max(lhs.norm(), rhs.norm(), 1.0)
        worst = nan_max(worst, (lhs - rhs).norm() / scale)
    return worst


def pde_residuals(chamber, c_list, x, policy, which="primal", circuit=None):
    """Exact recursion/Euler residual report over a battery of points.

    The derivative in x_i sends the term at l to the term at l - e_i of
    the next series; pairs matched by exact descriptor comparison have
    residual zero, images falling outside the degree ball are reported
    with their magnitude, and images whose divisor product vanishes are
    exact zeros.  For the dual system a support-set change of a matched
    pair is absorbed by the module relation D_i F_I = F_{I + i}.
    """
    assert which in ("primal", "dual")   # internal: the two systems
    data, t = chamber.data, chamber.t
    xs = _point(x, data.n)
    c_set = {tuple(int(v) for v in c) for c in c_list}
    box, algebras = chamber.box, chamber.algebras
    rings = {k: DeformationRing(a, eps=0.0) for k, a in algebras.items()}

    if which == "dual":
        for c in c_set:
            if not is_interior_point(data, t, c, chamber.facets):
                raise NonInteriorPoint(f"{c} is not interior")

    terms = {}
    for gamma in box:
        for c, part in zip(sorted(c_set), enumerate_terms(
                data, t, sorted(c_set), gamma, policy, circuit)):
            terms[(c, gamma.key())] = part

    euler = Fraction(0)
    for (c, key), tl in terms.items():
        euler = max(euler, _euler_defect(algebras[key], tl, c))

    pairs = []
    factor_dev = 0.0
    sampled = set()
    for c in sorted(c_set):
        for i in range(data.n):
            cn = tuple(a + b for a, b in zip(c, data.points[i]))
            if cn not in c_set:
                continue
            matched = zero_images = boundary = mismatches = 0
            edges = defaultdict(list)     # (sector key, den) -> images
            for gamma in box:
                key = gamma.key()
                alg = algebras[key]
                src = terms[(c, key)]
                dst = {term.num for term in terms[(cn, key)]}
                for term in src:
                    den = term.den
                    img = tuple(v - (den if j == i else 0)
                                for j, v in enumerate(term.num))
                    if img in dst:
                        matched += 1
                        skey = (term.num[i], key)
                        if skey not in sampled and len(sampled) < 24:
                            sampled.add(skey)
                            factor_dev = nan_max(
                                factor_dev, _factor_identity_dev(
                                    alg, Fraction(term.num[i], den)))
                        continue
                    if _image_vanishes(alg, img, den):
                        zero_images += 1
                        continue
                    sup = _support(img, den)
                    in_cone = any(sup <= s for s in t.maximal)
                    if which == "dual" and not in_cone:
                        zero_images += 1      # module relation sends it to 0
                        continue
                    if sum(map(abs, img)) > policy.degree_bound * den:
                        boundary += 1
                        if in_cone:
                            edges[key, den].append(img)
                        continue
                    mismatches += 1
            boundary_max = nan_max(0.0, *(
                norm for (key, den), imgs in edges.items()
                for norm in term_values(xs, imgs, den, rings[key],
                                        dual=which == "dual").norm()))
            pairs.append({
                "c": list(c), "i": i + 1, "matched": matched,
                "zero_images": zero_images, "boundary_count": boundary,
                "boundary_max": boundary_max, "mismatches": mismatches,
            })
    worst = max((p["mismatches"] for p in pairs), default=0)
    return {
        "system": which,
        "euler_max": float(euler),
        "interior_residual": 0.0 if worst == 0 else float("nan"),
        "factor_identity_max": factor_dev,
        "pairs": pairs,
    }
