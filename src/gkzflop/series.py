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
as the integer numerators of N l, from the lattice walk (_solutions)
through the classification (enumerate_terms) to the Gamma kernel
(term_values); only the exact layer (canonical_lift, the sector
algebras) and the reads that report or pair terms (LatticeTerm.l) use
Fractions.  Terms are evaluated in batches (term_values): a table of
numerators over one N becomes one element batch, with one Gamma-kernel
call per coordinate for all its distinct values, and sums over the batch
add its rows in term order.  A batch may hold the terms of several series
(several c of a battery): a row does not depend on the other rows, so
each series sums its own rows to the same value it would get alone.
evaluate_gamma and evaluate_gamma_dual take a whole battery of c and
make one batch per sector for the whole battery; a single c is a
battery of one.
"""

import cmath
import math
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
    sector: object           # TwistedSector
    support: frozenset       # I(l) = {i : l_i not a nonnegative integer}
    owning_cones: tuple
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


def _solutions(l0, basis, bound):
    """All l = l0 + Z-combinations of basis with sum |l_i| <= bound.

    Returns the common denominator den of l0 and the integer tuples
    den * l.  The walk runs in these integers, with the bound scaled by
    den too.  The basis rows are in echelon form, so the columns left of
    a row's pivot are final once the rows above it are chosen; its
    coefficient is confined to the interval where the pivot entry fits
    in the budget those columns leave.  Tuples come in the order of the
    coefficients.
    """
    den = math.lcm(*(v.denominator for v in l0))
    start = [v.numerator * (den // v.denominator) for v in l0]
    top = bound * den
    rows = [(_pivot(row), [r * den for r in row]) for row in basis]
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


def enumerate_terms(data, t, c, gamma, policy, circuit=None):
    """Terms of the (c, gamma) series inside the degree ball, sorted.

    Sorted by degree, then by the numerators: with one denominator they
    order as the Fractions do.  Tuples whose support set fits in no
    maximal cone are dropped: their value vanishes identically because
    the support's divisor product is a relation of every sector algebra.
    With a circuit, a term is essential when an owning cone is, and a
    generator when l - h is not essential.
    """
    lift = canonical_lift(data, gamma, c)
    den, nums = _solutions(lift.values, data.lattice.kernel_basis,
                           policy.degree_bound)
    ess = set(map(frozenset, essential_cones(data, t, circuit))) \
        if circuit is not None else set()
    maximal = [(s, frozenset(s) in ess)
               for s in sorted(t.maximal, key=sorted)]
    step = tuple(den * v for v in circuit.h) if circuit is not None else None
    nums.sort(key=lambda num: (sum(map(abs, num)), num))
    out = []
    for num in nums:
        sup = _support(num, den)
        owning = tuple(s for s, _ in maximal if sup <= s)
        if not owning:
            continue
        is_ess = any(e for s, e in maximal if sup <= s)
        gen = False
        if is_ess:
            back = _support([v - hv for v, hv in zip(num, step)], den)
            gen = not any(back <= e for e in ess)
        out.append(LatticeTerm(num=num, den=den, sector=gamma, support=sup,
                               owning_cones=owning, essential=is_ess,
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


def _powers(x, values, den):
    """x**(v / den) per numerator v, as scalar_power forms them."""
    log = None
    out = []
    for v in values:
        if v % den:
            if log is None:
                log = principal_log(x)
            out.append(cmath.exp(v / den * log))
        else:
            out.append(complex(x) ** (v // den))
    return np.array(out)


def _normalized(element):
    """element = m 2**e with |m|'s largest coordinate in [1/2, 1): (m, e).

    A power of two scales every coordinate exactly.
    """
    e = int(np.frexp(np.abs(element.coords).max())[1])
    return element * math.ldexp(1.0, -e), e


def _ldexp(coords, e):
    """coords * 2**e, row by row, for complex rows and integer e."""
    return np.ldexp(coords.view(float), e[:, None]).view(complex)


def _normalize_rows(coords, rows, scale):
    """_normalized on the selected rows of coords, in place; their
    exponents are added to scale."""
    if rows.any():
        e = np.frexp(np.abs(coords[rows]).max(axis=1))[1]
        coords[rows] = _ldexp(coords[rows], -e)
        scale[rows] += e


def _recip_gamma_rows(columns, den, ds, ring, dual):
    """Coordinates of 1/Gamma(1 + v/den + d), one row per sorted distinct v.

    columns holds, per coordinate, its sorted distinct numerators v, and
    ds the coordinate's shift d.  Every v/den that is not a negative
    integer, and 0 when some is, goes to the kernel at the float centre
    (den + v) / den, every coordinate's centres in one batched
    ring.recip_gamma call.  A negative integer v/den = -m takes the
    functional-equation product prod_{i<m} (d - i) times the value at 0;
    the products for successive m extend each other.  dual strips the
    leading factor d: the product starts at i = 1.  Returns, per
    coordinate, the rows and a power-of-two exponent per row: past m of
    about 170 the product overflows, so where the next factor would make
    it non-finite it is scaled down by an exact power of two, whose
    exponent the row carries.  Every product that is finite unscaled
    keeps exponent 0.
    """
    negs = [[v for v in values if v < 0 and not v % den] for values in columns]
    centres = [sorted(set(values).difference(neg).union([0] if neg else []))
               for values, neg in zip(columns, negs)]
    batches = ring.recip_gamma([np.array([(den + v) / den for v in zs])
                                for zs in centres], list(ds))
    out = []
    for values, d, neg, zs, batch in zip(columns, ds, negs, centres,
                                         batches):
        rows = dict(zip(zs, batch.coords))
        exps = dict.fromkeys(values, 0)
        if neg:
            at_zero = d.algebra.element(rows[0])
            products, acc, e = [], d.algebra.one(), 0
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(-neg[0] // den):
                    if i >= dual:
                        step = acc * (d - i)
                        if not np.isfinite(step.coords).all():
                            acc, k = _normalized(acc)
                            e += k
                            step = acc * (d - i)
                        acc = step
                    products.append((acc, e))
            for v in neg:
                acc, exps[v] = products[-v // den - 1]
                rows[v] = (acc * at_zero).coords
        out.append((np.array([rows[v] for v in values]),
                    np.array([exps[v] for v in values])))
    return out


def term_values(x, nums, den, ring, dual=False):
    """prod_j x_j^{l_j + D~_j/2pi i} / Gamma(1 + l_j + D~_j/2pi i), batched.

    The exponents are l = num / den, one row num of integer numerators
    per term: an element batch of shape (len(nums), dim).  Per
    coordinate j the branched power is formed once and each distinct
    numerator is evaluated once, then gathered back to its rows; the
    distinct centres of every coordinate go to the kernel in one call
    (_recip_gamma_rows).  The factors are multiplied in coordinate
    order, as one term at a time would.  A row with a reciprocal-Gamma
    product that carries a power of two is kept scaled, its largest
    coordinate in [1/2, 1) after each factor, and its exponents are
    applied at the end; every other row is formed exactly as without
    them.  dual=True gives the dual-series coefficients: for l_j < 0
    integral the reciprocal-Gamma factor is divisible by D_j/2pi i, and
    that leading factor is removed (the 1/2pi i kept), realizing the
    divided coefficient that multiplies the generator of the support
    cone.

    The ring must be in numeric mode (a concrete eps).
    """
    if ring.laurent:
        raise InfeasibleArgs("series terms need a sampled eps")
    table = np.array(nums, dtype=np.int64).reshape(len(nums), len(x))
    acc = ring.algebra.scalar(np.ones(len(table)))
    if not len(table):
        return acc
    ds = [ring.divisor(j) * (1.0 / TWO_PI_I) for j in range(len(x))]
    distinct = [np.unique(column, return_inverse=True) for column in table.T]
    values = [v.tolist() for v, _ in distinct]
    gammas = _recip_gamma_rows(values, den, ds, ring, dual)
    scaled = np.zeros(len(table), dtype=bool)
    for (_, take), (_, exps) in zip(distinct, gammas):
        scaled |= exps[take] != 0
    scale = np.zeros(len(table), dtype=int)
    for j, (xj, d, vals, (_, take), (rows, exps)) in enumerate(
            zip(x, ds, values, distinct, gammas)):
        acc = acc * ring.branched_power(xj, d) * _powers(xj, vals, den)[take]
        _normalize_rows(acc.coords, scaled, scale)
        acc = acc * d.algebra.element(rows[take])
        scale += exps[take]
        _normalize_rows(acc.coords, scaled, scale)
        if dual:
            column = table[:, j]
            stripped = (column < 0) & (column % den == 0)
            acc.coords[stripped] *= 1.0 / TWO_PI_I
    acc.coords[scaled] = _ldexp(acc.coords[scaled], scale[scaled])
    return acc


def sum_rows(batch, rows=None):
    """Sum of the batch's rows (all, or those that rows selects).

    The rows are added in order, starting from zero, as a loop over
    terms adds them; numpy's own sum over the batch axis pairs rows up
    when the algebra has dimension 1.
    """
    coords = batch.coords if rows is None else batch.coords[rows]
    if not len(coords):
        return batch.algebra.zero()
    return batch.algebra.element(np.cumsum(coords, axis=0)[-1] + 0.0)


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
    terms.  A NaN shell norm gives a NaN ratio, which the caller's guard
    rejects.
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
        terms = [enumerate_terms(chamber.data, chamber.t, c, gamma, policy)
                 for c in battery]
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
    checks run per c in battery order, as for that c alone: the tail fit
    of its shell norms (DivergenceSuspected), then its terms' finiteness
    (NonFiniteValue).
    """
    battery = list(battery)
    xs = _point(x, chamber.data.n)
    out = [GammaValue(components={}, term_counts={}, tail=None)
           for _ in battery]
    shells = [defaultdict(float) for _ in battery]
    finite = [True] * len(battery)
    for key, terms, rows, batch in sector_batches(chamber, battery, xs,
                                                  policy):
        norms = batch.norm()
        for i, (val, part, sel) in enumerate(zip(out, terms, rows)):
            for term, norm in zip(part, norms[sel]):
                size = sum(map(abs, term.num))
                g = math.gcd(size, term.den)
                shells[i][size // g, term.den // g] += float(norm)
            values = batch.algebra.element(batch.coords[sel])
            finite[i] &= bool(np.isfinite(values.coords).all())
            val.components[key] = sum_rows(values)
            val.term_counts[key] = len(part)
    for c, val, shell, ok in zip(battery, out, shells, finite):
        val.tail = _tail_scan(shell)
        if policy.tail_check and val.tail["checked"] \
                and not val.tail["ratio"] < 1.0:
            raise DivergenceSuspected(
                f"shell norms grow with ratio {val.tail['ratio']:.3f}")
        _require_finite(ok, c)
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
    for c in sorted(c_set):
        for gamma in box:
            terms[(c, gamma.key())] = enumerate_terms(
                data, t, c, gamma, policy, circuit)

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
