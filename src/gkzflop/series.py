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

The exponent tuples are enumerated in integers (_solutions), scaled by
the common denominator of the lift; only the tuples kept become
Fractions.  Terms are evaluated in batches (term_values): a list of
exponent tuples becomes one element batch, with one Gamma-kernel call
per coordinate for all its distinct values, and sums over the batch add
its rows in term order.  A batch may hold the terms of several series
(several c of a battery): a row does not depend on the other rows, so
each series sums its own rows to the same value it would get alone.
evaluate_gamma and evaluate_gamma_dual take a whole battery of c and
make one batch per sector for the whole battery; a single c is a
battery of one.
"""

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import BranchCut, DivergenceSuspected, InfeasibleArgs, \
    NonFiniteValue, NonInteriorPoint
from . import rational
from .toric import essential_cones, interior_cones, is_interior_point, \
    canonical_lift
from .deform import DeformationRing, TWO_PI_I, falling_products, \
    principal_log


@dataclass(frozen=True)
class TruncationPolicy:
    """Degree ball sum_i |l_i| <= degree_bound, with optional tail fit."""

    degree_bound: int = 20
    tail_check: bool = True

    def __post_init__(self):
        assert self.degree_bound >= 1


@dataclass(frozen=True)
class EvaluationPoint:
    """Complex coordinates with every argument strictly inside (-pi, pi)."""

    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(complex(v) for v in self.x))
        for j, v in enumerate(self.x):
            if v == 0:
                raise InfeasibleArgs(f"coordinate {j + 1} is zero")
            if v.imag == 0 and v.real < 0:
                raise BranchCut(f"coordinate {j + 1} on the negative axis")


@dataclass(frozen=True)
class LatticeTerm:
    """One exponent tuple of the series, with its classification."""

    l: tuple                 # Fractions
    sector: object           # TwistedSector
    support: frozenset       # I(l) = {i : l_i not a nonnegative integer}
    owning_cones: tuple
    essential: bool = False
    generator: bool = False

    @property
    def degree(self):
        return sum(abs(v) for v in self.l)


@dataclass
class OrbifoldSum:
    """Per-sector components over the Box of one triangulation."""

    components: dict = field(default_factory=dict)

    def norm(self):
        return max((v.norm() for v in self.components.values()), default=0.0)


@dataclass
class GammaValue:
    value: OrbifoldSum
    algebras: dict
    term_counts: dict
    tail: dict


@dataclass
class DualGammaValue:
    """Coefficients attached to interior-cone generators, per sector."""

    components: dict         # (sector key, cone tuple) -> AlgebraElement
    algebras: dict
    term_counts: dict
    reduced: object = None


def _term_support(l):
    return frozenset(i for i, v in enumerate(l)
                     if not (v.denominator == 1 and v >= 0))


def _negative_integer(v):
    return v.denominator == 1 and v < 0


def _negative_support(l):
    return frozenset(i for i, v in enumerate(l) if _negative_integer(v))


def scalar_power(x, e):
    """x**e on the principal branch, exact for integer e."""
    e = Fraction(e)
    if e.denominator == 1:
        return complex(x) ** int(e)
    return cmath.exp(float(e) * principal_log(x))


def _kernel_basis(data):
    rows = [list(v) for v in data.points]
    kernel = rational.integer_kernel(rows)
    if not kernel:
        return []
    h, _ = rational.hnf([list(k) for k in kernel])
    basis = [row for row in h if any(row)]
    return basis


def _pivot(row):
    for i, v in enumerate(row):
        if v:
            return i
    raise AssertionError("zero kernel row")


def _solutions(l0, basis, bound):
    """All l = l0 + Z-combinations of basis with sum |l_i| <= bound.

    The walk runs in integers: l0 and the bound are scaled by the common
    denominator of l0, and only an emitted tuple becomes Fractions.  The
    basis rows are in echelon form, so the columns left of a row's pivot
    are final once the rows above it are chosen; its coefficient is
    confined to the interval where the pivot entry fits in the budget
    those columns leave.  Tuples come in the order of the coefficients.
    """
    den = math.lcm(*(Fraction(v).denominator for v in l0))
    start = [int(Fraction(v) * den) for v in l0]
    top = bound * den
    rows = [(_pivot(row), [r * den for r in row]) for row in basis]
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


def enumerate_terms(data, t, c, gamma, policy, circuit=None):
    """Terms of the (c, gamma) series inside the degree ball, sorted.

    Tuples whose support set fits in no maximal cone are dropped: their
    value vanishes identically because the support's divisor product is
    a relation of every sector algebra.
    """
    lift = canonical_lift(data, gamma, c)
    basis = _kernel_basis(data)
    maximal = sorted(t.maximal, key=sorted)
    ess = set(map(frozenset, essential_cones(data, t, circuit))) \
        if circuit is not None else set()
    h = tuple(circuit.h) if circuit is not None else None

    def essential_of(l):
        sup = _term_support(l)
        return any(sup <= e for e in ess)

    out = []
    for l in _solutions(lift.values, basis, policy.degree_bound):
        sup = _term_support(l)
        owning = tuple(s for s in maximal if sup <= s)
        if not owning:
            continue
        is_ess = bool(ess) and any(frozenset(s) in ess for s in owning)
        gen = False
        if is_ess:
            back = tuple(v - hv for v, hv in zip(l, h))
            gen = not essential_of(back)
        out.append(LatticeTerm(l=l, sector=gamma, support=sup,
                               owning_cones=owning, essential=is_ess,
                               generator=gen))
    # sorted by degree, then l, compared as the integer tuples den * l:
    # with one denominator they order as the Fractions do
    den = math.lcm(*(Fraction(v).denominator for v in lift.values))

    def key(term):
        scaled = tuple(v.numerator * (den // v.denominator) for v in term.l)
        return sum(map(abs, scaled)), scaled
    out.sort(key=key)
    return out


def _recip_gamma_rows(values, d, ring, dual):
    """Coordinates of 1/Gamma(1 + v + d), one row per sorted distinct v.

    Every v that is not a negative integer, and 0 when some v is, goes
    through one batched ring.recip_gamma call.  A negative integer v = -m
    takes the functional-equation product prod_{i<m} (d - i) times the
    value at 0; the products for successive m extend each other.  dual
    strips the leading factor d: the product starts at i = 1.
    """
    neg = [v for v in values if _negative_integer(v)]
    zs = set(values).difference(neg)
    if neg:
        zs.add(Fraction(0))
    zs = sorted(zs)
    batch = ring.recip_gamma(np.array(zs, dtype=object), d)
    rows = dict(zip(zs, batch.coords))
    if neg:
        at_zero = d.algebra.element(rows[Fraction(0)])
        products = falling_products(d, -int(neg[0]), start=int(dual))
        for v in neg:
            rows[v] = (products[-int(v) - 1] * at_zero).coords
    return np.array([rows[v] for v in values])


def term_values(x, ls, ring, dual=False):
    """prod_j x_j^{l_j + D~_j/2pi i} / Gamma(1 + l_j + D~_j/2pi i), batched.

    One row per exponent tuple of ls: an element batch of shape
    (len(ls), dim).  Per coordinate j the branched power is formed once
    and each distinct exact l_j is evaluated once (_recip_gamma_rows),
    then gathered back to its rows; the factors are multiplied in
    coordinate order, as one term at a time would.  dual=True gives the
    dual-series coefficients: for l_j < 0 integral the reciprocal-Gamma
    factor is divisible by D_j/2pi i, and that leading factor is removed
    (the 1/2pi i kept), realizing the divided coefficient that
    multiplies the generator of the support cone.

    The ring must be in numeric mode (a concrete eps).
    """
    if ring.laurent:
        raise InfeasibleArgs("series terms need a sampled eps")
    ls = list(ls)
    acc = ring.algebra.scalar(np.ones(len(ls)))
    if not ls:
        return acc
    for j, xj in enumerate(x):
        d = ring.divisor(j) * (1.0 / TWO_PI_I)
        column = [l[j] for l in ls]
        values = sorted(set(column))
        index = {v: i for i, v in enumerate(values)}
        take = np.array([index[v] for v in column], dtype=int)
        powers = np.array([scalar_power(xj, v) for v in values])
        rows = _recip_gamma_rows(values, d, ring, dual)
        acc = acc * ring.branched_power(xj, d) * powers[take]
        acc = acc * d.algebra.element(rows[take])
        if dual:
            stripped = np.array([_negative_integer(v) for v in column])
            acc.coords[stripped] *= 1.0 / TWO_PI_I
    return acc


def term_value(x, l, ring):
    """The term at one exponent tuple: the one row of term_values."""
    return ring.algebra.element(term_values(x, [l], ring).coords[0])


def dual_term_value(x, l, ring):
    """The dual-series coefficient at one tuple (term_values, dual=True)."""
    return ring.algebra.element(
        term_values(x, [l], ring, dual=True).coords[0])


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
    if isinstance(x, EvaluationPoint):
        pt = x
    else:
        pt = EvaluationPoint(tuple(x))
    assert len(pt.x) == n, f"need {n} coordinates"
    return pt.x


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

    A NaN shell norm gives a NaN ratio, which the caller's guard rejects.
    """
    degs = sorted(shell_norms)
    vals = [shell_norms[d] for d in degs if shell_norms[d] != 0]
    if len(vals) < 3:
        return {"ratio": 0.0, "checked": False}
    window = vals[-5:]
    ratios = [b / a for a, b in zip(window, window[1:])]
    return {"ratio": nan_max(*ratios), "checked": True}


def _sector_batches(chamber, battery, x, policy, dual=False):
    """One term_values batch per sector for the whole battery.

    Yields, per twisted sector of the chamber in box order, its key, the
    terms of each c of the battery, the slice of the batch that holds
    each c's rows (in term order), and the batch itself.
    """
    for gamma in chamber.box:
        key = gamma.key()
        ring = DeformationRing(chamber.algebras[key], eps=0.0)
        terms = [enumerate_terms(chamber.data, chamber.t, c, gamma, policy)
                 for c in battery]
        ends = list(accumulate(map(len, terms)))
        rows = [slice(end - len(part), end) for part, end in zip(terms, ends)]
        batch = term_values(x, [term.l for part in terms for term in part],
                            ring, dual)
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
    algebras = dict(chamber.algebras)
    out = [GammaValue(OrbifoldSum(), algebras, term_counts={}, tail=None)
           for _ in battery]
    shells = [defaultdict(float) for _ in battery]
    finite = [True] * len(battery)
    for key, terms, rows, batch in _sector_batches(chamber, battery, xs,
                                                   policy):
        norms = batch.norm()
        for i, (val, part, sel) in enumerate(zip(out, terms, rows)):
            for term, norm in zip(part, norms[sel]):
                shells[i][term.degree] += float(norm)
            values = batch.algebra.element(batch.coords[sel])
            finite[i] &= bool(np.isfinite(values.coords).all())
            val.value.components[key] = sum_rows(values)
            val.term_counts[key] = len(part)
    for c, val, shell, ok in zip(battery, out, shells, finite):
        val.tail = _tail_scan(shell)
        if policy.tail_check and val.tail["checked"] \
                and not val.tail["ratio"] < 1.0:
            raise DivergenceSuspected(
                f"shell norms grow with ratio {val.tail['ratio']:.3f}")
        _require_finite(ok, c)
    return out


def evaluate_gamma_dual(chamber, battery, x, policy, module=None):
    """Dual series of every c of the battery: coefficients on the
    interior-cone generators.

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
    algebras = dict(chamber.algebras)
    out = [DualGammaValue(components={}, algebras=algebras, term_counts={})
           for _ in battery]
    finite = [True] * len(battery)
    for key, terms, rows, batch in _sector_batches(chamber, battery, xs,
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
        if module is not None:
            val.reduced = module.reduce_components(val.components)
    return out


# -- PDE residuals ------------------------------------------------------


def _exact_divisor_product(alg, idx):
    acc = [Fraction(0)] * alg.dim
    acc[alg.basis_index[()]] = Fraction(1)
    for i in sorted(idx):
        acc = alg.multiply_exact(acc, alg.divisor_exact(i))
        if not any(acc):
            break
    return acc


def _image_vanishes(alg, l_img):
    """Exact test that the term at l_img is the zero element.

    Each negative-integer coordinate contributes a factor divisible by
    its divisor class, so a vanishing product of those classes kills the
    whole term.
    """
    neg = _negative_support(l_img)
    return not any(_exact_divisor_product(alg, neg))


def _euler_defect(alg, terms, c):
    """Exact Euler residual: scalar part plus the divisor-class part."""
    worst = Fraction(0)
    for row in alg.linear_relation_defects():
        m = max((abs(v) for v in row), default=Fraction(0))
        worst = max(worst, m)
    for term in terms:
        for a in range(alg.data.rank):
            s = sum(lv * Fraction(v[a])
                    for lv, v in zip(term.l, alg.data.points)) + c[a]
            worst = max(worst, abs(s))
    return worst


def _factor_identity_dev(alg, lj):
    """Numeric check of recip(l-1, d) = (l + d) recip(l, d)."""
    ring = DeformationRing(alg, eps=0.0)
    worst = 0.0
    for j in range(alg.data.n):
        d = ring.divisor(j) * (1.0 / TWO_PI_I)
        lhs = ring.recip_gamma(lj - 1, d)
        rhs = (d + complex(lj)) * ring.recip_gamma(lj, d)
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
    assert which in ("primal", "dual")
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
            edges = defaultdict(list)     # sector key -> boundary images
            for gamma in box:
                key = gamma.key()
                alg = algebras[key]
                src = terms[(c, key)]
                dst = {term.l for term in terms[(cn, key)]}
                for term in src:
                    img = tuple(v - (1 if j == i else 0)
                                for j, v in enumerate(term.l))
                    if img in dst:
                        matched += 1
                        lj = term.l[i]
                        skey = (lj, key)
                        if skey not in sampled and len(sampled) < 24:
                            sampled.add(skey)
                            factor_dev = nan_max(
                                factor_dev, _factor_identity_dev(alg, lj))
                        continue
                    if _image_vanishes(alg, img):
                        zero_images += 1
                        continue
                    sup = _term_support(img)
                    in_cone = any(sup <= s for s in t.maximal)
                    if which == "dual" and not in_cone:
                        zero_images += 1      # module relation sends it to 0
                        continue
                    if sum(abs(v) for v in img) > policy.degree_bound:
                        boundary += 1
                        if in_cone:
                            edges[key].append(img)
                        continue
                    mismatches += 1
            boundary_max = nan_max(0.0, *(
                norm for key, imgs in edges.items()
                for norm in term_values(xs, imgs, rings[key],
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
