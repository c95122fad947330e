"""Lattice points, triangulations, circuits, and twisted sectors.

The ambient data is a rank-d lattice N, points v_1..v_n of degree one under
a fixed grading functional, and the cone C spanned by all the points.  A
triangulation is given by its maximal cones (index sets into the points).
Everything in this module is exact, and the lattice work is in machine
integers; Fractions remain only where a value is read as a rational:
the sector coordinates (TwistedSector.coords, which the sector algebras'
exact build and the report strings read) and the values of a Lift.

The lattice data of a command is formed once, on first use, and hangs
off the command's own objects.  The points have one integer lattice,
ToricData.lattice: their Hermite normal form with its unimodular
transform, the integer kernel and the kernel's HNF basis.
validate_toric_data reads its index, find_circuit and the lifts its
kernel, and series.enumerate_terms walks the kernel basis.  Each
maximal cone has one RayFrame, kept by ToricData.frame: the HNF of its
rays, whose pivots multiply to the cone's index, from which a point's
coordinates in the ray basis come in integers, times the index
(RayFrame.scaled), and whose inverse, read the same way, gives the
cone's facet normals.  compute_box reads the sector of one point per
class of Z^d modulo each maximal cone's ray lattice, and the cone
membership test the signs of the scaled coordinates.  A sector keeps
its key, hashed once, and its coordinates as integer numerators over
one denominator (TwistedSector.key, .den, .nums); lift_table solves for
the lifts of a whole battery of c in one int64 pass over the lattice.

Index convention: points are 0-based internally; fixture files and reports
use 1-based indices.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .errors import (
    Infeasible,
    NonUnitDegree,
    NotACone,
    NotAdjacent,
    RankDeficient,
    SublatticeIndex,
)
from . import rational


class PointLattice:
    """Integer lattice data of the points v_1..v_n, as int row tuples.

    One HNF of the points and one of their kernel: transform * points
    == hnf on the first len(hnf) rows; the remaining rows of the
    unimodular transform are the kernel, a basis of the integer
    relations {z : sum z_j v_j = 0}, and kernel_basis is that kernel in
    HNF.
    """

    __slots__ = ("hnf", "transform", "kernel", "kernel_basis")

    def __init__(self, points):
        h, t = rational._hnf_full([list(map(int, v)) for v in points])
        kernel = t[len(h):]
        self.hnf, self.transform, self.kernel, self.kernel_basis = (
            tuple(map(tuple, m))
            for m in (h, t, kernel, rational.hnf(kernel)[0]))


@dataclass(frozen=True)
class ToricData:
    """Points with a degree-one grading in a rank-d lattice."""

    rank: int
    points: tuple  # tuple of tuple[int], length n
    deg: tuple     # grading functional coefficients, length d

    @property
    def n(self):
        return len(self.points)

    @cached_property
    def lattice(self):
        """The points' PointLattice, built on first use."""
        return PointLattice(self.points)

    @cached_property
    def _frames(self):
        return {}

    def frame(self, sigma):
        """The RayFrame of the cone sigma, or None when its rays are not
        a basis of Q^d; formed on first use and kept, like lattice."""
        sigma = frozenset(sigma)
        if sigma not in self._frames:
            h, u = rational._hnf_full(_simplex_matrix(self, sigma))
            self._frames[sigma] = RayFrame(h, u) \
                if len(sigma) == self.rank == len(h) else None
        return self._frames[sigma]

    def degree(self, v):
        return sum(a * b for a, b in zip(self.deg, v))

    def combine(self, coeffs):
        """Sum of coeffs[i] * v_i as a coordinate tuple (exact)."""
        out = [Fraction(0)] * self.rank
        for c, v in zip(coeffs, self.points):
            if c:
                for j in range(self.rank):
                    out[j] += Fraction(c) * v[j]
        return tuple(out)


@dataclass(frozen=True)
class Triangulation:
    """A simplicial fan structure on C, given by maximal cones."""

    label: str
    maximal: tuple  # tuple of frozenset[int]

    def cones(self):
        """All faces of all maximal cones, including the empty cone."""
        faces = set()
        for sigma in self.maximal:
            idx = sorted(sigma)
            for size in range(len(idx) + 1):
                for sub in combinations(idx, size):
                    faces.add(frozenset(sub))
        return faces

    def is_cone(self, index_set):
        s = frozenset(index_set)
        return any(s <= sigma for sigma in self.maximal)


@dataclass(frozen=True)
class Circuit:
    """Primitive relation sum h_j v_j = 0 supporting an adjacent flip.

    Sign normalization: the plus-side triangulation's modified cones each
    omit exactly one index from I_plus = {j : h_j > 0}.
    """

    h: tuple  # length n, integers
    plus_label: str
    minus_label: str

    @property
    def support(self):
        return frozenset(j for j, hj in enumerate(self.h) if hj)

    @property
    def I_plus(self):
        return frozenset(j for j, hj in enumerate(self.h) if hj > 0)

    @property
    def I_minus(self):
        return frozenset(j for j, hj in enumerate(self.h) if hj < 0)


class SectorKey(tuple):
    """A sector's coordinates as a tuple whose hash is computed once.

    It equals, and hashes like, the plain tuple of the coordinates; a
    dict lookup with it hashes no Fraction.
    """

    def __new__(cls, coords):
        key = super().__new__(cls, coords)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class TwistedSector:
    """Box element: gamma = sum gamma_j v_j with gamma_j in [0,1).

    Its support, key and integer form (den, nums) are formed once.
    """

    coords: tuple   # length n of Fraction in [0,1)
    point: tuple    # integer coordinates of the lattice point

    @cached_property
    def support(self):
        return frozenset(j for j, g in enumerate(self.coords) if g)

    @cached_property
    def _key(self):
        return SectorKey(self.coords)

    def key(self):
        """Deterministic sort/identity key: one SectorKey per sector."""
        return self._key

    @cached_property
    def den(self):
        """The common denominator of the coordinates."""
        return math.lcm(*(g.denominator for g in self.coords))

    @cached_property
    def nums(self):
        """The coordinates as integer numerators over den."""
        return tuple(g.numerator * (self.den // g.denominator)
                     for g in self.coords)


@dataclass(frozen=True)
class Lift:
    """Rational solution l of sum l_j v_j = -c with {l_j} = gamma_j."""

    sector: TwistedSector
    c: tuple      # integer coordinates
    values: tuple  # length n of Fraction


def validate_toric_data(data):
    """Degree-one, full-rank and Z-span checks; raises on violation."""
    for i, v in enumerate(data.points):
        if len(v) != data.rank:
            raise RankDeficient(f"point {i + 1} has wrong dimension")
        if data.degree(v) != 1:
            raise NonUnitDegree(f"point {i + 1} has degree {data.degree(v)}")
    h = data.lattice.hnf
    if len(h) != data.rank:
        raise RankDeficient("points do not span the lattice over Q")
    index = _pivot_product(h)
    if index != 1:
        raise SublatticeIndex(
            f"points span a sublattice of index {index} in Z^{data.rank}")
    return True


def _simplex_matrix(data, sigma):
    return [list(data.points[j]) for j in sorted(sigma)]


def _pivot_product(h):
    """Product of the pivots of HNF rows h: with d rows in Z^d, the index
    of their lattice."""
    return math.prod(next(x for x in row if x) for row in h)


class RayFrame:
    """The integer frame of a full-dimensional simplicial cone.

    h = u * rays is the HNF of the cone's rays (sorted), upper
    triangular with pivots on the diagonal, and m the product of the
    pivots, the cone's index.  ToricData.frame forms one per cone.
    """

    __slots__ = ("h", "u", "m", "_normals")

    def __init__(self, h, u):
        self.h, self.u, self.m = h, u, _pivot_product(h)
        self._normals = None

    def scaled(self, x):
        """m times the coordinates of the integer vector x in the ray
        basis, one per ray in sorted order.

        With x = z h, z u are the coordinates; m h^-1 is integral, so m z
        comes by forward substitution in integers, each division exact.
        """
        h, m = self.h, self.m
        mz = []
        for i, xi in enumerate(x):
            mz.append((m * xi - sum(a * row[i] for a, row in zip(mz, h)))
                      // h[i][i])
        return [sum(a * b for a, b in zip(mz, col)) for col in zip(*self.u)]

    def normal(self, i):
        """Primitive normal of the facet that omits the i-th ray (sorted
        order), positive on that ray.

        Column i of m R^-1, R the ray rows, is zero on every other ray
        and m on ray i; its rows are the scaled coordinates of the unit
        vectors.  Divided by the gcd of its entries it is the facet's one
        primitive normal with that sign.  All d are formed on first use.
        """
        if self._normals is None:
            d = len(self.h)
            rows = [self.scaled([int(a == b) for b in range(d)])
                    for a in range(d)]
            self._normals = [tuple(x // g for x in col)
                             for col in zip(*rows) for g in [math.gcd(*col)]]
        return list(self._normals[i])


def cone_index(data, sigma):
    """Lattice index (|det|) of a full-dimensional simplicial cone.

    The product of the HNF pivots of the ray rows (RayFrame.m); 0 when
    the rays are not a basis of Q^d.
    """
    frame = data.frame(sigma)
    return frame.m if frame is not None else 0


def boundary_facets(data, t):
    """Outward-supporting facet functionals of C derived from t.

    Returns a list of integer functionals mu with mu >= 0 on all points and
    mu == 0 on some facet of the cone C.  Used for interior tests.
    """
    seen = {}
    for sigma in t.maximal:
        for facet in combinations(sorted(sigma), data.rank - 1):
            mu = _facet_normal(data, facet, sigma)
            if mu is None:
                continue
            if all(_apply(mu, v) >= 0 for v in data.points):
                seen[tuple(mu)] = mu
            elif all(_apply(mu, v) <= 0 for v in data.points):
                seen[tuple(-x for x in mu)] = [-x for x in mu]
    return [list(mu) for mu in seen]


def _apply(mu, v):
    return sum(a * b for a, b in zip(mu, v))


def _facet_normal(data, facet, sigma):
    """Primitive normal of span(facet), oriented positive on sigma's extra ray.

    Read off sigma's RayFrame (RayFrame.normal).  None when the facet is
    empty or sigma's rays are not a basis.
    """
    frame = data.frame(sigma)
    if not facet or frame is None:
        return None
    rays = sorted(sigma)
    extra = next(iter(set(sigma) - set(facet)))
    return frame.normal(rays.index(extra))


def check_triangulation(data, t):
    """Structural triangulation check with diagnostics.

    Verifies: maximal cones are full-dimensional and simplicial, and every
    facet of a maximal cone either supports C (boundary wall) or is shared
    by exactly two maximal cones (interior wall).

    Returns (ok, messages).
    """
    messages = []
    for sigma in t.maximal:
        if len(sigma) != data.rank:
            messages.append(f"cone {_fmt(sigma)} is not full-dimensional")
            continue
        if cone_index(data, sigma) == 0:
            messages.append(f"cone {_fmt(sigma)} is degenerate")
    if messages:
        return False, messages
    for sigma in t.maximal:
        for facet in combinations(sorted(sigma), data.rank - 1):
            mu = _facet_normal(data, facet, sigma)
            if mu is None:
                messages.append(f"facet {_fmt(facet)} has no hyperplane")
                continue
            on_boundary = all(_apply(mu, v) >= 0 for v in data.points)
            count = len([s for s in t.maximal if frozenset(facet) <= s])
            if on_boundary:
                if count != 1:
                    messages.append(
                        f"boundary facet {_fmt(facet)} shared by {count} cones")
            else:
                if count != 2:
                    messages.append(
                        f"interior wall {_fmt(facet)} shared by {count} cones")
    return (not messages), messages


def _fmt(index_set):
    return "{" + ",".join(str(j + 1) for j in sorted(index_set)) + "}"


def sector_label(coords):
    """Compact display form of sector coordinates: '(0,1/2,0)'."""
    return "(" + ",".join(str(v) for v in coords) + ")"


def find_circuit(data, t_plus, t_minus):
    """Circuit relating two adjacent triangulations, with normalized sign.

    Raises NotAdjacent when the modified cones are not explained by a
    single primitive relation.
    """
    changed_plus = [s for s in t_plus.maximal if s not in t_minus.maximal]
    changed_minus = [s for s in t_minus.maximal if s not in t_plus.maximal]
    if not changed_plus or not changed_minus:
        raise NotAdjacent("triangulations are identical")
    # local patch: every modified cone is the patch minus one circuit index
    patch = frozenset().union(*changed_plus, *changed_minus)
    rays = sorted(patch)
    # relations among the patch's points: the combinations of the points'
    # kernel basis that vanish off the patch
    basis = data.lattice.kernel_basis
    outside = [j for j in range(data.n) if j not in patch]
    kernel = [[sum(a * row[j] for a, row in zip(z, basis)) for j in rays]
              for z in rational.integer_kernel(
                  [[row[j] for j in outside] for row in basis])]
    if len(kernel) != 1:
        raise NotAdjacent("modified patch does not carry a unique relation")
    g = math.gcd(*kernel[0])
    local = [x // g for x in kernel[0]]
    h = [0] * data.n
    for j, hj in zip(rays, local):
        h[j] = hj
    for sign in (1, -1):
        cand = tuple(sign * x for x in h)
        if _matches_flip(cand, patch, changed_plus, changed_minus):
            return Circuit(h=cand, plus_label=t_plus.label,
                           minus_label=t_minus.label)
    raise NotAdjacent("modified cones do not follow the circuit pattern")


def _matches_flip(h, patch, changed_plus, changed_minus):
    support = frozenset(j for j, hj in enumerate(h) if hj)
    i_plus = frozenset(j for j, hj in enumerate(h) if hj > 0)
    i_minus = support - i_plus
    def side_ok(changed, side):
        missing = set()
        for sigma in changed:
            gap = patch - sigma
            if len(gap) != 1:
                return False
            i = next(iter(gap))
            if i not in side:
                return False
            missing.add(i)
        return missing == set(side)
    return side_ok(changed_plus, i_plus) and side_ok(changed_minus, i_minus)


def star_of(t, sigma):
    """Maximal cones of t containing sigma; NotACone if sigma is no face."""
    s = frozenset(sigma)
    if not t.is_cone(s):
        raise NotACone(f"{_fmt(s)} is not a cone of {t.label}")
    return [m for m in t.maximal if s <= m]


def star_rays(t, sigma):
    """Indices i with sigma + {i} still a cone, excluding sigma itself."""
    s = frozenset(sigma)
    out = set()
    for m in star_of(t, sigma):
        out |= m
    return frozenset(i for i in out - s if t.is_cone(s | {i}))


def compute_box(data, t):
    """All twisted sectors of t, sorted deterministically.

    The lattice points of the half-open parallelepiped of a
    full-dimensional maximal cone's rays are one per class of Z^d modulo
    the rays' lattice.  That lattice's HNF h = u * rays is upper
    triangular with pivots p_i, so the x with 0 <= x_i < p_i are one
    point per class.  The fractional parts of x's coordinates in the ray
    basis are the class's sector; m = prod p_i clears every
    denominator, so the work is in integers, m times the coordinates
    reduced mod m.
    """
    found = {}
    for sigma in t.maximal:
        frame = data.frame(sigma)
        if frame is None:
            continue
        m = frame.m
        rays = sorted(sigma)
        for x in product(*(range(row[i]) for i, row in enumerate(frame.h))):
            ks = [k % m for k in frame.scaled(x)]
            coords = [Fraction(0)] * data.n
            for j, k in zip(rays, ks):
                coords[j] = Fraction(k, m)
            point = tuple(sum(k * data.points[j][a] for j, k in zip(rays, ks))
                          // m for a in range(data.rank))
            sector = TwistedSector(coords=tuple(coords), point=point)
            found[sector.key()] = sector
    return sorted(found.values(), key=lambda s: s.key())


def essential_cones(data, t, circuit):
    """Maximal cones omitting exactly one index of the circuit's own side.

    The side is inferred from which omission pattern the triangulation
    matches (I_plus for the plus-side triangulation).
    """
    support = circuit.support
    for side in (circuit.I_plus, circuit.I_minus):
        cones = [s for s in t.maximal
                 if len(support - s) == 1 and next(iter(support - s)) in side]
        pattern = {next(iter(support - s)) for s in cones}
        if pattern == set(side):
            return sorted(cones, key=lambda s: sorted(s))
    raise NotAdjacent(f"{t.label} does not match either side of the circuit")


def essential_sectors(data, t, circuit, box):
    """Sectors in box whose support cone sits inside an essential cone.

    box is the list of sectors of t, as compute_box returns it.
    """
    essential = essential_cones(data, t, circuit)
    return [sector for sector in box
            if any(sector.support <= s for s in essential)]


def lift_table(data, sector, battery):
    """The canonical lifts of every c of the battery, in integers.

    A lift l has {l_j} = gamma_j and sum l_j v_j = -c; its integer part
    is the HNF-reduced representative modulo the integer kernel lattice
    of the points, so equal inputs give equal outputs.  One int64 pass
    over the lattice (rational.solve_integer, reduce_mod_lattice) serves
    the whole battery.  Returns the table of numerators sector.den * l,
    a row per c; Infeasible when some c has no lift.
    """
    target = -np.array(battery, dtype=np.int64).reshape(len(battery),
                                                        data.rank) \
        - np.array(sector.point, dtype=np.int64)
    lattice = data.lattice
    z = rational.solve_integer(lattice.hnf, lattice.transform, target)
    if z is None:
        raise Infeasible("no integer lift with the prescribed fractional parts")
    z = rational.reduce_mod_lattice(z, lattice.kernel_basis)
    return z * sector.den + np.array(sector.nums, dtype=np.int64)


def canonical_lift(data, sector, c):
    """Deterministic rational lift l with {l_j} = gamma_j, sum l_j v_j = -c.

    lift_table's row for a battery of one c, read as Fractions.
    """
    [row] = lift_table(data, sector, [c]).tolist()
    return Lift(sector=sector, c=tuple(int(ci) for ci in c),
                values=tuple(Fraction(v, sector.den) for v in row))


def adjacent_sector(data, circuit, t_minus, sector, k, r, lift=None):
    """Minus-side sector reached from a plus-side sector through pole (k, r).

    k must be in I_minus and 0 <= r < -h_k.  The sector is read off the
    shifted lift l'' = l' + q h with q = (l'_k - r) / (-h_k).
    """
    if k not in circuit.I_minus:
        raise ValueError("k must carry a negative circuit coefficient")
    hk = circuit.h[k]
    if not 0 <= r < -hk:
        raise ValueError(f"r must lie in [0, {-hk})")
    if lift is None:
        lift = canonical_lift(data, sector, (0,) * data.rank)
    q = (lift.values[k] - r) / (-hk)
    shifted = [lv + q * hj for lv, hj in zip(lift.values, circuit.h)]
    coords = [x - _floor(x) for x in shifted]
    point = data.combine(coords)
    # internal: sum_j l''_j v_j = -c and the floors of l'' are integers
    assert all(p.denominator == 1 for p in point)
    gamma = TwistedSector(coords=tuple(coords),
                          point=tuple(int(p) for p in point))
    if not t_minus.is_cone(gamma.support):
        raise NotACone(
            f"shifted sector support {_fmt(gamma.support)} not in {t_minus.label}")
    return gamma, Lift(sector=gamma, c=lift.c, values=tuple(shifted))


def _floor(x):
    return x.numerator // x.denominator


def interior_cones(data, t, facets):
    """Faces of t whose relative interior lies inside the open support cone.

    A nonempty face qualifies iff the sum of its rays is an interior
    point of the support; the empty face never does.  facets are
    boundary_facets(data, t).
    """
    out = []
    for sigma in sorted(t.cones(), key=lambda s: (len(s), sorted(s))):
        if not sigma:
            continue
        pt = [0] * data.rank
        for j in sigma:
            pt = [a + b for a, b in zip(pt, data.points[j])]
        if all(_apply(mu, pt) > 0 for mu in facets):
            out.append(sigma)
    return out


def is_interior_point(data, t, c, facets):
    """True when c lies in the open cone spanned by the points.

    facets are boundary_facets(data, t).
    """
    if not _in_cone(data, t, c):
        return False
    return all(_apply(mu, c) > 0 for mu in facets)


def _in_cone(data, t, c):
    frames = (data.frame(sigma) for sigma in t.maximal)
    return any(all(k >= 0 for k in frame.scaled(c))
               for frame in frames if frame is not None)
