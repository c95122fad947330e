"""Twisted-sector cohomology algebras as finite nilpotent quotients.

For a sector gamma of a triangulation with support sigma, the algebra is
generated by divisor classes D_j for j in Star(sigma), sigma included,
modulo

  * linear relations sum_j <mu, v_j> D_j = 0 for every mu in M, with
    D_j = 0 off Star(sigma), and
  * Stanley-Reisner monomials: prod_{j in J} D_j = 0 whenever sigma + J
    is not a cone

(Borisov, Chen & Smith, "The orbifold Chow ring of toric Deligne-Mumford
stacks", J. AMS 18, 2005; Borisov & Horja, "On the better behaved version
of the GKZ hypergeometric system", Math. Ann. 357, 2013).  One exact row
reduction of the linear relations writes every D_j as a linear form in
the free generators; the rays of sigma are independent, so their classes
are among those eliminated.  The quotient of the free polynomial ring by
the images of the Stanley-Reisner monomials is graded, and it is built
one degree at a time, by exact row reduction of those images over the
free monomials of each degree, until a degree reduces to zero.  Structure
constants are rational and stored both exactly and as complex arrays for
numeric work.
"""

import cmath
import functools
import operator
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .errors import MonomialUnreduced, NilpotencyUnconfirmed, NonFiniteValue, \
    NotInvertible
from . import rational
from .toric import boundary_facets, compute_box, sector_label, star_rays


def _mono_mul(a, b):
    return tuple(sorted(a + b))


class SectorAlgebra:
    """H_gamma for one twisted sector of one triangulation."""

    def __init__(self, data, t, sector):
        self.data = data
        self.sector = sector
        support = sector.support
        self.generators = tuple(sorted(star_rays(t, support)))
        self._build(data, t, support)
        self._finish_numeric()

    # -- construction ---------------------------------------------------

    def _build(self, data, t, support):
        """Eliminate the linear relations once, then reduce degree by degree.

        One reduction of the rank coordinate relations, columns sigma and
        then the generators, each sorted, writes every class D_j, j in
        Star(sigma), as a linear form in the free generators (the
        non-pivot columns).  The Stanley-Reisner ideal then lives in the
        free generators, spanned in degree d by the images of the minimal
        non-faces N of the link times the free monomials of degree
        d - |N|.  Reduced over the degree-d free monomials in sorted
        order, the non-pivot columns are the degree-d basis, and a pivot
        row, fully reduced, writes its pivot monomial over them.  The
        first degree with an empty basis is zero_degree: every monomial
        of that degree or above reduces to zero.
        """
        gens = self.generators
        cols = sorted(support) + list(gens)
        shift = len(support)
        reduced, pivots = rational.rref(
            [[data.points[j][a] for j in cols] for a in range(data.rank)])
        free = [g for g in range(len(gens)) if shift + g not in pivots]
        self._forms = {gens[g]: {(g,): Fraction(1)} for g in free}
        for row, c in zip(reduced, pivots):
            self._forms[cols[c]] = {(g,): -row[shift + g] for g in free
                                    if row[shift + g]}
        images, layer = [], {()}    # layer: the link's faces of one size
        while layer:
            grown = set()
            for f in layer:
                for g in range(f[-1] + 1 if f else 0, len(gens)):
                    n = f + (g,)
                    if any(n[:i] + n[i + 1:] not in layer
                           for i in range(len(n))):
                        continue
                    if t.is_cone(support | {gens[i] for i in n}):
                        grown.add(n)
                    else:
                        images.append((len(n), self._product(
                            gens[i] for i in n)))
            layer = grown
        basis = [()]
        self._reduce = {(): {0: Fraction(1)}}   # sparse over basis positions
        for d in range(1, 2 * data.rank + 2):
            monos = list(combinations_with_replacement(free, d))
            rows = []
            for size, poly in (im for im in images if im[0] <= d):
                for m in combinations_with_replacement(free, d - size):
                    prod = {_mono_mul(p, m): c for p, c in poly.items()}
                    rows.append([prod.get(x, 0) for x in monos])
            reduced, pivots = rational.rref(rows)
            free_cols = [i for i in range(len(monos)) if i not in pivots]
            if not free_cols:
                self.zero_degree = d
                break
            pos = {i: len(basis) + k for k, i in enumerate(free_cols)}
            basis.extend(monos[i] for i in free_cols)
            for i in free_cols:
                self._reduce[monos[i]] = {pos[i]: Fraction(1)}
            for row, c in zip(reduced, pivots):
                self._reduce[monos[c]] = {pos[i]: -row[i] for i in free_cols
                                          if row[i]}
        else:
            raise NilpotencyUnconfirmed(
                f"sector {sector_label(self.sector.key())} of {t.label}: "
                f"nilpotency degree not confirmed within degree "
                f"{2 * data.rank + 1}")
        self.basis = tuple(basis)
        self.dim = len(basis)

    def _product(self, idx):
        """prod_{j in idx} D_j as a polynomial {free monomial: Fraction}."""
        poly = {(): Fraction(1)}
        for j in idx:
            out = {}
            for a, x in poly.items():
                for b, y in self._forms.get(j, {}).items():
                    m = _mono_mul(a, b)
                    out[m] = out.get(m, 0) + x * y
            poly = {m: c for m, c in out.items() if c}
        return poly

    def _normal_form(self, poly):
        """Exact basis coordinates of a polynomial in the free generators."""
        out = [Fraction(0)] * self.dim
        for mono, c in poly.items():
            if len(mono) >= self.zero_degree:
                continue
            vec = self._reduce.get(mono)
            if vec is None:
                raise MonomialUnreduced(
                    f"monomial {mono} outside reduction table")
            for b, x in vec.items():
                out[b] += c * x
        return out

    def _finish_numeric(self):
        self.basis_index = {m: i for i, m in enumerate(self.basis)}
        self._divisor_exact = {j: self.divisor_product_exact((j,))
                               for j in range(self.data.n)}
        table = np.zeros((self.dim, self.dim, self.dim), dtype=complex)
        self._mult_exact = {}
        for a, ma in enumerate(self.basis):
            for b, mb in enumerate(self.basis):
                vec = self._normal_form({_mono_mul(ma, mb): Fraction(1)})
                self._mult_exact[(a, b)] = vec
                table[a, b, :] = [float(x) for x in vec]
        self.mult_table = table
        self._divisor_num = {
            j: np.array([float(x) for x in v], dtype=complex)
            for j, v in self._divisor_exact.items()
        }

    @property
    def mult_table(self):
        """Structure constants: e_a e_b = sum_c mult_table[a, b, c] e_c."""
        return self._mult_table

    @mult_table.setter
    def mult_table(self, table):
        # the product plan, which is all that multiply reads: each nonzero
        # constant t = table[a, b, c] is a term (a, b, t), in (c, a, b)
        # order, and output coordinate c sums the terms lo:hi of its span
        self._mult_table = table
        c, a, b = np.nonzero(table.transpose(2, 0, 1))
        t = table[a, b, c]
        self._terms = tuple(zip(a.tolist(), b.tolist(), t.tolist()))
        self._gather = (a, b)
        self._scaled = (np.flatnonzero(t != 1), t[t != 1])
        c = c.tolist()
        self._spans = tuple((k, c.index(k), c.index(k) + c.count(k))
                            for k in sorted(set(c)))

    # -- public API -----------------------------------------------------

    def element(self, coords):
        """Element with the given coordinates; shape (..., dim) is a batch."""
        arr = np.asarray(coords, dtype=complex)
        # internal: coordinates come from this algebra's own arrays
        assert arr.shape[-1:] == (self.dim,)
        return AlgebraElement(self, arr)

    def zero(self):
        return self.element(np.zeros(self.dim))

    def one(self):
        coords = np.zeros(self.dim, dtype=complex)
        coords[self.basis_index[()]] = 1.0
        return AlgebraElement(self, coords)

    def scalar(self, value):
        """value times 1; an array of values gives a batch."""
        coords = np.zeros(np.shape(value) + (self.dim,), dtype=complex)
        coords[..., self.basis_index[()]] = value
        return AlgebraElement(self, coords)

    def divisor(self, j):
        """Class of D_j; zero off Star(sigma).

        For j in Star(sigma), sigma included, the class is the linear
        form in the free generators that the relations
        sum_j <mu, v_j> D_j = 0, mu in M, leave.
        """
        return AlgebraElement(self, self._divisor_num[j].copy())

    def divisor_product_exact(self, idx):
        """Exact coordinates of prod_{j in idx} D_j."""
        return self._normal_form(self._product(idx))

    def multiply(self, x, y):
        """Row-wise product of coordinate arrays x and y of shape (..., dim).

        Their leading axes broadcast.  Coordinate c sums t x_a y_b over
        the terms of its span in (a, b) order, each product numpy's
        complex multiply out of place (in place, it rounds a 1-element
        array differently).  Two single elements add their gathered
        products left to right (builtin sum compensates on newer
        Pythons), batches sum whole columns, and a row gets the same bits
        either way.
        """
        if x.ndim == y.ndim == 1:
            a, b = self._gather
            p = x[a] * y[b]
            k, t = self._scaled
            if len(k):
                p[k] = p[k] * t
            p = p.tolist()
            out = np.zeros(self.dim, dtype=complex)
            for c, lo, hi in self._spans:
                out[c] = functools.reduce(operator.add, p[lo:hi])
            return out
        out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for c, lo, hi in self._spans:
            col = None
            for a, b, t in self._terms[lo:hi]:
                p = x[..., a] * y[..., b]
                if t != 1:
                    p = p * t
                if col is None:
                    col = p
                else:
                    col += p
            out[..., c] = col
        return out

    def linear_relation_defects(self):
        """Exact residuals sum_j v_j[a] D_j, one per coordinate a, over all j.

        The build writes every class over the free generators, so each
        residual is zero; a nonzero one means a class broke the relations.
        """
        out = []
        for a in range(self.data.rank):
            vec = [Fraction(0)] * self.dim
            for j in range(self.data.n):
                cj = Fraction(self.data.points[j][a])
                if cj:
                    dv = self._divisor_exact[j]
                    vec = [x + cj * y for x, y in zip(vec, dv)]
            out.append(vec)
        return out

    def nilpotency_order(self, j):
        """Smallest k with D_j^k == 0."""
        el = self.divisor(j)
        acc = self.one()
        for k in range(1, self.zero_degree + 2):
            acc = acc * el
            if acc.is_zero():
                return k
        raise NilpotencyUnconfirmed(f"divisor class D_{j + 1} fails to be "
                                    f"nilpotent")


class Chamber:
    """The sector algebras of one triangulation, built once and shared.

    This is the eps-independent half of every computation on one side of
    a wall: the twisted sectors (`box`) and one SectorAlgebra per sector
    (`algebras`, keyed by sector key).  A command builds one chamber per
    triangulation it uses and passes it down, so every deformation
    sample and every series evaluation reads the same algebras.  The
    boundary facets of the support cone (`facets`) are found on first
    use.
    """

    def __init__(self, data, t):
        self.data = data
        self.t = t
        self.box = compute_box(data, t)
        self.algebras = {g.key(): SectorAlgebra(data, t, g) for g in self.box}

    @functools.cached_property
    def facets(self):
        return boundary_facets(self.data, self.t)


class AlgebraElement:
    """Element of a SectorAlgebra: complex coordinates over its basis.

    coords has shape (..., dim).  Leading axes, when present, index a
    batch of elements of the same algebra (one per quadrature node, say);
    arithmetic acts row by row and broadcasts a single element against a
    batch.  Scalars may be numbers or arrays of the batch shape.

    Every product goes through SectorAlgebra.multiply: each output
    coordinate is a short sum over the algebra's nonzero structure
    constants, one formula for two single elements and for batches.  A
    row's product is the same bits whatever batch it sits in: every
    multiply is one of numpy's out-of-place array loops, and no step
    multiplies numpy complex scalars, which round differently from them.
    """

    __slots__ = ("algebra", "coords")
    # numpy defers to the operators below instead of broadcasting over
    # the element as an object, so that array * element is a batch
    __array_ufunc__ = None

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

    @property
    def scalar_part(self):
        """Coefficient of 1: a complex number, or an array for a batch."""
        v = self.coords[..., self.algebra.basis_index[()]]
        return complex(v) if np.ndim(v) == 0 else v

    def nilpotent_part(self):
        out = self.coords.copy()
        out[..., self.algebra.basis_index[()]] = 0.0
        return AlgebraElement(self.algebra, out)

    def is_zero(self, tol=0.0):
        """True when every coordinate of every batch row is within tol."""
        return bool(np.max(np.abs(self.coords)) <= tol) if self.coords.size \
            else True

    def norm(self):
        """Largest coordinate modulus; one per row for a batch."""
        out = np.max(np.abs(self.coords), axis=-1)
        return float(out) if out.ndim == 0 else out

    def sum(self):
        """Sum of a batch over its leading axis, as numpy reduces it.

        With two or more coordinates numpy adds the rows in order.  With
        one coordinate the column is contiguous, and numpy sums it like
        any 1-d array, pairwise in unrolled blocks; the result may then
        differ from the row-order sum in the last bits.
        """
        if self.coords.ndim < 2:
            raise ValueError("sum() needs a batch of elements")
        return AlgebraElement(self.algebra, self.coords.sum(axis=0))

    def __add__(self, other):
        other = self._coerce(other)
        return AlgebraElement(self.algebra, self.coords + other.coords)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.coords)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return AlgebraElement(self.algebra, self.coords * other)
        if isinstance(other, np.ndarray):
            return AlgebraElement(self.algebra, self.coords * other[..., None])
        if isinstance(other, AlgebraElement):
            # internal: elements meet only inside one DeformationRing or
            # one sector's series, which hold a single algebra
            assert other.algebra is self.algebra, "mixed-algebra product"
            return AlgebraElement(self.algebra, self.algebra.multiply(
                self.coords, other.coords))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.ndarray)):
            return self * other
        return NotImplemented

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            # internal: as for products, sums never mix sector algebras
            assert other.algebra is self.algebra
            return other
        if isinstance(other, (int, float, complex, np.ndarray)):
            return self.algebra.scalar(other)
        raise TypeError(f"cannot combine AlgebraElement with {type(other)!r}")

    def power(self, k):
        acc = self if k > 0 else self.algebra.one()
        for _ in range(k - 1):
            acc = acc * self
        return acc


def algebra_exp(element):
    """exp of an element: exact scalar exp times a finite nilpotent series."""
    alg = element.algebra
    s = element.scalar_part
    n = element.nilpotent_part()
    acc = alg.one() + n
    term = n
    for k in range(2, alg.zero_degree + 1):
        term = term * n * (1.0 / k)
        if term.is_zero():
            break
        acc = acc + term
    try:
        return acc * (cmath.exp(s) if isinstance(s, complex) else np.exp(s))
    except OverflowError:
        raise NonFiniteValue(f"exp of the scalar part {s:.3e} overflows") \
            from None


def algebra_inverse(element):
    """Inverse via the terminating geometric series; NotInvertible at s=0."""
    s = element.scalar_part
    if np.any(s == 0):
        raise NotInvertible("zero scalar part")
    n = element.nilpotent_part() * (-1.0 / s)
    acc = element.algebra.one() + n
    term = n
    for _ in range(element.algebra.zero_degree):
        term = term * n
        if term.is_zero():
            break
        acc = acc + term
    return acc * (1.0 / s)
