"""Twisted-sector cohomology algebras as finite nilpotent quotients.

For a sector gamma of a triangulation, the algebra is generated by divisor
classes D_i for i in Star(sigma(gamma)) \\ sigma(gamma), modulo

  * Stanley-Reisner monomials: prod_{j in J} D_j = 0 whenever
    sigma(gamma) + J is not a cone, and
  * linear relations sum_i mu(v_i) D_i = 0 for functionals mu vanishing
    on the rays of sigma(gamma).

Both kinds of relation are homogeneous, so the quotient is graded (Borisov,
Chen & Smith, "The orbifold Chow ring of toric Deligne-Mumford stacks",
J. AMS 18, 2005).  It is built one degree at a time, by exact row reduction
of the degree-d relations over the degree-d monomials that survive the
Stanley-Reisner relations, until a degree reduces to zero.  Structure
constants are rational and stored both exactly and as complex arrays for
numeric work.
"""

import cmath
import functools
from fractions import Fraction

import numpy as np

from .errors import MonomialUnreduced, NilpotencyUnconfirmed, NotInvertible
from . import rational
from .toric import boundary_facets, compute_box, sector_label, star_rays


def _mono_mul(a, b):
    return tuple(sorted(a + b))


class SectorAlgebra:
    """H_gamma for one twisted sector of one triangulation."""

    def __init__(self, data, t, sector):
        self.data = data
        self.t_label = t.label
        self.sector = sector
        support = sector.support
        self.generators = tuple(sorted(star_rays(t, support)))
        self._build(data, t, support)
        self._finish_numeric()

    # -- construction ---------------------------------------------------

    def _build(self, data, t, support):
        """Reduce the relations degree by degree, up to the first zero degree.

        A relation row (linear form) * m is homogeneous of degree deg m + 1,
        so the relations of degree d are the annihilator forms times the
        degree-(d - 1) monomials, and each degree reduces on its own.  The
        non-pivot columns of the reduced form are the degree-d basis; a
        pivot row, fully reduced, already writes its pivot monomial over
        them.  The first degree with an empty basis is zero_degree: every
        monomial of that degree or above reduces to zero.
        """
        gens = self.generators

        def sr_zero(mono):
            J = frozenset(gens[g] for g in mono)
            return not t.is_cone(support | J)

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
        reductions = {(): {0: Fraction(1)}}   # sparse over basis positions
        prev = [()]                           # SR survivors of degree d - 1
        for d in range(1, 2 * data.rank + 2):
            products = {_mono_mul(p, (g,)) for p in prev
                        for g in range(len(gens))}
            monos = sorted(m for m in products if not sr_zero(m))
            index = {m: i for i, m in enumerate(monos)}
            rows = []
            for form in forms:
                for p in prev:
                    row = [Fraction(0)] * len(monos)
                    for g, c in form:
                        i = index.get(_mono_mul(p, (g,)))
                        if i is not None:
                            row[i] = c
                    rows.append(row)
            reduced, pivots = rational.rref(rows)
            free = sorted(set(range(len(monos))) - set(pivots))
            if not free:
                self.zero_degree = d
                break
            pos = {i: len(basis) + k for k, i in enumerate(free)}
            basis.extend(monos[i] for i in free)
            for i in free:
                reductions[monos[i]] = {pos[i]: Fraction(1)}
            for row, c in zip(reduced, pivots):
                reductions[monos[c]] = {pos[i]: -row[i] for i in free
                                        if row[i]}
            prev = monos
        else:
            raise NilpotencyUnconfirmed(
                f"sector {sector_label(self.sector.key())} of {t.label}: "
                f"nilpotency degree not confirmed within degree "
                f"{2 * data.rank + 1}")
        self.basis = tuple(basis)
        self.dim = len(basis)
        self._reduce_exact = {
            m: [sparse.get(b, Fraction(0)) for b in range(self.dim)]
            for m, sparse in reductions.items()}
        self._sr_zero = sr_zero

    def _finish_numeric(self):
        self.basis_index = {m: i for i, m in enumerate(self.basis)}
        gens = self.generators
        self._divisor_exact = {}
        for j in range(self.data.n):
            if j in gens:
                mono = (gens.index(j),)
                vec = self._reduce_monomial(mono)
            else:
                vec = [Fraction(0)] * self.dim
            self._divisor_exact[j] = vec
        table = np.zeros((self.dim, self.dim, self.dim), dtype=complex)
        self._mult_exact = {}
        for a, ma in enumerate(self.basis):
            for b, mb in enumerate(self.basis):
                vec = self._reduce_monomial(_mono_mul(ma, mb))
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
        # the nonzero constants (a, b, t) of each output coordinate c, in
        # (a, b) order: a batch product sums only these column products
        self._mult_table = table
        self.product_terms = tuple(
            tuple((a, b, complex(table[a, b, c]))
                  for a, b in zip(*(i.tolist() for i in
                                    np.nonzero(table[:, :, c]))))
            for c in range(table.shape[2]))

    def _reduce_monomial(self, mono):
        if self._sr_zero(mono):
            return [Fraction(0)] * self.dim
        if len(mono) >= self.zero_degree:
            return [Fraction(0)] * self.dim
        vec = self._reduce_exact.get(mono)
        if vec is None:
            raise MonomialUnreduced(f"monomial {mono} outside reduction table")
        return vec

    # -- public API -----------------------------------------------------

    def key(self):
        return (self.t_label, self.sector.key())

    def element(self, coords):
        """Element with the given coordinates; shape (..., dim) is a batch."""
        arr = np.asarray(coords, dtype=complex)
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
        """Class of D_j; zero off Star(sigma) \\ sigma."""
        return AlgebraElement(self, self._divisor_num[j].copy())

    def divisor_exact(self, j):
        return list(self._divisor_exact[j])

    def multiply_exact(self, a, b):
        """Product of two rational coordinate vectors, exact."""
        out = [Fraction(0)] * self.dim
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                for k, coeff in enumerate(self._mult_exact[(i, j)]):
                    if coeff:
                        out[k] += x * y * coeff
        return out

    def linear_relation_defects(self):
        """Exact residuals sum_i mu(v_i) D_i for every coordinate functional.

        Zero for annihilator functionals by construction; reported for the
        full dual basis as the localization-consistency diagnostic.
        """
        out = []
        for a in range(self.data.rank):
            vec = [Fraction(0)] * self.dim
            for j in self.generators:
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

    The product of two single elements is one einsum contraction with the
    multiplication table.  A product with a batch broadcasts both
    operands to the full shape, flattens them to rows, and forms each
    output coordinate as a short sum of column products over the
    algebra's nonzero structure constants (`product_terms`).  A row's
    product is the same bits whatever batch it sits in: every row goes
    through the same numpy array loops, and no step does arithmetic on
    numpy complex scalars, which round differently from those loops.
    """

    __slots__ = ("algebra", "coords")
    # numpy defers to the operators below instead of broadcasting over
    # the element as an object, so that array * element is a batch
    __array_ufunc__ = None

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

    def copy(self):
        return AlgebraElement(self.algebra, self.coords.copy())

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
            if self.coords.ndim == other.coords.ndim == 1:
                out = np.einsum("...a,...b,abc->...c", self.coords,
                                other.coords, self.algebra.mult_table)
            else:
                out = _batch_product(self.algebra, self.coords, other.coords)
            return AlgebraElement(self.algebra, out)
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
        acc = self.algebra.one()
        for _ in range(k):
            acc = acc * self
        return acc


def _batch_product(algebra, x, y):
    """Row-wise product of coordinate batches x and y (see AlgebraElement).

    An operand short of the full shape is copied out to it, so both are
    plain (rows, dim) arrays.  Column c of the result is the sum over the
    nonzero constants (a, b, t) of t x[:, a] y[:, b], added in the order
    of product_terms.
    """
    shape = np.broadcast(x, y).shape
    rows = []
    for z in (x, y):
        if z.shape != shape:
            full = np.empty(shape, dtype=complex)
            full[...] = z
            z = full
        rows.append(z.reshape(-1, algebra.dim))
    x, y = rows
    out = np.zeros(shape, dtype=complex)
    flat = out.reshape(-1, algebra.dim)
    for c, terms in enumerate(algebra.product_terms):
        col = None
        for a, b, t in terms:
            p = x[:, a] * y[:, b]
            if t != 1:
                p = p * t    # in place, numpy rounds a 1-row p differently
            if col is None:
                col = p
            else:
                col += p
        if col is not None:
            flat[:, c] = col
    return out


def algebra_exp(element):
    """exp of an element: exact scalar exp times a finite nilpotent series."""
    alg = element.algebra
    s = element.scalar_part
    n = element.nilpotent_part()
    acc = alg.one()
    term = alg.one()
    for k in range(1, alg.zero_degree + 1):
        term = term * n * (1.0 / k)
        if term.is_zero():
            break
        acc = acc + term
    return acc * (cmath.exp(s) if isinstance(s, complex) else np.exp(s))


def algebra_inverse(element, tol=0.0):
    """Inverse via the terminating geometric series; NotInvertible at s=0."""
    s = element.scalar_part
    if np.any(np.abs(s) <= tol):
        raise NotInvertible("zero scalar part")
    n = element.nilpotent_part() * (-1.0 / s)
    acc = element.algebra.one()
    term = element.algebra.one()
    for _ in range(element.algebra.zero_degree + 1):
        term = term * n
        if term.is_zero():
            break
        acc = acc + term
    return acc * (1.0 / s)
