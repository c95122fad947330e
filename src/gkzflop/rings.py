"""Twisted-sector cohomology algebras as finite nilpotent quotients.

For a sector gamma of a triangulation, the algebra is generated by divisor
classes D_i for i in Star(sigma(gamma)) \\ sigma(gamma), modulo

  * Stanley-Reisner monomials: prod_{j in J} D_j = 0 whenever
    sigma(gamma) + J is not a cone, and
  * linear relations sum_i mu(v_i) D_i = 0 for functionals mu vanishing
    on the rays of sigma(gamma).

The quotient is computed by exact row reduction on the monomial span, so
structure constants are rational and stored both exactly and as complex
arrays for numeric work.
"""

import cmath
import functools
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .errors import MonomialUnreduced, NilpotencyUnconfirmed, NotInvertible
from . import rational
from .toric import boundary_facets, compute_box, sector_label, star_rays


def _monomials(num_gens, max_degree):
    out = [()]
    for d in range(1, max_degree + 1):
        out.extend(combinations_with_replacement(range(num_gens), d))
    return out


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
        gens = self.generators
        cap0 = data.rank + 1
        for cap in range(cap0, 2 * data.rank + 2):
            if self._try_build(data, t, support, gens, cap):
                return
        raise NilpotencyUnconfirmed(
            f"sector {sector_label(self.sector.key())} of {t.label}: "
            f"nilpotency degree not confirmed within degree cap "
            f"{2 * data.rank + 1}")

    def _try_build(self, data, t, support, gens, cap):
        def sr_zero(mono):
            J = frozenset(gens[g] for g in mono)
            return not t.is_cone(support | J)

        universe = [m for m in _monomials(len(gens), cap) if not sr_zero(m)]
        index = {m: i for i, m in enumerate(universe)}

        sig_rows = [list(data.points[j]) for j in sorted(support)]
        ann = rational.nullspace(sig_rows) if sig_rows else \
            [[Fraction(i == j) for j in range(data.rank)]
             for i in range(data.rank)]
        rows = []
        for mu in ann:
            coeff = {g: sum(Fraction(a) * b for a, b in zip(mu, data.points[j]))
                     for g, j in enumerate(gens)}
            for m in universe:
                if len(m) >= cap:
                    continue
                row = [Fraction(0)] * len(universe)
                nonzero = False
                for g, cg in coeff.items():
                    if cg == 0:
                        continue
                    mm = _mono_mul(m, (g,))
                    if mm in index:
                        row[index[mm]] += cg
                        nonzero = True
                if nonzero:
                    rows.append(row)
        reduced, pivots = rational.rref(rows)
        basis = [m for i, m in enumerate(universe) if i not in set(pivots)]
        basis_pos = {m: i for i, m in enumerate(basis)}
        reduce_map = self._full_reduction(universe, basis_pos, reduced, pivots)
        # smallest degree at which every monomial reduces to zero; beyond the
        # cap everything either contains an SR non-face or exceeds this degree
        zero_degree = None
        for d in range(cap + 1):
            monos = [m for m in universe if len(m) == d]
            if monos and all(not any(reduce_map[m]) for m in monos):
                zero_degree = d
                break
        if zero_degree is None:
            if any(len(m) == cap for m in universe):
                return False  # retry with a larger cap
            zero_degree = cap + 1
        self.degree_cap = cap
        self.zero_degree = zero_degree
        self.basis = tuple(basis)
        self.dim = len(basis)
        self._reduce_exact = reduce_map
        self._sr_zero = sr_zero
        return True

    def _full_reduction(self, universe, basis_pos, reduced, pivots):
        """Express each universe monomial over the basis by back-substitution."""
        n = len(universe)
        table = {}
        # process pivots from the last one backwards so substitutions cascade
        order = sorted(range(len(pivots)), key=lambda r: pivots[r], reverse=True)
        for m in universe:
            if m in basis_pos:
                vec = [Fraction(0)] * len(basis_pos)
                vec[basis_pos[m]] = Fraction(1)
                table[m] = vec
        for r in order:
            piv_col = pivots[r]
            row = reduced[r]
            vec = [Fraction(0)] * len(basis_pos)
            for c in range(n):
                if c == piv_col or row[c] == 0:
                    continue
                sub = table[universe[c]]
                for b, x in enumerate(sub):
                    vec[b] -= row[c] * x
            table[universe[piv_col]] = vec
        return table

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
            assert other.algebra is self.algebra, "mixed-algebra product"
            out = np.einsum("...a,...b,abc->...c", self.coords, other.coords,
                            self.algebra.mult_table)
            return AlgebraElement(self.algebra, out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.ndarray)):
            return self * other
        return NotImplemented

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
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
