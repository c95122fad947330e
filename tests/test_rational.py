from fractions import Fraction

from hypothesis import example, given, strategies as st

from gkzflop.rational import (_hnf_full, hnf, integer_kernel, nullspace,
                              reduce_mod_lattice, rref, solve_integer)

small_int = st.integers(min_value=-6, max_value=6)


def mat_strategy(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def mat_mul(a, b):
    return [[sum(Fraction(x) * Fraction(y) for x, y in zip(row, col))
             for col in zip(*b)] for row in a]


def det(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    sign = 1
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * d


def dense_rref(rows):
    """Dense Gauss-Jordan elimination, the reference for the sparse rref."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


rational_entry = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4))


@st.composite
def sparse_rational_matrices(draw):
    """Rational matrices, often with zero rows, zero columns, repeats."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(rational_entry, min_size=ncols,
                                  max_size=ncols), max_size=6))
    if rows and draw(st.booleans()):
        dup = list(draw(st.sampled_from(rows)))
        rows.insert(draw(st.integers(0, len(rows))), dup)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    if draw(st.booleans()):
        c = draw(st.integers(0, ncols))
        rows = [row[:c] + [Fraction(0)] + row[c:] for row in rows]
    return rows


@given(sparse_rational_matrices())
@example([])
@example([[Fraction(0)] * 3, [Fraction(0)] * 3])
@example([[1, 2, 0], [0, 0, 0], [1, 2, 0], [0, 0, 0]])
def test_rref_equals_dense_elimination(m):
    red, pivots = rref(m)
    want_red, want_pivots = dense_rref(m)
    assert pivots == want_pivots
    assert red == want_red
    assert all(type(v) is Fraction for row in red for v in row)


@given(mat_strategy())
def test_rref_is_idempotent_and_pivots_are_unit_columns(m):
    red, pivots = rref(m)
    red2, pivots2 = rref(red)
    assert red2 == red and pivots2 == pivots
    for r, c in enumerate(pivots):
        col = [row[c] for row in red]
        assert col[r] == 1
        assert all(v == 0 for i, v in enumerate(col) if i != r)


@given(mat_strategy())
def test_nullspace_vectors_annihilate_and_count_matches_rank(m):
    ns = nullspace(m)
    ncols = len(m[0])
    for v in ns:
        img = [sum(Fraction(row[j]) * v[j] for j in range(ncols))
               for row in m]
        assert all(x == 0 for x in img)
    assert len(ns) == ncols - len(rref(m)[0])


@given(mat_strategy())
def test_hnf_transform_reproduces_rows(m):
    h, t = hnf(m)
    assert mat_mul(t, m) == [[Fraction(v) for v in row] for row in h]
    # pivots positive, entries above a pivot reduced into [0, pivot)
    for i, row in enumerate(h):
        lead = next(c for c, v in enumerate(row) if v != 0)
        assert row[lead] > 0
        for k in range(i):
            assert 0 <= h[k][lead] < row[lead]


def test_hnf_square_nonsingular_transform_is_unimodular():
    m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    h, t = hnf(m)
    assert len(h) == 3
    assert abs(det(t)) == 1


@given(mat_strategy())
def test_integer_kernel_annihilates_and_is_complete(m):
    ker = integer_kernel(m)
    nrows = len(m)
    for z in ker:
        img = [sum(z[i] * m[i][j] for i in range(nrows))
               for j in range(len(m[0]))]
        assert all(v == 0 for v in img)
    assert len(ker) == nrows - len(rref(m)[0])


def test_integer_kernel_of_fixture_points_is_the_circuit(a1, conifold):
    for p, h in ((a1, (1, -2, 1)), (conifold, (1, -1, -1, 1))):
        ker = integer_kernel([list(v) for v in p.data.points])
        assert len(ker) == 1
        z = ker[0]
        assert z == list(h) or z == [-v for v in h]


def test_solve_integer_row_convention():
    rows = [[0, 1], [1, 1], [2, 1]]
    # v2 as a Z-combination of the rows
    x = solve_integer(*_hnf_full(rows), [1, 1])
    assert x is not None
    got = [sum(x[i] * rows[i][j] for i in range(3)) for j in range(2)]
    assert got == [1, 1]
    assert solve_integer(*_hnf_full([[2, 0], [0, 2]]), [1, 0]) is None


def test_reduce_mod_lattice_is_canonical_and_sound():
    basis = [[1, -2, 1]]
    h = hnf(basis)[0]
    v = [5, -10, 5]
    red = reduce_mod_lattice(v, h)
    # the difference must be a lattice vector
    diff = [a - b for a, b in zip(v, red)]
    assert diff == [diff[0] * b for b in basis[0]]
    assert reduce_mod_lattice(red, h) == red
    # translates of the same vector reduce identically
    v2 = [a + 3 * b for a, b in zip(v, basis[0])]
    assert reduce_mod_lattice(v2, h) == red
