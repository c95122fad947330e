"""Exact linear algebra over Q and Z.

Matrices go in and come out as lists of lists of fractions.Fraction (or
ints for the lattice routines).  Row reduction over Q works on sparse
rows, {column: Fraction} dicts, and touches only nonzero entries: a
sector algebra reduces its linear relations once and then one small
block per degree, over the monomials in its free generators.
The lattice routines stay dense; their matrices have rank <= 4 and a
handful of columns.  solve_integer and reduce_mod_lattice take a Hermite
normal form computed beforehand, and a whole table of right-hand sides
at once, in int64 columns: a fixture's points have one lattice, computed
once (toric.ToricData.lattice) and read by validate_toric_data,
toric.lift_table (the lifts of every c of a battery in one pass, and
canonical_lift, the case of one c) and enumerate_terms.  The cone
geometry in toric runs on the same routines: each maximal cone's
_hnf_full is its ray frame, formed once per command (toric.RayFrame),
whose pivots give the cone's index and whose inverse gives its facet
normals, the Box and the cone membership test.
"""

from fractions import Fraction

import numpy as np


def rref(rows):
    """Reduced row echelon form over Q.

    Returns (reduced_rows, pivot_columns).  Input rows are not modified.
    Elimination runs on sparse rows; the reduced form of a matrix is
    unique, so the pivot choice only affects the work, not the result.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    pending = [r for r in ({c: Fraction(x) for c, x in enumerate(row) if x}
                           for row in rows) if r]
    done = {}
    for c in range(ncols):
        if not pending:
            break
        hits = [i for i, row in enumerate(pending) if c in row]
        if not hits:
            continue
        # the shortest candidate keeps fill-in low
        prow = pending.pop(min(hits, key=lambda i: len(pending[i])))
        inv = prow[c]
        prow = {k: v / inv for k, v in prow.items()}
        for row in (*pending, *done.values()):
            f = row.get(c)
            if f:
                _subtract_multiple(row, f, prow)
        pending = [r for r in pending if r]
        done[c] = prow
    # columns were visited in order, so done is keyed in pivot order
    pivots = list(done)
    reduced = []
    for c in pivots:
        dense = [Fraction(0)] * ncols
        for k, v in done[c].items():
            dense[k] = v
        reduced.append(dense)
    return reduced, pivots


def _subtract_multiple(row, f, prow):
    """row -= f * prow on sparse rows, dropping entries that cancel."""
    for k, v in prow.items():
        x = row.get(k, 0) - f * v
        if x:
            row[k] = x
        else:
            row.pop(k, None)


def nullspace(rows):
    """Basis of the rational kernel of the row matrix, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns (h, transform) with transform * rows == h, transform unimodular.
    Zero rows of h are trimmed.  Pivots are positive and entries above a
    pivot are reduced into [0, pivot).
    """
    h, t = _hnf_full([list(map(int, row)) for row in rows])
    return h, t[:len(h)]


def integer_kernel(rows):
    """Basis of the integer kernel {z : z * rows == 0} (z as row vectors)."""
    m = [list(map(int, row)) for row in rows]
    h, t = _hnf_full(m)
    return [t[i] for i in range(len(h), len(t))]


def _hnf_full(m):
    """hnf() of the int rows m, with the full transform: kernel rows last."""
    n = len(m)
    ncols = len(m[0]) if m else 0
    work = [list(row) for row in m]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, n) if work[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(work[i][c]))
            work[r], work[i0] = work[i0], work[r]
            t[r], t[i0] = t[i0], t[r]
            done = True
            for i in range(r + 1, n):
                if work[i][c] != 0:
                    q = work[i][c] // work[r][c]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    t[i] = [a - q * b for a, b in zip(t[i], t[r])]
                    if work[i][c] != 0:
                        done = False
            if done:
                break
        if r < n and work[r][c] != 0:
            if work[r][c] < 0:
                work[r] = [-a for a in work[r]]
                t[r] = [-a for a in t[r]]
            for i in range(r):
                q = work[i][c] // work[r][c]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    t[i] = [a - q * b for a, b in zip(t[i], t[r])]
            r += 1
            if r == n:
                break
    return work[:r], t


def solve_integer(h, transform, rhs):
    """Integer solutions x of x * rows == b (row-vector convention), for
    every row b of the int table rhs at once, or for one vector b.

    (h, transform) is _hnf_full(rows): the HNF rows and the full square
    unimodular transform.  The forward substitution over the HNF rows
    runs on int64 columns of the whole table.  Returns the solutions, an
    int64 table with a row per b (a list for one vector), or None when
    some b has no integer solution.
    """
    table = np.array(rhs, dtype=np.int64)
    target = table.reshape(-1, table.shape[-1])
    # express each b in terms of the HNF rows by forward substitution
    coeffs = np.zeros((len(target), len(h)), dtype=np.int64)
    for i, row in enumerate(h):
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            continue
        q, rest = np.divmod(target[:, lead], row[lead])
        if rest.any():
            return None
        coeffs[:, i] = q
        target = target - q[:, None] * np.array(row, dtype=np.int64)
    if target.any():
        return None
    x = coeffs @ np.array(transform[:len(h)], dtype=np.int64).reshape(
        len(h), len(transform))
    return x if table.ndim == 2 else x[0].tolist()


def reduce_mod_lattice(vec, h):
    """Canonical representative of vec modulo the integer row lattice of h.

    h is the lattice's basis in HNF (hnf(basis)[0]); pivot coordinates of
    the result are reduced into [0, pivot).  Deterministic, so usable as
    a tie-break.  vec is one vector (a list comes back) or an int table,
    whose rows are reduced at once (an int64 table comes back).
    """
    table = np.array(vec, dtype=np.int64)
    v = table.reshape(-1, table.shape[-1])
    for row in h:
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        v = v - (v[:, lead] // row[lead])[:, None] \
            * np.array(row, dtype=np.int64)
    return v if table.ndim == 2 else v[0].tolist()
