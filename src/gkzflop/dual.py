"""Compactly supported K-side: generators, relations, reduced basis.

The module is generated by one class G_I per cone whose relative
interior lies inside the open support cone, with relations

    (1 - R_i^{-1}) G_I = G_{I u {i}}   if I u {i} is a cone,
    (1 - R_i^{-1}) G_I = 0             otherwise,

for every i outside I.  Everything is realized over the localization
model: each twisted sector contributes a block where R_i acts as
e^{D_i + 2 pi i gamma_i}, relations become row vectors over the sector
algebra, and the quotient is read off a reduced row echelon form.  The
series attachments F_I produced by the interior-indexed sums satisfy
D_i F_I = F_{I u {i}} (or 0); the two relation shapes differ by the
invertible factor (1 - e^{-D_i})/D_i, so they generate the same row
space and share the reduction.

This is the module dual-eval reduces the dual series in.  The pairing
between the plain and the dual solution spaces, which would continue
the dual series across the wall, is not provided.
"""

import numpy as np

from .toric import interior_cones
from .rings import algebra_exp, algebra_inverse
from .deform import unit_phase


# A pivot candidate at most PIVOT_RTOL of the matrix's scale is zero.
PIVOT_RTOL = 1e-9


def _rref(mat):
    """Reduced row echelon form with fixed left-to-right pivot order."""
    mat = np.array(mat, dtype=complex)
    if mat.size == 0:
        return np.zeros((0, mat.shape[1] if mat.ndim == 2 else 0),
                        dtype=complex), []
    scale = max(1.0, np.abs(mat).max())
    pivots = []
    r = 0
    for col in range(mat.shape[1]):
        if r == mat.shape[0]:
            break
        sub = np.abs(mat[r:, col])
        best = int(sub.argmax())
        if sub[best] <= PIVOT_RTOL * scale:
            continue
        if best:
            mat[[r, r + best]] = mat[[r + best, r]]
        mat[r] = mat[r] / mat[r, col]
        for other in range(mat.shape[0]):
            if other != r and mat[other, col] != 0:
                mat[other] = mat[other] - mat[other, col] * mat[r]
        pivots.append(col)
        r += 1
    return mat[:len(pivots)], pivots


class CompactKModule:
    """Quotient of the free module on interior-cone generators.

    Built over the sectors and algebras of one Chamber.
    """

    def __init__(self, chamber):
        data, t = chamber.data, chamber.t
        self.data = data
        self.t = t
        cones = interior_cones(data, t, chamber.facets)
        self.generators = tuple(sorted(tuple(sorted(c)) for c in cones))
        if not self.generators:
            # internal: a maximal cone of a triangulation is full-dimensional,
            # so its interior lies in the open support cone
            raise AssertionError("no cone meets the open support cone")
        self.sectors = chamber.box
        self.algebras = chamber.algebras
        self.relation_rows = {}
        self.rref = {}
        self.pivots = {}
        self.dims = {}
        for g in self.sectors:
            key = g.key()
            alg = self.algebras[key]
            block = alg.dim
            width = block * len(self.generators)
            col_of = {I: i * block for i, I in enumerate(self.generators)}
            relator = self._one_minus_rinv_rows(alg, g)
            rows = []
            for I in self.generators:
                for i in range(data.n):
                    if i in I:
                        continue
                    J = tuple(sorted(set(I) | {i}))
                    for b in range(block):
                        row = np.zeros(width, dtype=complex)
                        row[col_of[I]:col_of[I] + block] = relator[i][b]
                        if t.is_cone(J):
                            # adding a ray keeps the interior-point sum
                            # interior, so J is again a generator
                            row[col_of[J] + b] -= 1.0
                        rows.append(row)
            mat = np.array(rows) if rows else np.zeros((0, width),
                                                       dtype=complex)
            red, piv = _rref(mat)
            self.relation_rows[key] = mat
            self.rref[key] = red
            self.pivots[key] = piv
            self.dims[key] = width - len(piv)
        self.dim = sum(self.dims.values())

    def _one_minus_rinv_rows(self, alg, sector):
        """Per ray i: matrix of multiplication by 1 - R_i^{-1}."""
        eye = np.eye(alg.dim, dtype=complex)
        out = {}
        for i in range(self.data.n):
            r = algebra_exp(alg.divisor(i)) * unit_phase(sector.nums[i], sector.den)
            elt = alg.one() - algebra_inverse(r)
            # the unit's row is elt itself
            out[i] = [elt.coords if b == alg.basis_index[()]
                      else (alg.element(eye[b]) * elt).coords
                      for b in range(alg.dim)]
        return out

    def component_vector(self, components):
        """Stack (sector, cone) -> element into per-sector block vectors."""
        out = {}
        for g in self.sectors:
            key = g.key()
            alg = self.algebras[key]
            block = alg.dim
            vec = np.zeros(block * len(self.generators), dtype=complex)
            for i, I in enumerate(self.generators):
                el = components.get((key, I))
                if el is not None:
                    vec[i * block:(i + 1) * block] += np.asarray(el.coords)
            out[key] = vec
        for (key, I) in components:
            # internal: evaluate_gamma_dual attaches terms to interior cones
            assert I in set(self.generators), \
                f"component attached to non-generator cone {I}"
        return out

    def reduce_vector(self, key, vec):
        """Quotient coordinates: eliminate pivots, keep free columns."""
        red, piv = self.rref[key], self.pivots[key]
        v = np.array(vec, dtype=complex)
        for row, col in zip(red, piv):
            v = v - row * v[col]
        free = [c for c in range(len(v)) if c not in piv]
        return v[free]

    def reduce_components(self, components):
        """Reduce a component dict to canonical quotient coordinates."""
        stacked = self.component_vector(components)
        return {key: self.reduce_vector(key, vec)
                for key, vec in stacked.items()}

