"""Interior-indexed module: generators, relations, reductions."""

import numpy as np
import pytest

from gkzflop import (
    CompactKModule,
    SectorAlgebra,
    TruncationPolicy,
    compute_box,
    evaluate_gamma_dual,
    pde_residuals,
)
from gkzflop.dual import _rref
from gkzflop.deform import DeformationRing, TWO_PI_I
from gkzflop.series import enumerate_terms, term_values


@pytest.fixture(scope="module")
def modules(packs):
    out = {}
    for name, pack in packs.items():
        for side in ("plus", "minus"):
            t = pack.t_plus if side == "plus" else pack.t_minus
            out[(name, side)] = (pack, t, CompactKModule(pack.chamber(t)))
    return out


GENSETS = {
    ("a1", "plus"): {(1,), (0, 1), (1, 2)},
    ("a1", "minus"): {(0, 2)},
    ("conifold", "plus"): {(1, 2), (0, 1, 2), (1, 2, 3)},
    ("conifold", "minus"): {(0, 3), (0, 1, 3), (0, 2, 3)},
}


def test_generators_and_dimension(modules):
    for key, (pack, t, mod) in modules.items():
        assert set(mod.generators) == GENSETS[key], key
        assert mod.dim == 2, key
        assert sum(mod.dims.values()) == mod.dim


def test_rref_confluence_under_row_shuffles(modules):
    rng = np.random.default_rng(3)
    for key, (pack, t, mod) in modules.items():
        for skey, mat in mod.relation_rows.items():
            if mat.shape[0] == 0:
                continue
            base_red, base_piv = mod.rref[skey], mod.pivots[skey]
            for _ in range(25):
                perm = rng.permutation(mat.shape[0])
                red, piv = _rref(mat[perm])
                assert piv == base_piv, (key, skey)
                assert np.allclose(red, base_red, atol=1e-12), (key, skey)


def test_relation_rows_reduce_to_zero(modules):
    for key, (pack, t, mod) in modules.items():
        for skey, mat in mod.relation_rows.items():
            for row in mat:
                q = mod.reduce_vector(skey, row)
                if q.size:
                    assert np.max(np.abs(q)) < 1e-12, (key, skey)


def test_incompatible_double_extensions_vanish(modules):
    # (1 - R_j^-1)(1 - R_i^-1) G_I must die whenever I u {i, j} is no cone
    for key, (pack, t, mod) in modules.items():
        n = pack.data.n
        for g in mod.sectors:
            skey = g.key()
            alg = mod.algebras[skey]
            block = alg.dim
            rel = mod._one_minus_rinv_rows(alg, g)
            for I in mod.generators:
                outside = [i for i in range(n) if i not in I]
                for i in outside:
                    for j in outside:
                        if j == i:
                            continue
                        if t.is_cone(tuple(sorted(set(I) | {i, j}))):
                            continue
                        Ii = tuple(sorted(set(I) | {i}))
                        vec = np.zeros(block * len(mod.generators),
                                       dtype=complex)
                        if t.is_cone(Ii):
                            ci = mod.generators.index(Ii) * block
                            acc = np.zeros(block, dtype=complex)
                            for b, cb in enumerate(rel[i][0]):
                                acc += cb * rel[j][b]
                            vec[ci:ci + block] = acc
                        q = mod.reduce_vector(skey, vec)
                        if q.size:
                            assert np.max(np.abs(q)) < 1e-12, \
                                (key, skey, I, i, j)


@pytest.mark.parametrize("name,c", [("a1", (1, 1)), ("conifold", (1, 1, 2))])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_series_values_reduce_to_rank_two(modules, name, side, c):
    pack, t, mod = modules[(name, side)]
    policy = TruncationPolicy(degree_bound=12, tail_check=False)
    x = [0.08 + 0.01j] * pack.data.n
    [val] = evaluate_gamma_dual(pack.chamber(t), [c], x, policy, module=mod)
    assert val.reduced is not None
    flat = np.concatenate([val.reduced[g.key()] for g in mod.sectors])
    assert flat.size == 2
    assert np.max(np.abs(flat)) > 0


def test_unit_coefficient_recursion(a1):
    # for l_i = 0 the x_i-derivative of a term equals D_i times the term
    # at l - e_i, with unit coefficient on the enlarged attachment
    t = a1.t_plus
    policy = TruncationPolicy(degree_bound=12, tail_check=False)
    x = [0.07, 0.11, 0.05]
    checked = 0
    for gamma in compute_box(a1.data, t):
        alg = SectorAlgebra(a1.data, t, gamma)
        ring = DeformationRing(alg, eps=0.0)
        for term in enumerate_terms(a1.data, t, (1, 1), gamma, policy)[:40]:
            for i in range(a1.data.n):
                if term.l[i] != 0:
                    continue
                img = tuple(v - (term.den if j == i else 0)
                            for j, v in enumerate(term.num))
                dual = term_values(x, [term.num, img], term.den, ring,
                                   dual=True)
                here, there = (alg.element(row) for row in dual.coords)
                deriv = here * ring.divisor(i) * (1.0 / (TWO_PI_I * x[i]))
                rhs = ring.divisor(i) * there
                assert (deriv - rhs).norm() < 1e-12 * max(1.0, rhs.norm()), \
                    (term.l, i)
                checked += 1
    assert checked > 0


def test_component_vector_rejects_stray_cone(modules):
    pack, t, mod = modules[("a1", "plus")]
    alg = mod.algebras[mod.sectors[0].key()]
    bad = {(mod.sectors[0].key(), (0, 2)): alg.one()}
    with pytest.raises(AssertionError):
        mod.component_vector(bad)


def test_dual_pde_check_report(a1):
    policy = TruncationPolicy(degree_bound=12, tail_check=False)
    x = [0.07, 0.11, 0.05]
    chamber = a1.chamber(a1.t_plus)
    rep = pde_residuals(chamber, [(2, 2), (3, 3)], x, policy, which="dual")
    assert rep["system"] == "dual"
    assert rep["euler_max"] == 0.0
    assert rep["interior_residual"] == 0.0
    module = CompactKModule(chamber)
    assert module.dim == 2
    assert module.generators == ((0, 1), (1,), (1, 2))
