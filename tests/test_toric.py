from fractions import Fraction

import pytest

from gkzflop import rational, toric
from gkzflop.errors import Infeasible, NonUnitDegree, NotAdjacent, \
    RankDeficient
from gkzflop.fixtures import parse_fixture
from gkzflop.toric import (ToricData, Triangulation, adjacent_sector,
                           canonical_lift, check_triangulation, compute_box,
                           cone_index, essential_cones, essential_sectors,
                           find_circuit, interior_cones, is_interior_point,
                           star_of, star_rays, validate_toric_data)
from gkzflop.wall import c_battery
from support import LOCAL_P2, SMALL_CIRCUITS, circuit_fixture, \
    reference_canonical_lift, reference_compute_box, reference_cone_index, \
    reference_facet_normal, run_box_bijection

F = Fraction


def test_fixture_data_validates(pack):
    validate_toric_data(pack.data)
    for t in (pack.t_plus, pack.t_minus):
        ok, messages = check_triangulation(pack.data, t)
        assert ok, messages


def test_validation_rejects_bad_degree_and_rank():
    with pytest.raises(NonUnitDegree):
        validate_toric_data(ToricData(rank=2, points=((0, 1), (1, 2)),
                                      deg=(0, 1)))
    with pytest.raises(RankDeficient):
        validate_toric_data(ToricData(rank=2, points=((0, 1), (0, 1)),
                                      deg=(0, 1)))


def test_circuit_identification(a1, conifold):
    assert a1.circuit.h == (1, -2, 1)
    assert a1.circuit.I_plus == frozenset({0, 2})
    assert a1.circuit.I_minus == frozenset({1})
    assert conifold.circuit.h == (1, -1, -1, 1)
    assert conifold.circuit.I_minus == frozenset({1, 2})


def test_circuit_requires_adjacency(a1):
    with pytest.raises(NotAdjacent):
        find_circuit(a1.data, a1.t_plus, a1.t_plus)


def test_star_of_middle_ray(a1):
    star = star_of(a1.t_plus, {1})
    assert {frozenset(s) for s in star} == {frozenset({0, 1}),
                                           frozenset({1, 2})}
    # star_rays excludes sigma itself: these are the algebra generators
    assert star_rays(a1.t_plus, {1}) == frozenset({0, 2})


def test_box_contents(a1, conifold):
    plus = compute_box(a1.data, a1.t_plus)
    assert [g.coords for g in plus] == [(0, 0, 0)]
    minus = compute_box(a1.data, a1.t_minus)
    coords = {g.coords for g in minus}
    assert coords == {(0, 0, 0), (F(1, 2), 0, F(1, 2))}
    points = {g.point for g in minus}
    assert points == {(0, 0), (1, 1)}
    for side in (conifold.t_plus, conifold.t_minus):
        assert [g.coords for g in compute_box(conifold.data, side)] \
            == [(0, 0, 0, 0)]


def test_cone_index_values(a1, conifold):
    assert cone_index(a1.data, {0, 2}) == 2
    assert cone_index(a1.data, {0, 1}) == 1
    assert all(cone_index(conifold.data, s) == 1
               for s in conifold.t_plus.maximal)


def test_box_bijection_brute_force(pack):
    """Bounded rational solution classes match the box, per lattice point."""
    for t in (pack.t_plus, pack.t_minus):
        run_box_bijection(pack.data, t)


def test_essential_cones(a1, conifold):
    def cones(p, t):
        return {frozenset(s) for s in essential_cones(p.data, t, p.circuit)}

    assert cones(a1, a1.t_plus) == {frozenset({0, 1}), frozenset({1, 2})}
    assert cones(a1, a1.t_minus) == {frozenset({0, 2})}
    assert cones(conifold, conifold.t_plus) == {frozenset({0, 1, 2}),
                                                frozenset({1, 2, 3})}
    assert cones(conifold, conifold.t_minus) == {frozenset({0, 1, 3}),
                                                 frozenset({0, 2, 3})}


def test_essential_sectors_all_sectors_on_fixtures(pack):
    for t in (pack.t_plus, pack.t_minus):
        box = compute_box(pack.data, t)
        ess = {g.coords for g in essential_sectors(pack.data, t,
                                                   pack.circuit, box)}
        assert ess == {g.coords for g in box}


def test_canonical_lift_properties(a1):
    box = compute_box(a1.data, a1.t_minus)
    for g in box:
        for c in [(0, 0), (1, 1), (2, 2)]:
            lift = canonical_lift(a1.data, g, c)
            assert tuple(v % 1 for v in lift.values) == g.coords
            total = a1.data.combine(lift.values)
            assert total == tuple(F(-v) for v in c)


# the circuits of test_cli.test_circuit_ladder_crossing
LADDER = [(1, 1, -2), (1, 1, 1, -3), (1, 2, -3), (1, 1, 1, -1, -2),
          (2, 3, -3, -2), (1, 1, 1, -1, -1, -1), (1, 1, 1, 1, -4),
          (1, 1, 1, 1, -2, -2), (2, 2, -1, -3), (1, 2, -1, -2)]


@pytest.mark.parametrize("name", ["a1", "conifold", *LADDER],
                         ids=lambda n: n if isinstance(n, str)
                         else "h=" + ",".join(map(str, n)))
def test_kept_lattice_gives_the_per_call_lifts(packs, name):
    if name in packs:
        data, tris = packs[name].data, packs[name].tris
    else:
        data, tris = circuit_fixture(name)
    lattice = data.lattice
    assert data.lattice is lattice
    # the kernel rows are relations of the points, and the whole kernel
    assert len(lattice.hnf) == data.rank
    assert len(lattice.kernel) == data.n - data.rank
    for z in (*lattice.kernel, *lattice.kernel_basis):
        assert data.combine(z) == (0,) * data.rank
    assert list(map(list, lattice.kernel_basis)) \
        == rational.hnf(rational.integer_kernel(data.points))[0]
    circuit = find_circuit(data, tris["plus"], tris["minus"])
    if name not in packs:
        assert circuit.h == name
    for t in tris.values():
        for g in compute_box(data, t):
            for c in c_battery(data, 2):
                assert canonical_lift(data, g, c).values \
                    == reference_canonical_lift(data, g, c)


def test_lift_infeasible_when_points_do_not_span():
    # index-2 sublattice: no integer combination of (2,) reaches -1
    from gkzflop.toric import TwistedSector
    data = ToricData(rank=1, points=((2,),), deg=(1,))
    sector = TwistedSector(coords=(0,), point=(0,))
    with pytest.raises(Infeasible):
        canonical_lift(data, sector, (1,))


def test_adjacent_sector_walk(a1):
    g0 = compute_box(a1.data, a1.t_plus)[0]
    k = 1  # the unique negative-side ray of h = (1, -2, 1)
    reached = {}
    for r in (0, 1):
        sector, _ = adjacent_sector(a1.data, a1.circuit, a1.t_minus,
                                    g0, k, r)
        reached[r] = sector.coords
    assert reached[0] == (0, 0, 0)
    assert reached[1] == (F(1, 2), 0, F(1, 2))


def test_interior_cones_and_points(a1, conifold):
    plus, minus = a1.chamber(a1.t_plus), a1.chamber(a1.t_minus)
    gens = {frozenset(s) for s in interior_cones(a1.data, a1.t_plus,
                                                 plus.facets)}
    assert gens == {frozenset({1}), frozenset({0, 1}), frozenset({1, 2})}
    assert {frozenset(s) for s in interior_cones(a1.data, a1.t_minus,
                                                 minus.facets)} \
        == {frozenset({0, 2})}
    assert is_interior_point(a1.data, a1.t_plus, (1, 1), plus.facets)
    assert not is_interior_point(a1.data, a1.t_plus, (0, 1), plus.facets)
    assert not is_interior_point(a1.data, a1.t_plus, (2, 1), plus.facets)
    cplus = conifold.chamber(conifold.t_plus)
    assert is_interior_point(conifold.data, conifold.t_plus, (1, 1, 2),
                             cplus.facets)
    assert not is_interior_point(conifold.data, conifold.t_plus, (1, 1, 1),
                                 cplus.facets)


def test_degenerate_triangulation_is_rejected(a1):
    bad = Triangulation(label="bad", maximal=(frozenset({0, 2}),
                                              frozenset({0, 1})))
    ok, messages = check_triangulation(a1.data, bad)
    assert not ok and messages


def cone_geometry(data, t):
    """Everything toric derives from the cones of t, as comparable data."""
    return {"box": [(g.coords, g.point) for g in toric.compute_box(data, t)],
            "index": [toric.cone_index(data, s) for s in t.maximal],
            "facets": toric.boundary_facets(data, t),
            "check": toric.check_triangulation(data, t)}


@pytest.mark.parametrize("name", ["a1", "conifold", "local_p2",
                                  *SMALL_CIRCUITS],
                         ids=lambda n: n if isinstance(n, str)
                         else "h=" + ",".join(map(str, n)))
def test_cone_geometry_matches_the_fraction_routines(packs, name,
                                                     monkeypatch):
    # the HNF forms of the Box, the cone index and the facet normals give
    # what the Fraction determinant, nullspace and m^rank scan gave, on
    # both triangulations and on their union, which check_triangulation
    # refuses with a message per shared facet
    if name in packs:
        data, tris = packs[name].data, packs[name].tris
    elif name == "local_p2":
        data, tris = parse_fixture(LOCAL_P2)
    else:
        data, tris = circuit_fixture(name)
    assert len(SMALL_CIRCUITS) == 50
    union = Triangulation("union", tris["plus"].maximal
                          + tris["minus"].maximal)
    for t in (tris["plus"], tris["minus"], union):
        got = cone_geometry(data, t)
        assert got["check"][0] == (t is not union), got["check"]
        with monkeypatch.context() as m:
            m.setattr(toric, "compute_box", reference_compute_box)
            m.setattr(toric, "cone_index", reference_cone_index)
            m.setattr(toric, "_facet_normal", reference_facet_normal)
            want = cone_geometry(data, t)
        assert got == want, t.label


def test_box_of_a_large_index_cone():
    # the minus cone of h = (1^6, -6) has index 6: one sector per class,
    # six classes, where the m^rank scan walked 6^6 tuples
    data, tris = circuit_fixture((1, 1, 1, 1, 1, 1, -6))
    plus, minus = (compute_box(data, tris[s]) for s in ("plus", "minus"))
    assert [g.coords for g in plus] == [(0,) * 7]
    assert cone_index(data, tris["minus"].maximal[0]) == 6
    assert [g.coords for g in minus] \
        == [(F(k, 6),) * 6 + (0,) for k in range(6)]
    assert [g.point for g in minus] == [data.combine(g.coords)
                                        for g in minus]
