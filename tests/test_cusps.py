import math

import pytest

import mukai_kit as mk
from mukai_kit import cusps
from mukai_kit.errors import InvariantError


def test_enumerate_isotropic_U():
    u = mk.preset("U")
    vecs = cusps.enumerate_isotropic(u, 1)
    assert {v.coords for v in vecs} == {(1, 0), (0, 1)}


def test_enumerate_isotropic_definite():
    assert cusps.enumerate_isotropic(mk.preset("bracket(2)"), 5) == []


def test_enumerate_isotropic_vs_scan():
    import itertools
    lat = mk.direct_sum(mk.preset("U"), mk.preset("bracket(2)"))
    got = {v.coords for v in cusps.enumerate_isotropic(lat, 2)}
    want = set()
    for c in itertools.product(range(-2, 3), repeat=3):
        if not any(c):
            continue
        first = next(x for x in c if x != 0)
        canon = c if first > 0 else tuple(-x for x in c)
        if math.gcd(*canon) == 1 and lat.vector(canon).norm2 == 0:
            want.add(canon)
    assert got == want


def test_no_plus_minus_pairs():
    lat = mk.preset("mukai_rank1(2)")
    vecs = cusps.enumerate_isotropic(lat, 6)
    seen = {v.coords for v in vecs}
    for c in seen:
        assert tuple(-x for x in c) not in seen


def test_classify_divisibility():
    # U(2) + <2>: e has divisibility 2
    lat = mk.direct_sum(mk.make_lattice([[0, 2], [2, 0]], "U(2)"),
                        mk.preset("bracket(2)"))
    vecs = cusps.enumerate_isotropic(lat, 2)
    buckets = cusps.classify_divisibility(vecs)
    assert 2 in buckets
    assert any(v.coords == (1, 0, 0) for v in buckets[2])
    # unimodular U: every isotropic vector is standard
    u = mk.preset("U")
    buckets_u = cusps.classify_divisibility(cusps.enumerate_isotropic(u, 8))
    assert list(buckets_u) == [1]


def test_orbit_partition_no_generators():
    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 2)
    res = cusps.orbit_partition(vecs, [], 3)
    assert len(res.orbits) == len(vecs)


def test_orbit_partition_rejects_non_isometry():
    # x -> 2x doubles the divisibility, which no isometry can do
    class Doubling:
        matrix = ((2, 0, 0), (0, 2, 0), (0, 0, 2))

        def inverse(self):
            return self

    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 2)
    with pytest.raises(InvariantError):
        cusps.orbit_partition(vecs, [Doubling()], 1)


def test_orbit_partition_merges_and_closure():
    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 3)
    gens = cusps.default_generators(lat, 3)
    res = cusps.orbit_partition(vecs, gens, 4)
    # v0 and (1,0,0) merge through the reflection in (1,0,1)
    orbit_of = {}
    for i, orb in enumerate(res.orbits):
        for v in orb:
            orbit_of[v.coords] = i
    assert orbit_of[(0, 0, 1)] == orbit_of[(1, 0, 0)]
    # applying a generator to an orbit member stays in the orbit
    for orb in res.orbits:
        member = orb[0]
        for g in gens[:3]:
            img = g.apply(member)
            canon = cusps._sign_canonical(img.coords)
            if max(abs(c) for c in canon) <= 3:
                assert orbit_of[canon] == orbit_of[member.coords]


def test_fricke_cusp_counts():
    assert [cusps.fricke_cusp_count(n) for n in range(1, 7)] == \
        [1, 1, 1, 2, 1, 2]
    # classical checks: Gamma_0(6) has 4 cusps folding to 2;
    # Gamma_0(4) has 3 cusps folding to 2; a square case and a prime power
    assert cusps.fricke_cusp_count(9) == 2
    assert cusps.fricke_cusp_count(12) == 3
    with pytest.raises(ValueError):
        cusps.fricke_cusp_count(0)


def test_standard_census_vs_partner_count():
    # the standard bucket alone matches the Fourier-Mukai partner count
    # 2^{max(0, omega(n) - 1)}
    expected = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2}
    for n, want in expected.items():
        lat = mk.preset(f"mukai_rank1({n})")
        rep = cusps.standard_cusp_census(lat, height=14, word_depth=6,
                                         root_bound=8)
        assert rep.count == want, f"n={n}"


def test_full_census_matches_fricke():
    for n in (1, 4, 6):
        lat = mk.preset(f"mukai_rank1({n})")
        rep = cusps.cusp_census(lat, height=14, word_depth=6, root_bound=8)
        assert rep.count == cusps.fricke_cusp_count(n), f"n={n}"


def test_census_records_are_lattice_shadows():
    lat = mk.preset("mukai_rank1(3)")
    rep = cusps.standard_cusp_census(lat, height=10)
    assert rep.count == 1
    rec = rep.records[0]
    assert rec.div == 1
    assert rec.Lv_gram == ((6,),)
    assert rec.disc_group == (6,)
    assert abs(mk.make_lattice(rec.Lv_gram).det) == abs(lat.det)
    js = rep.to_json()
    assert js["count"] == 1 and js["records"][0]["div"] == 1


def test_census_det_invariant_blocks_merge():
    # distinct |det L(v)| can never merge; simulated by distinct div buckets
    lat = mk.preset("mukai_rank1(4)")
    rep = cusps.cusp_census(lat, height=14, word_depth=6, root_bound=8)
    divs = sorted(r.div for r in rep.records)
    assert divs == [1, 2]


def test_uu_census_identical_shadows():
    # every standard vector of U + U has L(v) of determinant -1 and
    # signature (1,1): identical lattice invariants across the census.
    # U + U has a large Weyl group, so keep the generator set small.
    uu = mk.direct_sum(mk.preset("U"), mk.preset("U"), label="U+U")
    rep = cusps.standard_cusp_census(uu, height=2, word_depth=2,
                                     root_bound=1)
    assert rep.count >= 1
    for rec in rep.records:
        lv = mk.make_lattice(rec.Lv_gram)
        assert abs(lv.det) == 1
        assert lv.signature == (1, 1)
        assert rec.disc_group == ()


def test_isotropic_planes_listing():
    uu = mk.direct_sum(mk.preset("U"), mk.preset("U"))
    pairs = cusps.enumerate_isotropic_planes(uu, 1)
    assert pairs
    for u, w in pairs:
        assert u.norm2 == 0 and w.norm2 == 0 and mk.pair(u, w) == 0
