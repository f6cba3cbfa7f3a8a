import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import cusps
from mukai_kit.errors import IntegerOverflowError, InvariantError
from mukai_kit.lattice import _sign_canonical

RANK5_NS = [[2, 0, 0], [0, -2, 0], [0, 0, -2]]


def _isotropic_grid(lat, height):
    """Reference: scan the whole coordinate box as one numpy grid."""
    n = lat.rank
    axes = [np.arange(-height, height + 1, dtype=np.int64)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    g = np.array(lat.gram_rows(), dtype=np.int64)
    norms = np.einsum("vi,ij,vj->v", grid, g, grid)
    seen = set()
    for row in grid[norms == 0]:
        coords = tuple(int(c) for c in row)
        if any(coords):
            canon = _sign_canonical(coords)
            if math.gcd(*canon) == 1:
                seen.add(canon)
    return sorted(seen)


def _orbit_bfs(vectors, generators, depth, height, frontier_cap=None,
               max_states=500_000):
    """Reference: one state at a time, union-find over coordinate tuples.

    Returns the orbits as a set of frozensets of coordinate tuples and the
    number of states added beyond the window.
    """
    lat = vectors[0].lattice
    if frontier_cap is None:
        frontier_cap = 200 * height
    window = {_sign_canonical(v.coords) for v in vectors}
    mats = []
    for g in generators:
        for h in (g, g.inverse()):
            if h.matrix not in mats:
                mats.append(h.matrix)
    gram = lat.gram
    n = lat.rank
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def div(state):
        return math.gcd(*(sum(gram[i][j] * state[j] for j in range(n))
                          for i in range(n)))

    queue = deque((w, 0) for w in sorted(window))
    depth_seen = {w: 0 for w in window}
    frontier = 0
    while queue:
        state, d = queue.popleft()
        if d >= depth:
            continue
        for mat in mats:
            img = _sign_canonical(tuple(
                sum(mat[i][j] * state[j] for j in range(n))
                for i in range(n)))
            if div(img) != div(state):
                raise InvariantError("generator changed a divisibility")
            union(state, img)
            if img in depth_seen or max(map(abs, img)) > frontier_cap:
                continue
            if len(depth_seen) >= max_states:
                raise ValueError("state budget")
            depth_seen[img] = d + 1
            frontier += 1
            queue.append((img, d + 1))
    groups = {}
    for w in window:
        groups.setdefault(find(w), set()).add(w)
    return {frozenset(g) for g in groups.values()}, frontier


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


@pytest.mark.parametrize("ns,height", [
    ([[2]], 6), ([[12]], 5), ([[2, 1], [1, -2]], 6),
    ([[2, 0], [0, -2]], 6), (RANK5_NS, 4), ([[4, 0, 0], [0, -2, 1],
                                             [0, 1, -2]], 6)])
def test_enumerate_isotropic_vs_grid(ns, height):
    lat = mk.mukai_lattice(ns)
    got = [v.coords for v in cusps.enumerate_isotropic(lat, height)]
    assert got == _isotropic_grid(lat, height)


def test_enumerate_isotropic_rank5_height20():
    # 41^5 ~ 1.2e8 box points; only (2h + 1)^4 of them are scanned now
    lat = mk.mukai_lattice(RANK5_NS, "rank5")
    vecs = cusps.enumerate_isotropic(lat, 20)
    coords = np.array([v.coords for v in vecs], dtype=np.int64)
    g = np.array(lat.gram, dtype=np.int64)
    assert len(vecs) > 0 and np.abs(coords).max() == 20
    assert not np.einsum("vi,ij,vj->v", coords, g, coords).any()
    assert (np.gcd.reduce(coords, axis=1) == 1).all()
    assert all(_sign_canonical(c) == c for c in map(tuple, coords.tolist()))
    assert [v.coords for v in vecs] == sorted({v.coords for v in vecs})


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


def test_orbit_partition_rejects_shear():
    # a shear of U keeps every divisibility (all are 1) but not the form
    class Shear:
        matrix = ((1, 1), (0, 1))

        def inverse(self):
            return self

    vecs = cusps.enumerate_isotropic(mk.preset("U"), 1)
    with pytest.raises(InvariantError, match="not an isometry"):
        cusps.orbit_partition(vecs, [Shear()], 1)


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


def _stopped_bfs(vectors, generators, depth, height, frontier_cap,
                 max_states):
    """Reference for the early stop: the full BFS to the least depth after
    which each divisibility bucket is one window class, else to ``depth``.
    """
    buckets = len(cusps.classify_divisibility(vectors))
    for d in range(depth + 1):
        want = _orbit_bfs(vectors, generators, d, height, frontier_cap,
                          max_states)
        if len(want[0]) == buckets:
            break
    return want


def _check_against_bfs(lat, height, depth, root_bound, cap, max_states):
    vecs = cusps.enumerate_isotropic(lat, height)
    gens = cusps.default_generators(lat, root_bound)
    kwargs = dict(height=height, frontier_cap=cap, max_states=max_states)
    # the stop is exact: the partition is the full-depth one, which may
    # need more states than the stopped sweep is allowed
    full = _orbit_bfs(vecs, gens, depth, height, cap, math.inf)[0]
    try:
        want = _stopped_bfs(vecs, gens, depth, height, cap, max_states)
    except ValueError:
        with pytest.raises(ValueError):
            cusps.orbit_partition(vecs, gens, depth, **kwargs)
        return
    res = cusps.orbit_partition(vecs, gens, depth, **kwargs)
    assert {frozenset(v.coords for v in orb) for orb in res.orbits} == full
    assert res.frontier_sizes == [want[1]]
    for orb, rep in zip(res.orbits, res.representative):
        assert [v.coords for v in orb] == sorted(v.coords for v in orb)
        assert rep == orb[0]
    assert [r.coords for r in res.representative] == \
        sorted(r.coords for r in res.representative)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 12), st.integers(6, 12), st.integers(1, 6),
       st.integers(2, 8), st.sampled_from([None, 30]),
       st.sampled_from([500_000, 400]))
@example(1, 12, 6, 8, None, 500_000)
@example(4, 12, 6, 8, None, 500_000)
@example(6, 9, 6, 8, None, 500_000)
@example(1, 12, 6, 8, None, 400)
def test_orbit_partition_vs_bfs(n, height, depth, root_bound, cap,
                                max_states):
    _check_against_bfs(mk.preset(f"mukai_rank1({n})"), height, depth,
                       root_bound, cap, max_states)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 3), st.integers(1, 6), st.integers(1, 2),
       st.sampled_from([3, 6, 10]), st.sampled_from([500_000, 40]))
def test_orbit_partition_vs_bfs_rank4(height, depth, root_bound, cap,
                                      max_states):
    # the full-depth sweep outgrows any budget without a small cap
    _check_against_bfs(mk.mukai_lattice([[4, 0], [0, -2]]), height, depth,
                       root_bound, cap, max_states)


def test_orbit_partition_merges_through_capped_images():
    # two window vectors meet only in an image beyond the frontier cap,
    # which is never expanded but still joins their orbits
    lat = mk.mukai_lattice([[4, 0], [0, -2]])
    _check_against_bfs(lat, 3, 1, 1, 3, 500_000)


def test_orbit_partition_state_budget_is_exact():
    lat = mk.preset("mukai_rank1(2)")
    vecs = cusps.enumerate_isotropic(lat, 6)
    gens = cusps.default_generators(lat, 4)
    res = cusps.orbit_partition(vecs, gens, 3)
    states = len(vecs) + res.frontier_sizes[0]
    again = cusps.orbit_partition(vecs, gens, 3, max_states=states)
    assert again.frontier_sizes == res.frontier_sizes
    with pytest.raises(ValueError):
        cusps.orbit_partition(vecs, gens, 3, max_states=states - 1)


def test_orbit_partition_overflow_guard():
    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 3)
    gens = cusps.default_generators(lat, 3)
    with pytest.raises(IntegerOverflowError):
        cusps.orbit_partition(vecs, gens, 2, frontier_cap=2 ** 60)


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


def test_uu_census_is_one_class():
    # Eichler: U + U has one orbit of primitive isotropic vectors
    uu = mk.direct_sum(mk.preset("U"), mk.preset("U"), label="U+U")
    rep = cusps.cusp_census(uu, height=3)
    assert rep.count == 1 and rep.records[0].div == 1


@pytest.mark.parametrize("height", [4, 6])
def test_rank4_census_one_class_per_divisibility(height):
    lat = mk.mukai_lattice([[2, 0], [0, -2]])
    rep = cusps.cusp_census(lat, height=height)
    assert [r.div for r in rep.records] == [1, 2]


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
