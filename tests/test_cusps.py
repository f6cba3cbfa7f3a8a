import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import cusps
from mukai_kit import intlinalg as ila
from mukai_kit.errors import (
    DegenerateError,
    IntegerOverflowError,
    InvariantError,
)
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


def classify_divisibility(vectors):
    """Reference: primitive isotropic vectors by div(v) = gcd(G @ v), one
    ``divisibility`` call per vector."""
    buckets = {}
    for v in vectors:
        buckets.setdefault(mk.divisibility(v), []).append(v)
    return dict(sorted(buckets.items()))


def _coords(rows):
    return [tuple(r) for r in rows.tolist()]


def _classes(window, class_of):
    """Coordinate sets of the classes of ``class_of``, keyed by the class id;
    each id must be the index of its class's least (lex-first) row."""
    classes = {}
    for i, c in enumerate(class_of.tolist()):
        classes.setdefault(c, []).append(i)
    for c, members in classes.items():
        assert c == min(members)
    return {c: {tuple(window[i].tolist()) for i in members}
            for c, members in classes.items()}


def _orbit_bfs(lat, rows, generators, depth, height, frontier_cap=None,
               max_states=500_000):
    """Reference: one state at a time, union-find over coordinate tuples.

    Returns the orbits as a set of frozensets of coordinate tuples and the
    number of states added beyond the window.
    """
    if frontier_cap is None:
        frontier_cap = 200 * height
    window = {_sign_canonical(c) for c in _coords(rows)}
    mats = []
    for m in generators.tolist():
        g = mk.Isometry(lat, tuple(map(tuple, m)))
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
    assert vecs.dtype == np.int64
    assert set(_coords(vecs)) == {(1, 0), (0, 1)}


def test_enumerate_isotropic_definite():
    lat = mk.preset("bracket(2)")
    window = cusps.enumerate_isotropic(lat, 5)
    assert window.shape == (0, 1)
    res = cusps.orbit_partition(lat, window, cusps.default_generators(lat, 3),
                                3)
    assert res.class_of.shape == (0,) and res.frontier_sizes == [0]
    assert cusps.cusp_census(lat, 5).count == 0


def test_enumerate_isotropic_vs_scan():
    import itertools
    lat = mk.direct_sum(mk.preset("U"), mk.preset("bracket(2)"))
    got = set(_coords(cusps.enumerate_isotropic(lat, 2)))
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
    got = _coords(cusps.enumerate_isotropic(lat, height))
    assert got == _isotropic_grid(lat, height)


def test_enumerate_isotropic_rank5_height20():
    # 41^5 ~ 1.2e8 box points; only (2h + 1)^4 of them are scanned now
    lat = mk.mukai_lattice(RANK5_NS, "rank5")
    coords = cusps.enumerate_isotropic(lat, 20)
    g = np.array(lat.gram, dtype=np.int64)
    assert coords.dtype == np.int64
    assert len(coords) > 0 and np.abs(coords).max() == 20
    assert not np.einsum("vi,ij,vj->v", coords, g, coords).any()
    assert (np.gcd.reduce(coords, axis=1) == 1).all()
    assert all(_sign_canonical(c) == c for c in _coords(coords))
    assert _coords(coords) == sorted(set(_coords(coords)))


def test_no_plus_minus_pairs():
    lat = mk.preset("mukai_rank1(2)")
    seen = set(_coords(cusps.enumerate_isotropic(lat, 6)))
    for c in seen:
        assert tuple(-x for x in c) not in seen


def test_classify_divisibility():
    # U(2) + <2>: e has divisibility 2
    lat = mk.direct_sum(mk.make_lattice([[0, 2], [2, 0]], "U(2)"),
                        mk.preset("bracket(2)"))
    vecs = map(lat.vector, cusps.enumerate_isotropic(lat, 2))
    buckets = classify_divisibility(vecs)
    assert 2 in buckets
    assert any(v.coords == (1, 0, 0) for v in buckets[2])
    # unimodular U: every isotropic vector is standard
    u = mk.preset("U")
    buckets_u = classify_divisibility(
        map(u.vector, cusps.enumerate_isotropic(u, 8)))
    assert list(buckets_u) == [1]


def _generators_oracle(lat, root_bound):
    """Reference: -id, one reflection per +-root of the box and the line
    twists as a list of Isometry objects, each checked exactly on its own."""
    n, gram = lat.rank, lat.gram_rows()
    gens = [mk.minus_identity(lat)]
    seen = set()
    for c in mk.vectors_of_norm(lat, -2, root_bound).tolist():
        delta = _sign_canonical(tuple(c))
        if delta in seen:
            continue
        seen.add(delta)
        gd = [sum(g * d for g, d in zip(row, delta)) for row in gram]
        gens.append(mk.Isometry(lat, tuple(
            tuple(int(i == j) + delta[i] * gd[j] for j in range(n))
            for i in range(n))))
    if lat.mukai:
        k = lat.ns_rank
        gens += [mk.line_twist_isometry(lat, [int(i == j) for j in range(k)])
                 for i in range(k)]
    return gens


@st.composite
def _generator_lattices(draw):
    """Mukai lattices of rank 3 to 5 and a few lattices of other forms."""
    if draw(st.booleans()):
        return draw(st.sampled_from([
            mk.direct_sum(mk.preset("U"), mk.make_lattice([[-2]])),
            mk.direct_sum(mk.preset("U"), mk.preset("bracket(4)")),
            mk.direct_sum(mk.preset("U"), mk.preset("U"))]))
    k = draw(st.integers(1, 3))
    ns = [[0] * k for _ in range(k)]
    for i in range(k):
        ns[i][i] = draw(st.sampled_from([-6, -4, -2, 2, 4, 6]))
        for j in range(i):
            ns[i][j] = ns[j][i] = draw(st.integers(-2, 2))
    try:
        return mk.mukai_lattice(ns)
    except DegenerateError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(_generator_lattices(), st.integers(1, 8))
@example(mk.mukai_lattice(RANK5_NS), 8)
@example(mk.direct_sum(mk.preset("U"), mk.make_lattice([[-2]])), 8)
@example(mk.mukai_lattice([[2 ** 61]]), 2)     # Python-int stack
def test_default_generators_vs_isometry_list(lat, root_bound):
    stack = cusps.default_generators(lat, root_bound)
    oracle = _generators_oracle(lat, root_bound)
    assert stack.shape == (len(oracle), lat.rank, lat.rank)
    assert stack.dtype == mk.vectors_of_norm(lat, -2, root_bound).dtype
    mats = [tuple(map(tuple, m)) for m in stack.tolist()]
    assert len(set(mats)) == len(mats)
    assert set(mats) == {g.matrix for g in oracle}
    blob = repr(sorted(g.matrix for g in oracle)).encode()
    assert cusps._generator_hash(stack) == \
        hashlib.sha256(blob).hexdigest()[:16]
    inv = cusps._inverses(lat, stack)
    assert (stack @ inv == np.eye(lat.rank, dtype=int)).all()
    if lat.mukai:
        k = lat.ns_rank
        for i in range(k):
            minus_e = [-int(i == j) for j in range(k)]
            assert tuple(map(tuple, inv[1 + i].tolist())) == \
                mk.line_twist_isometry(lat, minus_e).matrix


def test_orbit_partition_no_generators():
    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 2)
    res = cusps.orbit_partition(lat, vecs, [], 3)
    assert res.class_of.tolist() == list(range(len(vecs)))


def test_orbit_partition_rejects_non_isometry():
    # x -> 2x doubles the divisibility, which no isometry can do
    doubling = 2 * np.eye(3, dtype=np.int64)[None]
    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 2)
    with pytest.raises(InvariantError):
        cusps.orbit_partition(lat, vecs, doubling, 1)


def test_orbit_partition_rejects_shear():
    # a shear of U keeps every divisibility (all are 1) but not the form
    shear = np.array([[[1, 1], [0, 1]]])
    u = mk.preset("U")
    vecs = cusps.enumerate_isotropic(u, 1)
    with pytest.raises(InvariantError, match="not an isometry"):
        cusps.orbit_partition(u, vecs, shear, 1)


def test_orbit_partition_rejects_a_flat_stack():
    # nine entries per row would reshape to 3 x 3 matrices, silently
    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 2)
    flat = cusps.default_generators(lat, 1)[:2].reshape(2, 9)
    with pytest.raises(ValueError, match=r"shape \(count, 3, 3\).*\(2, 9\)"):
        cusps.orbit_partition(lat, vecs, flat, 1)


def test_orbit_partition_rejects_a_float_stack():
    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 2)
    gens = cusps.default_generators(lat, 2)
    with pytest.raises(TypeError, match="float64"):
        cusps.orbit_partition(lat, vecs, gens.astype(float), 1)
    with pytest.raises(TypeError, match="object"):
        cusps.orbit_partition(lat, vecs, gens.astype(float).astype(object), 1)
    exact = cusps.orbit_partition(lat, vecs, gens.astype(object), 2)
    assert exact.class_of.tolist() == \
        cusps.orbit_partition(lat, vecs, gens, 2).class_of.tolist()


def test_orbit_partition_merges_and_closure():
    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 3)
    gens = cusps.default_generators(lat, 3)
    res = cusps.orbit_partition(lat, vecs, gens, 4)
    # v0 and (1,0,0) merge through the reflection in (1,0,1)
    orbit_of = dict(zip(_coords(vecs), res.class_of.tolist()))
    assert orbit_of[(0, 0, 1)] == orbit_of[(1, 0, 0)]
    # applying a generator to an orbit member stays in the orbit
    for rep in np.unique(res.class_of).tolist():
        member = tuple(vecs[rep].tolist())
        for m in gens[:3]:
            canon = _sign_canonical(tuple((m @ vecs[rep]).tolist()))
            if max(abs(c) for c in canon) <= 3:
                assert orbit_of[canon] == orbit_of[member]


def _stopped_bfs(lat, rows, generators, depth, height, frontier_cap,
                 max_states):
    """Reference for the early stop: the full BFS to the least depth after
    which each divisibility bucket is one window class, else to ``depth``.
    """
    buckets = len(classify_divisibility(map(lat.vector, rows)))
    for d in range(depth + 1):
        want = _orbit_bfs(lat, rows, generators, d, height, frontier_cap,
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
    full = _orbit_bfs(lat, vecs, gens, depth, height, cap, math.inf)[0]
    try:
        want = _stopped_bfs(lat, vecs, gens, depth, height, cap, max_states)
    except ValueError:
        with pytest.raises(ValueError):
            cusps.orbit_partition(lat, vecs, gens, depth, **kwargs)
        return
    res = cusps.orbit_partition(lat, vecs, gens, depth, **kwargs)
    # each class id is the index of its least member, and the window is in
    # lex order, so it is the lex-least member
    classes = _classes(vecs, res.class_of)
    assert set(map(frozenset, classes.values())) == full
    assert res.frontier_sizes == [want[1]]
    assert _coords(vecs) == sorted(_coords(vecs))
    for c, members in classes.items():
        assert tuple(vecs[c].tolist()) == min(members)


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
    res = cusps.orbit_partition(lat, vecs, gens, 3)
    states = len(vecs) + res.frontier_sizes[0]
    again = cusps.orbit_partition(lat, vecs, gens, 3, max_states=states)
    assert again.frontier_sizes == res.frontier_sizes
    with pytest.raises(ValueError):
        cusps.orbit_partition(lat, vecs, gens, 3, max_states=states - 1)


def test_orbit_partition_overflow_guard():
    lat = mk.preset("mukai_rank1(1)")
    vecs = cusps.enumerate_isotropic(lat, 3)
    gens = cusps.default_generators(lat, 3)
    with pytest.raises(IntegerOverflowError):
        cusps.orbit_partition(lat, vecs, gens, 2, frontier_cap=2 ** 60)


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


# -- the Gamma_0(n)^+ label census on U + <2n> --------------------------------

def _omega(n):
    """Number of distinct primes dividing n, by trial division."""
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


def _label_classes(rows, n):
    """Window rows grouped by their Fricke label, as coordinate sets."""
    classes = {}
    for c, label in zip(_coords(rows), cusps._fricke_labels(rows, n).tolist()):
        classes.setdefault(label, set()).add(c)
    return classes


def _gamma0_equivalent(p, q, n):
    """a/c ~ a'/c' under Gamma_0(n), straight from the matrices.

    With M, M' in SL_2(Z) of first columns (a, c), (a', c'), the elements
    of SL_2(Z) taking one cusp to the other are +-M' [[1, k], [0, 1]] M^-1;
    the lower-left entry c'e - ce' - kcc' (e, e' the lower-right entries)
    is 0 mod n for some k iff gcd(cc', n) divides c'e - ce'.
    """
    (a, c), (a2, c2) = p, q
    e = pow(a, -1, c) if c > 1 else 1
    e2 = pow(a2, -1, c2) if c2 > 1 else 1
    return (c2 * e - c * e2) % math.gcd(c * c2, n) == 0


def _fricke_count_by_matrices(n):
    """Classes of the cusps a/d (d | n) under Gamma_0(n) and z -> -1/(nz)."""
    reps = [(a, d) for d in range(1, n + 1) if n % d == 0
            for a in range(d) if math.gcd(a, d) == 1]
    classes = []
    for a, c in reps:
        g = math.gcd(c, n * a)                  # image -c/(na) = c/(-na)
        image = (-c // g, n * a // g) if a else (1, 0)
        found = [k for k, cls in enumerate(classes)
                 if any(_gamma0_equivalent(x, y, n)
                        for x in ((a, c), image) for y in cls)]
        merged = {(a, c), image}.union(*(classes[k] for k in found))
        classes = [cls for k, cls in enumerate(classes) if k not in found]
        classes.append(merged)
    return len(classes)


def test_fricke_count_vs_matrices():
    # the Fricke image of 2/5 at n = 25 is -1/10 ~ 3/5, so 25 has 3 cusps
    assert [cusps.fricke_cusp_count(n) for n in range(1, 121)] == \
        [_fricke_count_by_matrices(n) for n in range(1, 121)]
    assert cusps.fricke_cusp_count(25) == 3


def test_omega_by_trial_division():
    assert [_omega(n) for n in (1, 2, 12, 30, 49, 60, 97)] == \
        [0, 1, 2, 3, 1, 3, 1]


@pytest.mark.parametrize("n", range(1, 61))
def test_census_matches_fricke_up_to_60(n):
    lat = mk.preset(f"mukai_rank1({n})")
    height = 4 * n + 20
    assert cusps.cusp_census(lat, height).count == cusps.fricke_cusp_count(n)
    # standard classes are the Fourier-Mukai partners: 2^(omega(n) - 1)
    assert cusps.standard_cusp_census(lat, height).count == \
        2 ** max(_omega(n) - 1, 0)


def test_rank1_default_census_runs_no_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("orbit_partition called")

    monkeypatch.setattr(cusps, "orbit_partition", no_sweep)
    lat = mk.preset("mukai_rank1(6)")
    assert cusps.cusp_census(lat, 12).count == 2
    assert cusps.standard_cusp_census(lat, 12).count == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_explicit_generators_take_the_sweep(n, monkeypatch):
    lat = mk.preset(f"mukai_rank1({n})")
    calls = []
    sweep = cusps.orbit_partition

    def spy(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(cusps, "orbit_partition", spy)
    gens = cusps.default_generators(lat, 8)
    for census in (cusps.cusp_census, cusps.standard_cusp_census):
        swept = census(lat, 16, generators=gens)
        assert swept.to_json() == census(lat, 16).to_json()
    assert len(calls) == 2


def test_label_class_with_two_divisibilities_raises(monkeypatch):
    # U + <8> has cusps of divisibility 1 and 2; one label for all merges them
    monkeypatch.setattr(cusps, "_fricke_labels",
                        lambda coords, n: np.zeros(len(coords), int))
    with pytest.raises(InvariantError, match="divisibility"):
        cusps.cusp_census(mk.preset("mukai_rank1(4)"), 10)


def _planted(kind):
    """A hyperbolic frame (f | R | v) broken one way."""
    def frame(v):
        f, *comp, v_ = mk.hyperbolic_frame(v)
        if kind == "swapped":        # (v | R | f): B e_last is not v
            return (v_, *comp, f)
        if kind == "bent":           # f + v: f^2 = -2
            return (tuple(a + b for a, b in zip(f, v_)), *comp, v_)
        # R doubled: B^T G B is still a Mukai form, but det B = 2^rho
        return (f, *(tuple(2 * x for x in c) for c in comp), v_)
    return frame


def test_label_census_checks_the_shadow(monkeypatch):
    # every vector of U + <2> has divisibility 1, so every record reads
    # the frame
    for kind in ("swapped", "bent", "doubled"):
        monkeypatch.setattr(cusps, "hyperbolic_frame", _planted(kind))
        for census in (cusps.cusp_census, cusps.standard_cusp_census):
            with pytest.raises(InvariantError, match="L\\(v\\)"):
                census(mk.preset("mukai_rank1(1)"), 6)


def test_census_checks_the_shadow_at_divisibility_two(monkeypatch):
    # U + <8>: L(v) = <2> at div 2; <4> fails |det L(v)| 2^2 = 8 and <-2>,
    # of the right det, fails the signature (1, 0)
    for planted in ([[4]], [[-2]]):
        monkeypatch.setattr(cusps, "quotient_lattice",
                            lambda v: mk.make_lattice(planted))
        cusps.standard_cusp_census(mk.preset("mukai_rank1(4)"), 6)
        with pytest.raises(InvariantError, match="L\\(v\\)"):
            cusps.cusp_census(mk.preset("mukai_rank1(4)"), 6)


@pytest.mark.parametrize("lat, generators", [
    (mk.preset("mukai_rank1(6)"), None),
    (mk.preset("mukai_rank1(6)"), 8),
    (mk.mukai_lattice([[2, 0], [0, -2]]), None),
    (mk.direct_sum(mk.preset("U"), mk.preset("U")), None),
], ids=["labels", "sweep", "rank4", "U+U"])
def test_census_records_carry_their_certificate(lat, generators):
    # div 1: B^T G B is the Mukai form over the record's L(v), B e_last = v
    # and |det B| = 1; every div: |det L(v)| div^2 = |det L|
    gens = None if generators is None else \
        cusps.default_generators(lat, generators)
    for census in (cusps.cusp_census, cusps.standard_cusp_census):
        for rec in census(lat, 8, generators=gens).records:
            lv = mk.IntegerLattice(rec.Lv_gram)
            assert abs(lv.det) * rec.div ** 2 == abs(lat.det)
            if rec.div == 1:
                b = mk.hyperbolic_frame(rec.rep)
                assert b[-1] == rec.rep.coords
                assert tuple(map(tuple, ila.gram_of(b, lat.gram))) == \
                    mk.mukai_lattice(rec.Lv_gram).gram
                assert abs(ila.det_bareiss([list(r) for r in zip(*b)])) == 1


@pytest.mark.parametrize("census", [cusps.cusp_census,
                                    cusps.standard_cusp_census])
def test_census_rejects_an_orientation_reversing_generator(census):
    # w -> w - (delta.w) delta with delta^2 = 2 is an isometry of U + <2>
    # that swaps the two orientations of positive 2-planes
    lat = mk.preset("mukai_rank1(1)")
    gens = cusps.default_generators(lat, 2)
    delta = np.array([1, 0, -1])
    plus2 = np.eye(3, dtype=gens.dtype) - np.outer(delta,
                                                   np.array(lat.gram) @ delta)
    census(lat, 6, generators=gens)
    with pytest.raises(InvariantError, match=f"generator {len(gens)} "):
        census(lat, 6, generators=np.concatenate([gens, plus2[None]]))


def test_negative_word_depth_rejected():
    lat = mk.preset("mukai_rank1(2)")
    vecs = cusps.enumerate_isotropic(lat, 4)
    gens = cusps.default_generators(lat, 4)
    for census in (cusps.cusp_census, cusps.standard_cusp_census):
        with pytest.raises(ValueError, match="word depth"):
            census(lat, 4, word_depth=-1)
        with pytest.raises(ValueError, match="word depth"):
            census(lat, 4, generators=gens, word_depth=-1)
    with pytest.raises(ValueError, match="word depth"):
        cusps.orbit_partition(lat, vecs, gens, -1)


def test_negative_word_depth_rejected_before_the_window(monkeypatch):
    def no_window(*args, **kwargs):
        raise AssertionError("enumerate_isotropic called")

    monkeypatch.setattr(cusps, "enumerate_isotropic", no_window)
    lat = mk.make_lattice([[2, 0, 0], [0, -2, 0], [0, 0, -2]])
    for census in (cusps.cusp_census, cusps.standard_cusp_census):
        with pytest.raises(ValueError, match="word depth"):
            census(lat, 20, word_depth=-1)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 60), st.integers(6, 12))
@example(10, 12)
@example(27, 12)
@example(25, 20)
@example(45, 20)
@example(60, 12)
def test_sweep_classes_refine_labels(n, height):
    # the sweep only merges along isometries, so it never joins two labels.
    # At n = 25, height 20, it joins (5, 2) and (5, 3), which the pairing
    # (n/d, -x^-1) would keep apart; at n = 25, 27 and 45 it joins vectors
    # whose labels without the factor c/d would differ.
    lat = mk.preset(f"mukai_rank1({n})")
    vecs = cusps.enumerate_isotropic(lat, height)
    res = cusps.orbit_partition(lat, vecs, cusps.default_generators(lat, 8),
                                6, height=height)
    classes = _label_classes(vecs, n)
    owner = {c: label for label, cls in classes.items() for c in cls}
    orbits = _classes(vecs, res.class_of).values()
    for orbit in orbits:
        assert len({owner[c] for c in orbit}) == 1
    assert len(classes) <= len(orbits)


def test_rank1_shadow_closed_form_on_every_vector():
    # L(v) = <2n / div(v)^2> against the Hermite-form quotient, per vector
    for n in range(1, 61):
        lat = mk.preset(f"mukai_rank1({n})")
        for v in map(lat.vector, cusps.enumerate_isotropic(lat, 4 * n + 20)):
            k = 2 * n // mk.divisibility(v) ** 2
            lv = mk.quotient_lattice(v)
            assert (lv.gram, mk.discriminant_group(lv)) == (((k,),), [k]), v


@pytest.mark.parametrize("n", [4, 6, 10, 12, 30])
def test_label_classes_keep_shadow_invariants(n):
    # the per-member check the census made before labels: every member of
    # a class has the same L(v) invariants as its representative
    lat = mk.preset(f"mukai_rank1({n})")
    vecs = cusps.enumerate_isotropic(lat, 12)
    report = cusps.cusp_census(lat, 12)
    reps = {r.rep.coords: r for r in report.records}
    for cls in _label_classes(vecs, n).values():
        rec = reps[min(cls)]
        assert rec.orbit_size_found == len(cls)
        for coords in cls:
            lv = mk.quotient_lattice(lat.vector(coords))
            assert (tuple(mk.discriminant_group(lv)), abs(lv.det)) == \
                (rec.disc_group, abs(mk.make_lattice(rec.Lv_gram).det))


# -- the array divisibilities against one divisibility call per vector -------

def _check_census_divisibilities(lat, height, **kwargs):
    # every record's div is div(rep), and the class sizes of each div add up
    # to that div's bucket of the window, on the full and the standard census
    window = map(lat.vector, cusps.enumerate_isotropic(lat, height))
    buckets = {d: len(vs) for d, vs in classify_divisibility(window).items()}
    for census, want in ((cusps.cusp_census, buckets),
                         (cusps.standard_cusp_census,
                          {d: k for d, k in buckets.items() if d == 1})):
        sizes = {}
        for rec in census(lat, height, **kwargs).records:
            assert rec.div == mk.divisibility(rec.rep)
            sizes[rec.div] = sizes.get(rec.div, 0) + rec.orbit_size_found
        assert sizes == want


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 60), st.integers(1, 16))
@example(12, 16)
def test_census_divisibilities_vs_oracle_labels(n, height):
    _check_census_divisibilities(mk.preset(f"mukai_rank1({n})"), height)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
       st.integers(1, 4))
@example(1, 1, 0, 4)
def test_census_divisibilities_vs_oracle_sweep(a, b, c, height):
    lat = mk.mukai_lattice([[2 * a, c], [c, -2 * b]])
    _check_census_divisibilities(lat, height, word_depth=2, root_bound=3)
