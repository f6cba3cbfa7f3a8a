import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit.errors import (
    DegenerateError,
    NonSymmetricError,
    NotARootError,
    NotStandardError,
    OddSquareError,
    UnknownPresetError,
)
from mukai_kit.lattice import vectors_of_norm


# -- construction and presets -------------------------------------------------

def test_make_lattice_signatures():
    assert mk.make_lattice([[0, 1], [1, 0]]).signature == (1, 1)
    three = mk.direct_sum(mk.preset("U"), mk.preset("bracket(2)"))
    assert three.signature == (2, 1)


def test_make_lattice_rejects():
    with pytest.raises(NonSymmetricError):
        mk.make_lattice([[0, 1], [2, 0]])
    with pytest.raises(DegenerateError):
        mk.make_lattice([[1, 1], [1, 1]])


def test_presets():
    assert mk.preset("U").gram == ((0, 1), (1, 0))
    m3 = mk.preset("mukai_rank1(3)")
    assert m3.signature == (2, 1)
    assert m3.gram[1][1] == 6
    full = mk.preset("full_mukai")
    assert full.rank == 24
    assert full.signature == (4, 20)
    e8 = mk.preset("E8_minus")
    assert e8.signature == (0, 8)
    assert abs(e8.det) == 1
    with pytest.raises(UnknownPresetError):
        mk.preset("bracket(3)")
    with pytest.raises(UnknownPresetError):
        mk.preset("nope")


# -- pairings ------------------------------------------------------------------

def test_all_presets_even():
    for name in ("U", "E8_minus", "bracket(4)", "mukai_rank1(2)",
                 "full_mukai"):
        assert mk.preset(name).is_even


def test_lattice_mismatch():
    from mukai_kit.errors import LatticeMismatchError
    u = mk.preset("U")
    w = mk.preset("bracket(2)")
    with pytest.raises(LatticeMismatchError):
        mk.pair(u.vector([1, 0]), mk.preset("mukai_rank1(1)").vector([1, 0, 0]))


def test_pairing_examples():
    three = mk.direct_sum(mk.preset("U"), mk.preset("bracket(2)"))
    # order (e, f, H)
    assert mk.pair(three.vector([0, 1, 0]), three.vector([1, 0, 0])) == 1
    m1 = mk.preset("mukai_rank1(1)")
    v0 = m1.vector([0, 0, 1])
    assert mk.pair(v0, v0) == 0
    assert mk.pair(m1.vector([1, 0, 1]), m1.vector([0, 0, 1])) == -1


def test_euler_pairing():
    m1 = mk.preset("mukai_rank1(1)")
    ox = m1.vector([1, 0, 1])
    assert mk.euler_pairing(ox, ox) == 2
    v0 = m1.vector([0, 0, 1])
    assert mk.euler_pairing(v0, v0) == 0
    assert mk.euler_pairing(ox, v0) == 1


def test_mukai_vector():
    m1 = mk.preset("mukai_rank1(1)")
    assert mk.mukai_vector(m1, 1, [0], 0).coords == (1, 0, 1)
    assert mk.mukai_vector(m1, 0, [0], -1).coords == (0, 0, 1)
    assert mk.mukai_vector(m1, 2, [1], 1).coords == (2, 1, 2)
    with pytest.raises(OddSquareError):
        mk.mukai_lattice([[1]])


# -- primitivity, divisibility, standard --------------------------------------

def test_divisibility_examples():
    m3 = mk.preset("mukai_rank1(3)")
    v0 = m3.vector([0, 0, 1])
    assert mk.divisibility(v0) == 1 and mk.is_standard(v0)
    ns = m3.vector([0, 1, 0])
    assert mk.divisibility(ns) == 6 and not mk.is_standard(ns)
    assert not mk.is_primitive(v0.scale(2))
    assert mk.divisibility(v0.scale(2)) == 2


@settings(max_examples=200)
@given(st.integers(1, 6), st.lists(st.integers(-9, 9), min_size=3,
                                   max_size=3))
def test_divisibility_divides_pairings(n, w):
    lat = mk.preset(f"mukai_rank1({n})")
    v = lat.vector([1, 1, n])  # isotropic: 2n - 2n = 0
    assert v.norm2 == 0
    d = mk.divisibility(v)
    assert mk.pair(v, lat.vector(w)) % d == 0


# -- reflections ----------------------------------------------------------------

def test_reflection_examples():
    u = mk.preset("U")
    d = u.vector([1, -1])
    s = mk.reflection(d)
    assert s.apply(d).coords == (-1, 1)
    assert s.apply(u.vector([1, 0])).coords == (0, 1)
    assert s.apply(u.vector([0, 1])).coords == (1, 0)
    # fixes the orthogonal complement
    w = u.vector([1, 1])
    assert mk.pair(d, w) == 0
    assert s.apply(w) == w
    with pytest.raises(NotARootError):
        mk.reflection(u.vector([1, 0]))


def test_reflection_involution_and_gram():
    rng = random.Random(3)
    m2 = mk.preset("mukai_rank1(2)")
    roots = [r.vec for r in mk.roots_in_box(m2, 4)]
    for delta in roots:
        s = mk.reflection(delta)
        ss = s.compose(s)
        assert ss.matrix == mk.minus_identity(m2).compose(
            mk.minus_identity(m2)).matrix  # identity


def test_isometry_flag_composition():
    m1 = mk.preset("mukai_rank1(1)")
    s = mk.reflection(m1.vector([1, 0, 1]))
    assert s.plus_flag is True
    prod = s.compose(mk.minus_identity(m1))
    assert prod.plus_flag is True


# -- root enumeration ------------------------------------------------------------

def test_roots_in_box_U():
    u = mk.preset("U")
    roots = {r.vec.coords for r in mk.roots_in_box(u, 3)}
    assert roots == {(1, -1), (-1, 1)}


def test_roots_in_box_definite():
    assert mk.roots_in_box(mk.preset("bracket(2)"), 5) == []


def test_roots_in_box_vs_naive():
    cases = [(mk.direct_sum(mk.preset("U"), mk.preset("bracket(2)")),
              (1, 2, 3, 4)),
             (mk.mukai_lattice([[2, 0], [0, -2]], "rank4"), (1, 2))]
    for lat, bounds in cases:
        for bound in bounds:
            got = {r.vec.coords for r in mk.roots_in_box(lat, bound)}
            want = set()
            rng = range(-bound, bound + 1)
            for c in itertools.product(rng, repeat=lat.rank):
                if any(c) and lat.vector(c).norm2 == -2:
                    want.add(c)
            assert got == want


def _norm_scan(lat, norm, bound):
    """Reference: every non-zero box vector of the given norm, lex order."""
    return [c for c in itertools.product(range(-bound, bound + 1),
                                         repeat=lat.rank)
            if any(c) and lat.vector(c).norm2 == norm]


@st.composite
def _even_blocks(draw):
    """A non-degenerate even symmetric Gram block of rank 1 to 3."""
    k = draw(st.integers(1, 3))
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-2, 2))
    try:
        mk.make_lattice(g)
    except DegenerateError:
        assume(False)
    return g


@settings(max_examples=40, deadline=None)
@given(_even_blocks(), st.sampled_from(["mukai", "plus_bracket"]),
       st.integers(1, 4))
def test_vectors_of_norm_vs_scan(ns, shape, bound):
    # the Mukai form takes the solved-s path, the other the box scan
    if shape == "mukai":
        lat = mk.mukai_lattice(ns)
    else:
        lat = mk.direct_sum(mk.make_lattice(ns), mk.preset("bracket(2)"))
    assume((2 * bound + 1) ** lat.rank <= 9 ** 4)
    for norm in (-2, 0, 2):
        got = vectors_of_norm(lat, norm, bound)
        assert got.dtype == np.int64
        assert [tuple(r) for r in got.tolist()] == \
            _norm_scan(lat, norm, bound)


@pytest.mark.parametrize("name", ["U", "bracket(2)"])
@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_vectors_of_norm_small_presets(name, bound):
    lat = mk.preset(name)
    for norm in (-2, 0, 2):
        got = [tuple(r) for r in vectors_of_norm(lat, norm, bound).tolist()]
        assert got == _norm_scan(lat, norm, bound)


def test_vectors_of_norm_huge_gram_stays_exact():
    # b^2 * sum|G| passes 2**62: the kernel must switch to Python ints
    big = 2 ** 60
    for lat in (mk.mukai_lattice([[2 * big]]),
                mk.make_lattice([[2 * big, 1], [1, -2]])):
        for norm in (-2, 0, 2 * big):
            got = vectors_of_norm(lat, norm, 2)
            assert got.dtype == object
            assert [tuple(r) for r in got.tolist()] == \
                _norm_scan(lat, norm, 2)


def test_root_classification():
    m1 = mk.preset("mukai_rank1(1)")
    v0 = m1.vector([0, 0, 1])
    roots = mk.roots_in_box(m1, 2, rel_v=v0)
    classes = {r.vec.coords: r.class_rel_v for r in roots}
    assert classes[(1, 0, 1)] == "positive"   # -v0.delta = r = 1
    assert classes[(-1, 0, -1)] == "negative"


# -- complements, quotients, discriminants ---------------------------------------

def test_quotient_lattice_examples():
    u = mk.preset("U")
    q0 = mk.quotient_lattice(u.vector([1, 0]))
    assert q0.rank == 0 or q0.gram == ()
    u2 = mk.direct_sum(mk.preset("U"), mk.preset("bracket(2)"))
    assert mk.quotient_lattice(u2.vector([1, 0, 0])).gram == ((2,),)
    uu = mk.direct_sum(mk.preset("U"), mk.preset("U"))
    q = mk.quotient_lattice(uu.vector([1, 0, 0, 0]))
    assert q.signature == (1, 1) and abs(q.det) == 1


def test_quotient_lattice_signature_and_det():
    for name in ["mukai_rank1(1)", "mukai_rank1(4)", "mukai_rank1(6)"]:
        lat = mk.preset(name)
        p, q = lat.signature
        for coords in [(0, 0, 1), (1, 0, 0), (1, 1, name == "mukai_rank1(1)")]:
            v = lat.vector(coords)
            if v.norm2 != 0 or not mk.is_standard(v):
                continue
            lv = mk.quotient_lattice(v)
            assert lv.signature == (p - 1, q - 1)
            assert abs(lv.det) == abs(lat.det)
            assert lv.is_even


def test_discriminant_group():
    assert mk.discriminant_group(mk.preset("U")) == []
    assert mk.discriminant_group(mk.preset("bracket(6)")) == [6]
    assert mk.discriminant_group(mk.preset("E8_minus")) == []
    assert mk.discriminant_group(mk.preset("mukai_rank1(3)")) == [6]


def test_standard_to_hyperbolic_on_U():
    u = mk.preset("U")
    e, f, comp = mk.standard_to_hyperbolic(u.vector([1, 0]))
    assert f.norm2 == 0 and mk.pair(e, f) == -1
    assert comp == []  # rank-zero complement


def test_standard_to_hyperbolic():
    m1 = mk.preset("mukai_rank1(1)")
    v = m1.vector([0, 0, 1])
    e, f, comp = mk.standard_to_hyperbolic(v)
    assert e == v
    assert f.norm2 == 0 and mk.pair(e, f) == -1
    assert len(comp) == 1
    for col in comp:
        w = m1.vector(col)
        assert mk.pair(w, e) == 0 and mk.pair(w, f) == 0
    # non-split standard vector in U + U
    uu = mk.direct_sum(mk.preset("U"), mk.preset("U"))
    v2 = uu.vector([1, 0, 0, 1])  # e1 + f2: isotropic, div 1
    assert mk.is_standard(v2)
    e2, f2, comp2 = mk.standard_to_hyperbolic(v2)
    assert f2.norm2 == 0 and mk.pair(e2, f2) == -1
    with pytest.raises(NotStandardError):
        mk.standard_to_hyperbolic(m1.vector([0, 1, 0]))


def test_line_twist_isometry():
    m2 = mk.preset("mukai_rank1(2)")
    tw = mk.line_twist_isometry(m2, [1])
    v0 = m2.vector([0, 0, 1])
    assert tw.apply(v0) == v0
    assert tw.apply(m2.vector([1, 0, 0])).coords == (1, 1, 2)  # (1, l, l^2/2)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.data())
def test_random_isometries_preserve_gram(n, data):
    lat = mk.preset(f"mukai_rank1({n})")
    roots = [r.vec for r in mk.roots_in_box(lat, 4)]
    if not roots:
        return
    idx = data.draw(st.integers(0, len(roots) - 1))
    s = mk.reflection(roots[idx])
    g = lat.gram_rows()
    from mukai_kit import intlinalg as ila
    m = [list(r) for r in s.matrix]
    assert ila.mat_mul(ila.mat_mul(ila.transpose(m), g), m) == g
