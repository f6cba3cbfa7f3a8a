import functools
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import charges, cusps, lattice
from mukai_kit import domain as dm
from mukai_kit import intlinalg as ila
from mukai_kit.errors import (
    DegenerateError,
    InvariantError,
    NonSymmetricError,
    NotARootError,
    NotMukaiFormError,
    NotPositiveError,
    NotStandardError,
    OddSquareError,
    UnknownPresetError,
    ZeroVectorError,
)
from mukai_kit.cusps import default_generators
from mukai_kit.lattice import vectors_of_norm

from float_oracle import orientation_flag


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


@pytest.mark.parametrize("gram, mukai, error", [
    (((0, 1), (2, 0)), False, NonSymmetricError),
    (((1, 2), (2,)), False, NonSymmetricError),
    (((1, 0), (0, 0)), False, DegenerateError),
    (((2,),), True, NotMukaiFormError),
    (((0, 0, -1), (0, 3, 0), (-1, 0, 0)), True, OddSquareError),
    # entries that are not integers (make_lattice does not truncate them)
    (((2.5,),), False, InvariantError),
    (((2, 1.5), (1.5, -2)), False, InvariantError),
])
def test_lattice_constructor_checks_as_make_lattice(gram, mukai, error):
    # a lattice built directly is refused as make_lattice refuses its Gram
    with pytest.raises(error) as direct:
        mk.IntegerLattice(gram, mukai=mukai)
    with pytest.raises(error) as made:
        mk.make_lattice(gram, mukai=mukai)
    assert str(direct.value) == str(made.value)


def test_make_lattice_reads_integral_entries():
    # integral floats and numpy ints become Python ints (2.5 is refused:
    # test_lattice_constructor_checks_as_make_lattice)
    lat = mk.make_lattice([[2.0, np.int64(1)], [1, np.float64(-2)]])
    assert lat.gram == ((2, 1), (1, -2))
    assert all(type(x) is int for row in lat.gram for x in row)


def test_make_lattice_checks_mukai_flag():
    ok = [[0, 0, 0, -1], [0, 2, 1, 0], [0, 1, -2, 0], [-1, 0, 0, 0]]
    assert mk.make_lattice(ok, "m", mukai=True) == mk.mukai_lattice(
        [[2, 1], [1, -2]], "m")
    # +U ends, ends that meet NS, a scaled U and rank 1 are not (r, NS, s)
    for gram in ([[0, 0, 1], [0, 2, 0], [1, 0, 0]],
                 [[0, 1, -1], [1, 2, 0], [-1, 0, 0]],
                 [[0, 0, -2], [0, 2, 0], [-2, 0, 0]],
                 [[2]]):
        with pytest.raises(NotMukaiFormError):
            mk.make_lattice(gram, mukai=True)
        mk.make_lattice(gram)
    with pytest.raises(OddSquareError):
        mk.make_lattice([[0, 0, -1], [0, 1, 0], [-1, 0, 0]], mukai=True)
    with pytest.raises(OddSquareError):
        mk.mukai_lattice([[3]])
    with pytest.raises(DegenerateError):
        mk.make_lattice([])


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
    for name in (5, None, ["U"]):
        with pytest.raises(UnknownPresetError, match="must be a string"):
            mk.preset(name)


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


def test_gram_np_is_a_cached_read_only_copy():
    for gram in ([[0, 0, -1], [0, 2, 0], [-1, 0, 0]], [[2, 1], [1, -2]]):
        lat = mk.make_lattice(gram)
        g = lat.gram_np
        assert g is lat.gram_np
        assert g.dtype == np.float64 and g.tolist() == gram
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 1.0
        # the cache belongs to the lattice, not to its Gram matrix
        twin = mk.make_lattice(gram)
        assert twin == lat and twin.gram_np is not g


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
    roots = list(map(m2.vector, mk.vectors_of_norm(m2, -2, 4)))
    for delta in roots:
        s = mk.reflection(delta)
        ss = s.compose(s)
        assert ss.matrix == mk.minus_identity(m2).compose(
            mk.minus_identity(m2)).matrix  # identity


def test_isometry_inverse_fast_path():
    # involutions and the rest alike are inverted by mat_inverse_unimodular
    from mukai_kit import intlinalg as ila
    m2 = mk.preset("mukai_rank1(2)")
    roots = list(map(m2.vector, mk.vectors_of_norm(m2, -2, 3)))
    isos = [mk.reflection(delta) for delta in roots]
    isos += [mk.reflection(roots[0]).compose(mk.reflection(roots[i]))
             for i in (1, 2)]
    isos.append(mk.line_twist_isometry(m2, [1]))
    involutions = 0
    for g in isos:
        m = [list(r) for r in g.matrix]
        inv = g.inverse()
        assert inv.matrix == tuple(map(tuple, ila.mat_inverse_unimodular(m)))
        assert g.compose(inv).matrix == tuple(map(tuple, ila.identity(3)))
        involutions += ila.mat_mul(m, m) == ila.identity(3)
    assert involutions == len(roots)


def test_isometry_float_matrix_cached_and_read_only():
    g = mk.line_twist_isometry(mk.preset("mukai_rank1(2)"), [1])
    m = g.matrix_np
    assert m is g.matrix_np and not m.flags.writeable
    assert m.dtype == float and m.tolist() == [list(r) for r in g.matrix]


def test_auto_equivalence_constructors():
    # the shift, a spherical twist and a line-bundle twist on U + <2>
    lat = mk.preset("mukai_rank1(1)")
    v0 = lat.vector([0, 0, 1])
    assert mk.minus_identity(lat).matrix == tuple(
        tuple(-int(i == j) for j in range(3)) for i in range(3))
    tw = mk.reflection(lat.vector([1, 0, 1]))
    assert tw.apply(lat.vector([1, 0, 0])).coords == (0, 0, -1)
    with pytest.raises(NotARootError):
        mk.reflection(lat.vector([0, 1, 0]))   # square 2, not -2
    lt = mk.line_twist_isometry(lat, [1])
    assert lt.apply(v0) == v0
    assert lt.apply(lat.vector([1, 0, 0])).coords == (1, 1, 1)
    # a twist along a root orthogonal to v0 fixes v0 (rank four)
    lat4 = mk.mukai_lattice([[2, 0], [0, -2]], "rank4")
    v0 = lat4.vector([0, 0, 0, 1])
    assert mk.reflection(lat4.vector([0, 0, 1, 0])).apply(v0) == v0


def test_line_twist_needs_mukai_form():
    with pytest.raises(NotMukaiFormError):
        mk.line_twist_isometry(mk.preset("U"), [])
    with pytest.raises(NotMukaiFormError):
        mk.line_twist_isometry(mk.preset("bracket(2)"), [1])
    # the other readers of the (r, NS, s) layout raise the same error
    plus_u = mk.make_lattice([[0, 0, 1], [0, 2, 0], [1, 0, 0]])
    with pytest.raises(NotMukaiFormError):
        plus_u.ns_rank
    with pytest.raises(NotMukaiFormError):
        mk.mukai_vector(plus_u, 1, [0], 0)
    with pytest.raises(NotMukaiFormError):
        charges.exp_class(plus_u, [0.0], [1.0])
    with pytest.raises(NotMukaiFormError):
        charges.boundary_beta_search(plus_u, plus_u.vector([0, 1, 0]), 0,
                                     [2])
    with pytest.raises(NotMukaiFormError):
        charges.large_volume_threshold(plus_u.vector([1, 1, 0]),
                                       [plus_u.vector([1, 0, 1])], [1])


# -- orientation character -----------------------------------------------------

# NS Gram blocks of the Mukai lattices with their default generator counts at
# root bound 3
_ORIENTED = [([[2]], 7), ([[12]], 3), ([[2, 0], [0, -2]], 65),
             ([[2, 1], [1, -4]], 24), ([[2, 0, 0], [0, -2, 0], [0, 0, -2]], 531)]


def _plus2_reflections(lat, bound):
    """w -> w - (delta.w) delta for the delta of square 2 in the box."""
    deltas = vectors_of_norm(lat, 2, bound)
    gd = deltas @ np.array(lat.gram, dtype=deltas.dtype)
    return np.eye(lat.rank, dtype=deltas.dtype) - (
        deltas[:, :, None] * gd[:, None, :])


@pytest.mark.parametrize("ns, count", _ORIENTED, ids=[
    "<2>", "<12>", "diag(2,-2)", "[[2,1],[1,-4]]", "diag(2,-2,-2)"])
def test_orientation_character_on_default_generators(ns, count):
    # shifts, spherical twists and line twists keep the orientation, and the
    # float eigenvector oracle agrees on every generator
    lat = mk.mukai_lattice(ns)
    gens = default_generators(lat, 3)
    assert len(gens) == count
    assert mk.orientation_character(lat, gens).tolist() == [1] * count
    assert all(orientation_flag(lat, m) for m in gens)


def test_orientation_character_reverses_on_plus2_reflections():
    for ns, _ in _ORIENTED:
        lat = mk.mukai_lattice(ns)
        refl = _plus2_reflections(lat, 2)
        gram = np.array(lat.gram)
        assert len(refl) and all(
            np.array_equal(m.T @ gram @ m, gram) for m in refl)
        assert mk.orientation_character(lat, refl).tolist() == [-1] * len(
            refl)
        assert not any(orientation_flag(lat, m) for m in refl)


def test_positive_frame_spans_a_positive_plane():
    for ns, _ in _ORIENTED:
        lat = mk.mukai_lattice(ns)
        p = np.array(lat.positive_frame, dtype=object).T
        plane = p.T @ np.array(lat.gram, dtype=object) @ p
        assert p.shape == (lat.rank, 2) and plane[0, 1] == plane[1, 0] == 0
        assert plane[0, 0] > 0 and plane[1, 1] > 0
    assert len(mk.preset("full_mukai").positive_frame) == 4
    # L(v) of a rank-2 lattice has rank 0 and signature (0, 0)
    assert mk.quotient_lattice(mk.preset("U").vector([1, 0])).signature == (
        0, 0)


@pytest.mark.parametrize("lat", [mk.preset("U"), mk.preset("full_mukai"),
                                 mk.make_lattice([[-2]])],
                         ids=["U", "full_mukai", "<-2>"])
def test_orientation_character_needs_signature_2_q(lat):
    with pytest.raises(NotPositiveError):
        mk.orientation_character(lat, np.eye(lat.rank, dtype=int)[None])


_WORD_LATTICES = [mk.mukai_lattice(ns) for ns, _ in _ORIENTED] + [
    mk.mukai_lattice([[2**61]])]


@functools.cache
def _word_letters(i):
    lat = _WORD_LATTICES[i]
    gens = default_generators(lat, 2)
    refl = _plus2_reflections(lat, 2)
    return lat, np.concatenate([gens, refl.astype(gens.dtype)]).astype(object)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_WORD_LATTICES) - 1), st.data())
def test_orientation_character_is_multiplicative(i, data):
    # words in default generators and +2 reflections, at ranks 3 to 5 and on
    # the Python-int stack of <2^61>
    lat, letters = _word_letters(i)
    chars = mk.orientation_character(lat, letters)
    word = data.draw(st.lists(st.integers(0, len(letters) - 1), min_size=1,
                              max_size=4))
    prod = functools.reduce(np.matmul, letters[word])
    assert mk.orientation_character(lat, prod[None]).tolist() == [
        int(np.prod(chars[word]))]


# -- root enumeration ------------------------------------------------------------

def test_vectors_of_norm_roots_U():
    u = mk.preset("U")
    roots = set(map(tuple, mk.vectors_of_norm(u, -2, 3).tolist()))
    assert roots == {(1, -1), (-1, 1)}


def test_vectors_of_norm_roots_definite():
    assert mk.vectors_of_norm(mk.preset("bracket(2)"), -2, 5).shape == (0, 1)


def test_vectors_of_norm_roots_vs_naive():
    cases = [(mk.direct_sum(mk.preset("U"), mk.preset("bracket(2)")),
              (1, 2, 3, 4)),
             (mk.mukai_lattice([[2, 0], [0, -2]], "rank4"), (1, 2))]
    for lat, bounds in cases:
        for bound in bounds:
            got = set(map(tuple, mk.vectors_of_norm(lat, -2, bound).tolist()))
            want = set()
            rng = range(-bound, bound + 1)
            for c in itertools.product(rng, repeat=lat.rank):
                if any(c) and lat.vector(c).norm2 == -2:
                    want.add(c)
            assert got == want


def test_reflections_keep_the_rows_dtype():
    # each matrix is the one reflection() builds, in int64 and, past 2**62,
    # in Python ints
    big = 2 ** 60
    for lat in (mk.preset("mukai_rank1(2)"),
                mk.make_lattice([[2 * big, 1], [1, -2]])):
        deltas = vectors_of_norm(lat, -2, 3)
        mats = mk.lattice.reflections(deltas, lat.gram)
        assert len(deltas) and mats.dtype == deltas.dtype
        assert [tuple(map(tuple, m)) for m in mats.tolist()] == \
            [mk.reflection(lat.vector(d)).matrix for d in deltas]


def _norm_scan(lat, norm, bound):
    """Reference: every non-zero box vector of the given norm, lex order."""
    return [c for c in itertools.product(range(-bound, bound + 1),
                                         repeat=lat.rank)
            if any(c) and lat.vector(c).norm2 == norm]


@st.composite
def _even_blocks(draw, max_rank=3):
    """A non-degenerate even symmetric Gram block of rank 1 to
    ``max_rank``."""
    k = draw(st.integers(1, max_rank))
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


def _lexsorted_scan(lat, norm, bound):
    """Reference: the same slices as vectors_of_norm, concatenated, the
    zero vector dropped, then put in lex order by one np.lexsort."""
    gram, n = lat.gram, lat.rank
    dtype = lattice._int_dtype(
        bound * bound * sum(abs(x) for row in gram for x in row) + abs(norm))
    c = lattice._hyperbolic_ends(gram)
    parts = [np.zeros((0, n), dtype=dtype)]
    if not c:
        for head, tail, norms in lattice._box_slices(gram, bound, dtype):
            hit = tail[norms == norm]
            parts.append(np.hstack(
                [np.broadcast_to(head, (len(hit), len(head))), hit]))
    else:
        side = 2 * bound + 1
        s_axis = np.arange(-bound, bound + 1).astype(dtype)
        r_axis = np.array([r for r in range(-bound, bound + 1) if r],
                          dtype=dtype)
        for head, tail, ll in lattice._box_slices(
                [row[1:-1] for row in gram[1:-1]], bound, dtype):
            ls = np.hstack([np.broadcast_to(head, (len(tail), len(head))),
                            tail])
            on = ls[ll == norm]
            parts.append(np.column_stack([
                np.zeros(len(on) * side, dtype=dtype),
                np.repeat(on, side, axis=0), np.tile(s_axis, len(on))]))
            num = (norm - ll)[None, :]
            den = 2 * c * r_axis[:, None]
            s = num // den
            ri, li = np.nonzero((num % den == 0) & (abs(s) <= bound))
            parts.append(np.column_stack([r_axis[ri], ls[li], s[ri, li]]))
    out = np.concatenate(parts)
    out = out[np.any(out != 0, axis=1)]
    return out[np.lexsort(out.T[::-1])]


@settings(max_examples=60, deadline=None)
@given(_even_blocks(), st.sampled_from(["mukai", "scaled_u", "plus_bracket"]),
       st.booleans(), st.integers(1, 5), st.sampled_from([1 << 3, 1 << 6,
                                                          lattice._CHUNK]))
def test_vectors_of_norm_and_count_match_lexsorted_scan(ns, shape, huge,
                                                        bound, chunk):
    # the (r, NS, s) form and U(2) + NS take the solved-s path, the others
    # the box scan; a small _CHUNK splits the box into many slices, and a
    # Gram entry near 10^18 takes the Python-int (object) path
    if huge:
        ns = [row[:] for row in ns]
        ns[0][0] = 6 * 10 ** 18   # past 2**62 at every bound
    if shape == "mukai":
        lat = mk.mukai_lattice(ns)
    elif shape == "scaled_u":    # the ends span U(2): c = 2
        lat = mk.make_lattice([[0] * (len(ns) + 1) + [2],
                               *([0, *r, 0] for r in ns),
                               [2] + [0] * (len(ns) + 1)])
    else:
        lat = mk.direct_sum(mk.make_lattice(ns), mk.preset("bracket(2)"))
    assume((2 * bound + 1) ** lat.rank <= 11 ** 4)
    with mock.patch.object(lattice, "_CHUNK", chunk):
        for norm in (-2, 0, 2):
            got = vectors_of_norm(lat, norm, bound)
            want = _lexsorted_scan(lat, norm, bound)
            assert got.dtype == want.dtype == (object if huge else np.int64)
            assert got.shape == want.shape and (got == want).all()
            assert mk.count_of_norm(lat, norm, bound) == len(want)


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


def _frame_cols(v):
    b = mk.hyperbolic_frame(v)
    assert b[-1] == v.coords
    return v.lattice.vector(b[0]), [v.lattice.vector(c) for c in b[1:-1]]


def test_hyperbolic_frame_on_U():
    u = mk.preset("U")
    f, comp = _frame_cols(u.vector([1, 0]))
    assert f.norm2 == 0 and mk.pair(u.vector([1, 0]), f) == -1
    assert comp == []  # rank-zero complement


def test_hyperbolic_frame():
    m1 = mk.preset("mukai_rank1(1)")
    v = m1.vector([0, 0, 1])
    f, comp = _frame_cols(v)
    assert f.norm2 == 0 and mk.pair(v, f) == -1
    assert len(comp) == 1
    for w in comp:
        assert mk.pair(w, v) == 0 and mk.pair(w, f) == 0
    # non-split standard vector in U + U
    uu = mk.direct_sum(mk.preset("U"), mk.preset("U"))
    v2 = uu.vector([1, 0, 0, 1])  # e1 + f2: isotropic, div 1
    assert mk.is_standard(v2)
    f2, _ = _frame_cols(v2)
    assert f2.norm2 == 0 and mk.pair(v2, f2) == -1
    for bad in ([0, 1, 0], [0, 0, 2]):   # not isotropic; divisibility 2
        with pytest.raises(NotStandardError):
            mk.hyperbolic_frame(m1.vector(bad))
    with pytest.raises(ZeroVectorError):
        mk.hyperbolic_frame(m1.vector([0, 0, 0]))
    # I(1,1) is odd: v = (1, 1) is standard, but its partner w = (-1, 0)
    # has w^2 = 1, so no f = w + k v is isotropic
    odd = mk.make_lattice([[1, 0], [0, -1]])
    assert mk.is_standard(odd.vector([1, 1]))
    with pytest.raises(OddSquareError):
        mk.hyperbolic_frame(odd.vector([1, 1]))


def _check_frame(v, b):
    """B = (f | R | v): B e_last = v, |det B| = 1, B^T G B the Mukai form
    over the Gram of R."""
    g = v.lattice.gram_rows()
    full = ila.gram_of(b, g)
    assert b[-1] == v.coords
    assert abs(ila.det_bareiss([list(r) for r in zip(*b)])) == 1
    assert mk.lattice.is_mukai_form(full)
    f = v.lattice.vector(b[0])
    assert (f.norm2, mk.pair(v, f)) == (0, -1)


def test_hyperbolic_frame_on_odd_lattice():
    # on diag(1, -1, -1) the Hermite partner of v = (1, 1, 0) has odd
    # square; f = (-1, 0, 1) is isotropic with v.f = -1
    lat = mk.make_lattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    v = lat.vector([1, 1, 0])
    b = mk.hyperbolic_frame(v)
    _check_frame(v, b)
    assert b[0] == (-1, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=3,
                max_size=5).filter(lambda d: any(x % 2 for x in d)),
       st.data())
def test_hyperbolic_frame_on_odd_diagonal_lattices(diag, data):
    # the frame exists, or v^perp is even and no isotropic f has v.f = -1
    n = len(diag)
    lat = mk.make_lattice([[diag[i] if i == j else 0 for j in range(n)]
                           for i in range(n)])
    standard = [c for c in vectors_of_norm(lat, 0, 2).tolist()
                if mk.is_standard(lat.vector(c))]
    assume(standard)
    v = lat.vector(data.draw(st.sampled_from(standard)))
    try:
        b = mk.hyperbolic_frame(v)
    except OddSquareError:
        perp = mk.orthogonal_complement(v)
        assert all(lat.vector(c).norm2 % 2 == 0 for c in perp)
        return
    _check_frame(v, b)


# f, R and Gram(R) of the frame at v0 = (0, .., 0, 1), one per NS block:
# the chart basis of every CLI subcommand, so pinned byte for byte
_V0_FRAMES = [
    ([[2]], (1, 0, 0), ((0, 1, 0),), ((2,),)),
    ([[6]], (1, 0, 0), ((0, 1, 0),), ((6,),)),
    ([[2, 0], [0, -2]], (1, 0, 0, 0), ((0, 0, 1, 0), (0, 1, 0, 0)),
     ((-2, 0), (0, 2))),
    ([[2, 1], [1, -2]], (1, 0, 0, 0), ((0, 0, 1, 0), (0, 1, 0, 0)),
     ((-2, 1), (1, 2))),
    ([[4, 0], [0, -6]], (1, 0, 0, 0), ((0, 0, 1, 0), (0, 1, 0, 0)),
     ((-6, 0), (0, 4))),
    ([[2, 0, 0], [0, -2, 0], [0, 0, -2]], (1, 0, 0, 0, 0),
     ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0)),
     ((-2, 0, 0), (0, -2, 0), (0, 0, 2))),
    ([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], (1, 0, 0, 0, 0),
     ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0)),
     ((-2, 1, 1), (1, -2, 0), (1, 0, -2))),
]


@pytest.mark.parametrize("ns, f, comp, gram", _V0_FRAMES)
def test_hyperbolic_frame_at_v0_is_pinned(ns, f, comp, gram):
    lat = mk.mukai_lattice(ns)
    v0 = lat.vector([0] * (lat.rank - 1) + [1])
    assert mk.hyperbolic_frame(v0) == (f, *comp, v0.coords)
    sp = dm.split_at(v0)
    assert (sp.f.coords, sp.comp, sp.gram_L) == (f, comp, gram)


@settings(max_examples=30, deadline=None)
@given(_even_blocks(max_rank=4))
def test_hyperbolic_frame_identities(ns):
    # B = (f | R | v) on every standard vector of the box: <v, f> is a
    # hyperbolic plane orthogonal to R, B is unimodular, and R has the
    # Gram that quotient_lattice gives L(v)
    lat = mk.mukai_lattice(ns)
    g = lat.gram_rows()
    for coords in cusps.enumerate_isotropic(lat, 2 if lat.rank < 6 else 1):
        v = lat.vector(coords)
        if mk.divisibility(v) != 1:
            continue
        b = mk.hyperbolic_frame(v)
        f, comp = lat.vector(b[0]), [lat.vector(c) for c in b[1:-1]]
        assert b[-1] == v.coords
        assert (f.norm2, mk.pair(v, f)) == (0, -1)
        assert all(mk.pair(w, v) == 0 == mk.pair(w, f) for w in comp)
        assert abs(ila.det_bareiss([list(r) for r in zip(*b)])) == 1
        assert tuple(map(tuple, ila.gram_of(b[1:-1], g))) == \
            mk.quotient_lattice(v).gram


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
    roots = list(map(lat.vector, mk.vectors_of_norm(lat, -2, 4)))
    if not roots:
        return
    idx = data.draw(st.integers(0, len(roots) - 1))
    s = mk.reflection(roots[idx])
    g = lat.gram_rows()
    from mukai_kit import intlinalg as ila
    m = [list(r) for r in s.matrix]
    assert ila.mat_mul(ila.mat_mul(ila.transpose(m), g), m) == g
