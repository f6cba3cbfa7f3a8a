"""Exact arithmetic of integer lattices.

The central object is :class:`IntegerLattice`: a non-degenerate symmetric
integer Gram matrix with a cached signature and positive frame.  Vectors are
integer coordinate tuples in the lattice basis; the pairing of u and w is
``u^T G w``.  On signature (2, q) the :func:`orientation_character` of an
isometry stack tells, exactly, which isometries keep the orientation of
positive 2-planes, as shifts, spherical twists and line-bundle twists do.

Mukai-type lattices use the coordinate order (r, NS..., s), i.e. the rank
component first, the degree component last, with pairing

    (r, l, s) . (r', l', s') = l.l' - r s' - r' s.

Everything in this module is exact; the only floats are the cached copies
:attr:`IntegerLattice.gram_np` and :attr:`Isometry.matrix_np` that the
numeric layers apply.  Bulk kernels run on integer numpy arrays whose dtype
is chosen from a magnitude bound: int64 when every intermediate fits, Python
ints (dtype object) otherwise.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from . import intlinalg as ila
from .errors import (
    DegenerateError,
    InvariantError,
    LatticeMismatchError,
    NonSymmetricError,
    NotARootError,
    NotIsotropicError,
    NotMukaiFormError,
    NotPositiveError,
    NotPrimitiveError,
    NotStandardError,
    OddSquareError,
    UnknownPresetError,
    ZeroVectorError,
)


@dataclass(frozen=True)
class IntegerLattice:
    """Non-degenerate even or odd integer lattice given by its Gram matrix."""

    gram: tuple[tuple[int, ...], ...]
    label: str = ""
    mukai: bool = False  # coordinates are (r, NS..., s)

    def __post_init__(self):
        g = self.gram
        if any(len(r) != len(g) for r in g):
            raise NonSymmetricError("Gram matrix is not square")
        if not all(isinstance(x, (int, Integral)) for r in g for x in r):
            raise InvariantError("Gram entries must be integers")
        for i, j in itertools.combinations(range(len(g)), 2):
            if g[i][j] != g[j][i]:
                raise NonSymmetricError(f"Gram[{i}][{j}] != Gram[{j}][{i}]")
        if self.det == 0:
            raise DegenerateError("Gram matrix has determinant 0")
        if self.mukai and not is_mukai_form(g):
            raise NotMukaiFormError(
                "Gram matrix is not in (r, NS, s) form: r and s must pair as "
                "-r s' - r' s, orthogonal to NS")
        if self.mukai and not self.is_even:
            raise OddSquareError("NS block is not even")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def signature(self) -> tuple[int, int]:
        p = len(self.positive_frame)
        return p, self.rank - p

    @cached_property
    def positive_frame(self) -> tuple[tuple[int, ...], ...]:
        """The columns of the :func:`~mukai_kit.intlinalg.diagonalize`
        transform with positive pivot: a basis of a positive definite
        subspace whose orthogonal complement is negative definite."""
        t, pivots = ila.diagonalize(self.gram)
        return tuple(col for col, x in zip(zip(*t), pivots) if x > 0)

    @cached_property
    def det(self) -> int:
        return ila.det_bareiss(self.gram)

    @cached_property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def ns_rank(self) -> int:
        if not self.mukai:
            raise NotMukaiFormError("lattice has no (r, NS, s) presentation")
        return self.rank - 2

    def vector(self, coords) -> "LatVec":
        return LatVec(self, tuple(int(c) for c in coords))

    def gram_rows(self) -> list[list[int]]:
        return [list(r) for r in self.gram]

    @cached_property
    def gram_np(self) -> np.ndarray:
        """The Gram matrix as a read-only float array, for the numeric
        layers."""
        g = np.array(self.gram, dtype=float)
        g.setflags(write=False)
        return g

    def to_json(self) -> dict:
        return {"label": self.label, "gram": self.gram_rows(),
                "mukai": self.mukai}

    def __repr__(self) -> str:
        name = self.label or "lattice"
        p, q = self.signature
        return f"<{name}: rank {self.rank}, signature ({p},{q})>"


@dataclass(frozen=True)
class LatVec:
    """Integer vector in the basis of its lattice."""

    lattice: IntegerLattice
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")

    def dot(self, other: "LatVec") -> int:
        if other.lattice is not self.lattice and other.lattice != self.lattice:
            raise LatticeMismatchError("vectors live in different lattices")
        return ila.dot(self.coords, ila.mat_vec(self.lattice.gram,
                                                other.coords))

    @property
    def norm2(self) -> int:
        return self.dot(self)

    def gram_image(self) -> list[int]:
        """The integer row G @ v; its gcd is the divisibility."""
        return ila.mat_vec(self.lattice.gram, self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "LatVec") -> "LatVec":
        return LatVec(self.lattice,
                      tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatVec") -> "LatVec":
        return LatVec(self.lattice,
                      tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatVec":
        return LatVec(self.lattice, tuple(-a for a in self.coords))

    def scale(self, k: int) -> "LatVec":
        return LatVec(self.lattice, tuple(k * a for a in self.coords))

    # convenience accessors for Mukai-form lattices
    @property
    def r(self) -> int:
        return self.coords[0]

    @property
    def s(self) -> int:
        return self.coords[-1]

    @property
    def ns_part(self) -> tuple[int, ...]:
        return self.coords[1:-1]

    def __repr__(self) -> str:
        return f"LatVec{self.coords}"


@dataclass(frozen=True)
class Isometry:
    """Integer isometry of a lattice."""

    lattice: IntegerLattice
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g, m = self.lattice.gram_rows(), self.matrix
        if ila.mat_mul(ila.mat_mul(ila.transpose(m), g), m) != g:
            raise ValueError("matrix does not preserve the Gram form")

    def apply(self, v: LatVec) -> LatVec:
        return LatVec(self.lattice, tuple(ila.mat_vec(self.matrix, v.coords)))

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (matrix product self @ other)."""
        m = ila.mat_mul(self.matrix, other.matrix)
        return Isometry(self.lattice, tuple(tuple(r) for r in m))

    def inverse(self) -> "Isometry":
        inv = ila.mat_inverse_unimodular(self.matrix)
        return Isometry(self.lattice, tuple(tuple(r) for r in inv))

    @cached_property
    def matrix_np(self) -> np.ndarray:
        """The matrix as a read-only float array, for the numeric layers."""
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        return m

    def __repr__(self) -> str:
        return f"Isometry({self.matrix})"


# ---------------------------------------------------------------------------
# constructors and presets
# ---------------------------------------------------------------------------

def make_lattice(gram, label: str = "", mukai: bool = False) -> IntegerLattice:
    """Build a lattice from a symmetric integer matrix with det != 0; the
    integral entries become ints and :class:`IntegerLattice` checks the rest.

    ``mukai`` declares the (r, NS..., s) form, which is checked: the first
    and last coordinates pair as -r s' - r' s, orthogonal to an even NS block.
    """
    rows = tuple(tuple(x if x % 1 else int(x) for x in r) for r in gram)
    if not rows:
        raise DegenerateError("Gram matrix is empty")
    return IntegerLattice(rows, label, mukai)


def direct_sum(*lattices: IntegerLattice, label: str = "") -> IntegerLattice:
    n = sum(l.rank for l in lattices)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                gram[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return make_lattice(gram, label or "+".join(l.label for l in lattices))


_E8_GRAM = [
    # E8 Cartan matrix (Bourbaki numbering, node 2 on the branch)
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]


def hyperbolic_plane(scale: int = 1) -> IntegerLattice:
    return make_lattice([[0, scale], [scale, 0]],
                        "U" if scale == 1 else f"U({scale})")


def mukai_lattice(ns_gram, label: str = "") -> IntegerLattice:
    """Lattice in (r, NS..., s) coordinates over the given even NS Gram."""
    n = len(ns_gram) + 2
    gram = [[0] * (n - 1) + [-1], *([0, *r, 0] for r in ns_gram),
            [-1] + [0] * (n - 1)]
    return make_lattice(gram, label or "mukai", mukai=True)


_PRESET_RE = re.compile(r"^(\w+)\((-?\d+)\)$")


def preset(name: str) -> IntegerLattice:
    """Named lattices: U, E8_minus, bracket(2n), mukai_rank1(n), full_mukai."""
    if not isinstance(name, str):
        raise UnknownPresetError(f"preset name must be a string, not {name!r}")
    if name == "U":
        return hyperbolic_plane()
    if name == "E8_minus":
        return make_lattice([[-x for x in row] for row in _E8_GRAM],
                            "E8(-1)")
    if name == "full_mukai":
        u = hyperbolic_plane()
        e8m = preset("E8_minus")
        return direct_sum(u, u, u, u, e8m, e8m, label="full_mukai")
    m = _PRESET_RE.match(name)
    if m:
        kind, arg = m.group(1), int(m.group(2))
        if kind == "bracket":
            if arg == 0 or arg % 2 != 0:
                raise UnknownPresetError(
                    f"bracket({arg}): argument must be even and non-zero")
            return make_lattice([[arg]], f"<{arg}>")
        if kind == "mukai_rank1":
            if arg < 1:
                raise UnknownPresetError("mukai_rank1(n) needs n >= 1")
            return mukai_lattice([[2 * arg]], f"mukai_rank1({arg})")
    raise UnknownPresetError(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# pairings and Mukai vectors
# ---------------------------------------------------------------------------

def pair(u: LatVec, w: LatVec) -> int:
    return u.dot(w)


def ns_block(lat: IntegerLattice) -> list[list[int]]:
    """Gram matrix of the NS block of an (r, NS, s)-form lattice."""
    return [list(row[1:-1]) for row in lat.gram[1:-1]]


def ns_pair(lat: IntegerLattice, a, b):
    """a.b in the NS block; exact for ints and Fractions alike."""
    return ila.dot(a, ila.mat_vec(ns_block(lat), b))


def euler_pairing(u: LatVec, w: LatVec) -> int:
    """Euler characteristic chi = -(u.w)."""
    return -pair(u, w)


def mukai_vector(lat: IntegerLattice, r: int, c1, c2: int) -> LatVec:
    """(r, c1, c1^2/2 - c2 + r) for a Mukai-form lattice."""
    if not lat.mukai:
        raise NotMukaiFormError(
            "mukai_vector requires an (r, NS, s)-form lattice")
    c1 = tuple(int(x) for x in c1)
    s = ns_pair(lat, c1, c1) // 2 - int(c2) + int(r)  # the NS block is even
    return lat.vector((int(r),) + c1 + (s,))


# ---------------------------------------------------------------------------
# primitivity, divisibility, roots, reflections
# ---------------------------------------------------------------------------

def _sign_canonical(coords: tuple[int, ...]) -> tuple[int, ...]:
    """One representative per {v, -v}: first non-zero coordinate positive."""
    for c in coords:
        if c > 0:
            return coords
        if c < 0:
            return tuple(-x for x in coords)
    return coords


def is_primitive(v: LatVec) -> bool:
    if v.is_zero():
        raise ZeroVectorError("primitivity of 0 undefined")
    return math.gcd(*v.coords) == 1


def divisibility(v: LatVec) -> int:
    """gcd of all pairings v.w over w in the lattice = gcd of G @ v."""
    if v.is_zero():
        raise ZeroVectorError("divisibility of 0 undefined")
    return math.gcd(*v.gram_image())


def is_standard(v: LatVec) -> bool:
    """Isotropic with divisibility 1 (defines a zero-dimensional cusp)."""
    if v.is_zero():
        raise ZeroVectorError("0 is not a standard vector")
    gv = v.gram_image()
    return ila.dot(gv, v.coords) == 0 and math.gcd(*gv) == 1


def reflections(deltas: np.ndarray, gram) -> np.ndarray:
    """I + delta (G delta)^T, the reflection w -> w + (delta.w) delta, for
    each row of ``deltas``: shape (count, rank, rank), the rows' dtype."""
    gd = deltas @ np.array(gram, dtype=deltas.dtype)
    return (np.eye(len(gram), dtype=deltas.dtype)
            + deltas[:, :, None] * gd[:, None, :])


def reflection(delta: LatVec) -> Isometry:
    """s_delta : w -> w + (delta.w) delta, an involutive integer isometry."""
    if delta.norm2 != -2:
        raise NotARootError(f"reflection needs delta^2 = -2, got {delta.norm2}")
    mat = reflections(np.array([delta.coords], dtype=object),
                      delta.lattice.gram)[0]
    return Isometry(delta.lattice, tuple(map(tuple, mat.tolist())))


def minus_identity(lat: IntegerLattice) -> Isometry:
    mat = tuple(tuple(-1 if i == j else 0 for j in range(lat.rank))
                for i in range(lat.rank))
    return Isometry(lat, mat)


def line_twist_isometry(lat: IntegerLattice, l) -> Isometry:
    """Multiplication by exp(l): (r, c, s) -> (r, c + r l, s + c.l + r l^2/2).

    The unipotent transvection fixing (0, ..., 0, 1); requires the (r, NS, s)
    presentation.  Gram preservation is re-checked exactly on construction.
    """
    if not lat.mukai:
        raise NotMukaiFormError("line twist needs an (r, NS, s)-form lattice")
    l = [int(x) for x in l]
    k = lat.ns_rank
    if len(l) != k:
        raise ValueError("l must be an NS-vector")
    gl = ila.mat_vec(ns_block(lat), l)   # NS-Gram @ l
    mat = [(1,) + (0,) * (k + 1),
           *((x,) + tuple(int(i == j) for j in range(k)) + (0,)
             for i, x in enumerate(l)),
           (ila.dot(gl, l) // 2, *gl, 1)]  # l^2 is even, as the NS block is
    return Isometry(lat, tuple(mat))


def orientation_character(lat: IntegerLattice, stack) -> np.ndarray:
    """sign det(P^T G m P) for each m of a (count, rank, rank) integer
    stack, as an int64 array of +-1, where P is the positive frame.

    For an isometry m the plane m P is positive, and P^perp is negative
    definite, so no vector of m P is orthogonal to P: the determinant is
    never 0, and +1 means m keeps the orientation of positive 2-planes.
    The character is multiplicative.  Exact: int64 below the
    :func:`_int_dtype` magnitude bound, Python ints above it.  Needs
    signature (2, q).
    """
    if lat.signature[0] != 2:
        raise NotPositiveError(
            f"orientation needs signature (2, q), not {lat.signature}")
    frame = lat.positive_frame                               # columns of P
    left = [ila.mat_vec(lat.gram, col) for col in frame]     # rows of P^T G
    m = np.asarray(stack)
    entry = (lat.rank ** 2 * int(np.abs(m).max(initial=0))
             * max(map(abs, itertools.chain(*left)))
             * max(map(abs, itertools.chain(*frame))))
    dtype = _int_dtype(2 * entry * entry)
    c = (np.array(left, dtype=dtype) @ m.astype(dtype)
         @ np.array(frame, dtype=dtype).T)
    det = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
    return np.where(det > 0, 1, -1)


# Largest slice of the coordinate box held as one array, in points.
_CHUNK = 1 << 14


def _int_dtype(magnitude: int):
    """Array dtype for exact integer work bounded by ``magnitude``.

    int64 when every entry and intermediate stays below 2**62 in absolute
    value; object, i.e. Python ints (exact, slower), otherwise.
    """
    return np.int64 if magnitude < 1 << 62 else object


def _box_slices(gram, bound: int, dtype):
    """Slices of the box max|x_i| <= bound with their norms x.G.x.

    Yields (head, tail, norms): the leading coordinates fixed to ``head``,
    the trailing ones running over ``tail`` in lex order.  Slices come in lex
    order of their heads and hold at most ``_CHUNK`` points.
    """
    n = len(gram)
    side = 2 * bound + 1
    m = n
    while m > 1 and side ** m > _CHUNK:
        m -= 1
    h = n - m
    g = np.array(gram, dtype=dtype).reshape(n, n)
    tail = (np.indices((side,) * m).reshape(m, side ** m).T - bound
            ).astype(dtype)
    tail_norms = ((tail @ g[h:, h:]) * tail).sum(axis=1)
    for head in itertools.product(range(-bound, bound + 1), repeat=h):
        hv = np.array(head, dtype=dtype)
        cross = tail @ (2 * (hv @ g[:h, h:]))
        yield hv, tail, tail_norms + cross + hv @ g[:h, :h] @ hv


def _hyperbolic_ends(gram) -> int:
    """c if the first and last coordinates span c*U orthogonal to the rest
    (the (r, NS, s) form has c = -1), else 0."""
    if len(gram) < 2:
        return 0
    first, last = gram[0], gram[-1]
    if first[0] or last[-1] or any(first[1:-1]) or any(last[1:-1]):
        return 0
    return first[-1]


def is_mukai_form(gram) -> bool:
    """The (r, NS, s) form: r and s pair as -r s' - r' s, orthogonal to NS."""
    return _hyperbolic_ends(gram) == -1


def _norm_slices(lat: IntegerLattice, norm: int, bound: int):
    """The scan behind :func:`vectors_of_norm` and :func:`count_of_norm`:
    (dtype, c, slices), c from :func:`_hyperbolic_ends`.

    With c = 0 each slice is (head, tail, hit): head + t has norm ``norm``
    for every row t of tail[hit].  Otherwise each slice is (ls, on, mask,
    s) over NS vectors ls: ``on`` marks l.l = norm, whose r = 0 rows
    (0, l, s) take every s of the box, and mask[i, j] marks the row
    (r_i, ls[j], s[i, j]), r_i the i-th non-zero r of the box, in
    increasing order.  Slices come in lex order of their NS part and hold
    at most ``_CHUNK`` NS points.  The zero vector is a hit when norm = 0.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    gram = lat.gram
    dtype = _int_dtype(
        bound * bound * sum(abs(x) for row in gram for x in row) + abs(norm))
    c = _hyperbolic_ends(gram)
    if not c:
        return dtype, c, ((head, tail, norms == norm) for head, tail, norms
                          in _box_slices(gram, bound, dtype))
    den = 2 * c * np.array([r for r in range(-bound, bound + 1) if r],
                           dtype=dtype)[:, None]

    def slices():
        for head, tail, ll in _box_slices(
                [row[1:-1] for row in gram[1:-1]], bound, dtype):
            ls = np.hstack([np.broadcast_to(head, (len(tail), len(head))),
                            tail])
            num = (norm - ll)[None, :]
            s = num // den
            yield ls, ll == norm, (num % den == 0) & (abs(s) <= bound), s
    return dtype, c, slices()


def count_of_norm(lat: IntegerLattice, norm: int, bound: int) -> int:
    """len(vectors_of_norm(lat, norm, bound)), from the same scan without
    building the rows."""
    _, c, slices = _norm_slices(lat, norm, bound)
    if not c:
        hits = sum(np.count_nonzero(hit) for *_, hit in slices)
    else:
        hits = sum(np.count_nonzero(on) * (2 * bound + 1)
                   + np.count_nonzero(mask) for _, on, mask, _ in slices)
    return int(hits) - (norm == 0)


def vectors_of_norm(lat: IntegerLattice, norm: int, bound: int) -> np.ndarray:
    """All non-zero x with max|x_i| <= bound and x.x = norm, in lex order.

    Returns an integer array of shape (count, rank); its dtype comes from
    :func:`_int_dtype`.  When the first and last coordinates span a scaled
    hyperbolic plane c*U orthogonal to the rest, as in the (r, NS, s) form,
    x.x = l.l + 2c r s.  The (r, l) part is scanned and s is solved exactly:
    s = (norm - l.l) / (2 c r) for r != 0, every s in the box for r = 0 and
    l.l = norm.  That costs (2 bound + 1)^(rank - 1) points, and the rows
    are written in lex order as found: negative r, r = 0, positive r, each
    in l order.  Other lattices scan the whole box, one slice at a time,
    slices and rows within them in lex order.  :func:`count_of_norm` counts
    the same scan's hits.
    """
    dtype, c, slices = _norm_slices(lat, norm, bound)
    n = lat.rank
    if not c:
        out = np.concatenate([np.zeros((0, n), dtype=dtype)] + [np.hstack(
            [np.broadcast_to(head, (np.count_nonzero(hit), len(head))),
             tail[hit]]) for head, tail, hit in slices])
        return out[np.any(out != 0, axis=1)] if norm == 0 else out
    side = 2 * bound + 1
    r_axis = np.array([r for r in range(-bound, bound + 1) if r], dtype=dtype)
    s_axis = np.arange(-bound, bound + 1).astype(dtype)
    pieces = []     # per slice, its rows in lex order
    for ls, on, mask, s in slices:
        ri, li = np.nonzero(mask)           # sorted by r, then by l
        k, z = np.searchsorted(ri, bound), np.count_nonzero(on) * side
        rows = np.empty((len(ri) + z, n), dtype=dtype)
        pos = np.arange(len(ri)) + z * (ri >= bound)    # r != 0 rows
        rows[pos, 0], rows[pos, 1:-1], rows[pos, -1] = (
            r_axis[ri], ls[li], s[ri, li])
        rows[k:k + z, 0], rows[k:k + z, -1] = 0, np.tile(s_axis, z // side)
        rows[k:k + z, 1:-1] = np.repeat(ls[on], side, axis=0)
        pieces.append(rows[np.any(rows != 0, axis=1)] if norm == 0 else rows)
    if len(pieces) == 1:
        return pieces[0]
    # several slices: one r at a time, the slices in order
    cuts = [np.searchsorted(rows[:, 0], np.arange(-bound, bound + 2))
            for rows in pieces]
    return np.concatenate([rows[cut[i]:cut[i + 1]] for i in range(side)
                           for rows, cut in zip(pieces, cuts)])


# ---------------------------------------------------------------------------
# complements, quotients, discriminants
# ---------------------------------------------------------------------------

def orthogonal_complement(v: LatVec) -> list[list[int]]:
    """Basis columns of {w : v.w = 0}, saturated, deterministic order."""
    if v.is_zero():
        raise ZeroVectorError("complement of 0 is everything")
    return ila.integer_kernel([v.gram_image()])


def _hermite_perp(v: LatVec) -> tuple[list[list[int]], list[list[int]]]:
    """(u, R): u is the Hermite transform of the row G v, its columns 1..n-1
    span v^perp, and v's coordinates there, (u^-1 v)[1:], are completed to
    a basis of v^perp that starts with v; R holds its other columns."""
    _, u, u_inv = ila.hnf_columns([v.gram_image()])
    w = ila.complete_primitive(ila.mat_vec(u_inv[1:], v.coords))
    perp = [row[1:] for row in u]
    return u, [ila.mat_vec(perp, col) for col in list(zip(*w))[1:]]


def quotient_lattice(v: LatVec) -> IntegerLattice:
    """L(v) = v^perp / Zv for a primitive isotropic v of any divisibility:
    the Gram of the :func:`_hermite_perp` columns R, non-degenerate as the
    radical of v^perp is Zv (of rank 0 on a rank-2 lattice)."""
    if v.norm2 != 0:
        raise NotIsotropicError(f"v^2 = {v.norm2} != 0")
    if not is_primitive(v):   # raises ZeroVectorError on 0
        raise NotPrimitiveError("v is not primitive")
    lat = v.lattice
    gram = ila.gram_of(_hermite_perp(v)[1], lat.gram_rows())
    return IntegerLattice(tuple(map(tuple, gram)), f"L({lat.label or 'N'})")


def discriminant_group(lat: IntegerLattice) -> list[int]:
    """Elementary divisors (> 1) of the Gram matrix: A(N) = N^dual / N."""
    return [d for d in ila.invariant_factors(lat.gram_rows()) if d != 1]


def hyperbolic_frame(v: LatVec) -> tuple[tuple[int, ...], ...]:
    """B = (f | R | v) for a standard v, as columns: unimodular, with B^T G B
    the Mukai form over the Gram of R, so R models L(v) and v.f = -1 (the
    z.v = -1 of the tube model).  At divisibility 1 the :func:`_hermite_perp`
    transform u has G v . u_0 = 1, so w = -u_0 has v.w = -1; f = w +
    (w^2 / 2) v, and each column c of R moves to c + (c.f) v = c + (c.w) v,
    which keeps the Gram.  An odd w^2 (on an odd lattice) takes w + c for
    the first column c of R with c^2 odd: c is orthogonal to v, so v.w
    stays -1, and (w + c)^2 = w^2 + c^2 mod 2.  With every c^2 even, v^perp
    is even, every f with v.f = -1 has f^2 = w^2 mod 2, and no f exists:
    OddSquareError."""
    if not is_standard(v):   # raises ZeroVectorError on 0
        raise NotStandardError("need v isotropic with divisibility 1")
    u, cols = _hermite_perp(v)
    gram = v.lattice.gram
    w = [-row[0] for row in u]
    gw = ila.mat_vec(gram, w)
    half, odd = divmod(ila.dot(w, gw), 2)
    if odd:
        c = next((c for c in cols if ila.dot(c, ila.mat_vec(gram, c)) % 2),
                 None)
        if c is None:
            raise OddSquareError(
                "v^perp is even and v has no isotropic partner f, v.f = -1")
        w = [a + b for a, b in zip(w, c)]
        gw = ila.mat_vec(gram, w)
        half = ila.dot(w, gw) // 2
    f = tuple(a + half * b for a, b in zip(w, v.coords))
    comp = (tuple(a + t * b for a, b in zip(c, v.coords))
            for c, t in zip(cols, ila.mat_vec(cols, gw)))
    return (f, *comp, v.coords)
