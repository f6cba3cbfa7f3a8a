"""Exact arithmetic of integer lattices.

The central object is :class:`IntegerLattice`: a non-degenerate symmetric
integer Gram matrix with a cached signature.  Vectors are integer coordinate
tuples in the lattice basis; the pairing of u and w is ``u^T G w``.

Mukai-type lattices use the coordinate order (r, NS..., s), i.e. the rank
component first, the degree component last, with pairing

    (r, l, s) . (r', l', s') = l.l' - r s' - r' s.

Everything in this module is exact; floats never appear.  Bulk kernels run
on integer numpy arrays whose dtype is chosen from a magnitude bound: int64
when every intermediate fits, Python ints (dtype object) otherwise.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import intlinalg as ila
from .errors import (
    DegenerateError,
    InvariantError,
    LatticeMismatchError,
    NonSymmetricError,
    NotARootError,
    NotIsotropicError,
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

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def signature(self) -> tuple[int, int]:
        return ila.signature([list(r) for r in self.gram])

    @cached_property
    def det(self) -> int:
        return ila.det_bareiss([list(r) for r in self.gram])

    @cached_property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def ns_rank(self) -> int:
        if not self.mukai:
            raise ValueError("lattice has no (r, NS, s) presentation")
        return self.rank - 2

    def vector(self, coords) -> "LatVec":
        return LatVec(self, tuple(int(c) for c in coords))

    def basis_vector(self, i: int) -> "LatVec":
        coords = [0] * self.rank
        coords[i] = 1
        return self.vector(coords)

    def zero(self) -> "LatVec":
        return self.vector([0] * self.rank)

    def gram_rows(self) -> list[list[int]]:
        return [list(r) for r in self.gram]

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
        g = self.lattice.gram
        return sum(self.coords[i] * g[i][j] * other.coords[j]
                   for i in range(len(self.coords))
                   for j in range(len(self.coords)))

    @property
    def norm2(self) -> int:
        return self.dot(self)

    def gram_image(self) -> list[int]:
        """The integer row G @ v; its gcd is the divisibility."""
        return ila.mat_vec(self.lattice.gram_rows(), list(self.coords))

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
class Root:
    """A (-2)-vector together with its class relative to an isotropic v."""

    vec: LatVec
    class_rel_v: str  # "positive" | "zero" | "negative"

    @staticmethod
    def classify(delta: LatVec, v: LatVec) -> "Root":
        if delta.norm2 != -2:
            raise NotARootError(f"{delta} squares to {delta.norm2}, not -2")
        p = v.dot(delta)
        cls = "zero" if p == 0 else ("positive" if -p > 0 else "negative")
        return Root(delta, cls)


@dataclass(frozen=True)
class Isometry:
    """Integer isometry of a lattice, optionally tagged with orientation."""

    lattice: IntegerLattice
    matrix: tuple[tuple[int, ...], ...]
    plus_flag: bool | None = None

    def __post_init__(self):
        g = self.lattice.gram_rows()
        m = [list(r) for r in self.matrix]
        mt = ila.transpose(m)
        if ila.mat_mul(ila.mat_mul(mt, g), m) != g:
            raise ValueError("matrix does not preserve the Gram form")

    def apply(self, v: LatVec) -> LatVec:
        return LatVec(self.lattice,
                      tuple(ila.mat_vec([list(r) for r in self.matrix],
                                        list(v.coords))))

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (matrix product self @ other)."""
        m = ila.mat_mul([list(r) for r in self.matrix],
                        [list(r) for r in other.matrix])
        flag = None
        if self.plus_flag is not None and other.plus_flag is not None:
            flag = self.plus_flag == other.plus_flag
        return Isometry(self.lattice, tuple(tuple(r) for r in m), flag)

    def inverse(self) -> "Isometry":
        inv = ila.mat_inverse_unimodular([list(r) for r in self.matrix])
        return Isometry(self.lattice, tuple(tuple(r) for r in inv),
                        self.plus_flag)

    def with_flag(self, flag: bool) -> "Isometry":
        return Isometry(self.lattice, self.matrix, flag)

    def __repr__(self) -> str:
        return f"Isometry({self.matrix}, plus={self.plus_flag})"


# ---------------------------------------------------------------------------
# constructors and presets
# ---------------------------------------------------------------------------

def make_lattice(gram, label: str = "", mukai: bool = False) -> IntegerLattice:
    """Build a lattice from a symmetric integer matrix with det != 0."""
    rows = [list(int(x) for x in r) for r in gram]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSymmetricError("Gram matrix is not square")
    for i in range(n):
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise NonSymmetricError(
                    f"Gram[{i}][{j}] != Gram[{j}][{i}]")
    lat = IntegerLattice(tuple(tuple(r) for r in rows), label, mukai)
    if ila.det_bareiss(rows) == 0:
        raise DegenerateError("Gram matrix has determinant 0")
    return lat


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
    ns = [list(int(x) for x in r) for r in ns_gram]
    k = len(ns)
    n = k + 2
    gram = [[0] * n for _ in range(n)]
    gram[0][n - 1] = gram[n - 1][0] = -1
    for i in range(k):
        for j in range(k):
            gram[1 + i][1 + j] = ns[i][j]
    lat = make_lattice(gram, label or "mukai", mukai=True)
    if not lat.is_even:
        raise OddSquareError("NS block is not even")
    return lat


_PRESET_RE = re.compile(r"^(\w+)\((-?\d+)\)$")


def preset(name: str) -> IntegerLattice:
    """Named lattices: U, E8_minus, bracket(2n), mukai_rank1(n), full_mukai."""
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
    ns = ns_block(lat)
    return sum(a[i] * ns[i][j] * b[j]
               for i in range(len(a)) for j in range(len(b)))


def euler_pairing(u: LatVec, w: LatVec) -> int:
    """Euler characteristic chi = -(u.w)."""
    return -pair(u, w)


def mukai_vector(lat: IntegerLattice, r: int, c1, c2: int) -> LatVec:
    """(r, c1, c1^2/2 - c2 + r) for a Mukai-form lattice."""
    if not lat.mukai:
        raise ValueError("mukai_vector requires an (r, NS, s)-form lattice")
    c1 = tuple(int(x) for x in c1)
    sq = ns_pair(lat, c1, c1)
    if sq % 2 != 0:
        raise OddSquareError("c1^2 is odd; NS block is not even")
    s = sq // 2 - int(c2) + int(r)
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
    return v.norm2 == 0 and divisibility(v) == 1


def reflection(delta: LatVec) -> Isometry:
    """s_delta : w -> w + (delta.w) delta, an involutive integer isometry."""
    if delta.norm2 != -2:
        raise NotARootError(f"reflection needs delta^2 = -2, got {delta.norm2}")
    n = delta.lattice.rank
    gd = delta.gram_image()
    mat = [[(1 if i == j else 0) + delta.coords[i] * gd[j]
            for j in range(n)] for i in range(n)]
    # -2-reflections fix a positive 2-plane inside delta^perp
    return Isometry(delta.lattice, tuple(tuple(r) for r in mat), True)


def minus_identity(lat: IntegerLattice) -> Isometry:
    mat = tuple(tuple(-1 if i == j else 0 for j in range(lat.rank))
                for i in range(lat.rank))
    # -id maps a frame (Re z, Im z) to (-Re z, -Im z): same oriented plane
    return Isometry(lat, mat, True)


def line_twist_isometry(lat: IntegerLattice, l) -> Isometry:
    """Multiplication by exp(l): (r, c, s) -> (r, c + r l, s + c.l + r l^2/2).

    The unipotent transvection fixing (0, ..., 0, 1); requires the (r, NS, s)
    presentation.  Gram preservation is re-checked exactly on construction.
    """
    if not lat.mukai:
        raise ValueError("line twist needs an (r, NS, s)-form lattice")
    l = [int(x) for x in l]
    k = lat.ns_rank
    if len(l) != k:
        raise ValueError("l must be an NS-vector")
    gl = ila.mat_vec(ns_block(lat), l)   # NS-Gram @ l
    lsq = sum(gl[i] * l[i] for i in range(k))
    if lsq % 2 != 0:
        raise OddSquareError("l^2 odd on an even NS block")
    n = lat.rank
    mat = [[0] * n for _ in range(n)]
    mat[0][0] = 1
    mat[n - 1][n - 1] = 1
    mat[n - 1][0] = lsq // 2
    for i in range(k):
        mat[1 + i][0] = l[i]
        mat[1 + i][1 + i] = 1
        mat[n - 1][1 + i] = gl[i]
    # unipotent, fixes the positive 2-plane orientation
    return Isometry(lat, tuple(tuple(r) for r in mat), True)


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


def vectors_of_norm(lat: IntegerLattice, norm: int, bound: int) -> np.ndarray:
    """All non-zero x with max|x_i| <= bound and x.x = norm, in lex order.

    Returns an integer array of shape (count, rank); its dtype comes from
    :func:`_int_dtype`.  When the first and last coordinates span a scaled
    hyperbolic plane c*U orthogonal to the rest, as in the (r, NS, s) form,
    x.x = l.l + 2c r s.  The (r, l) part is scanned and s is solved exactly:
    s = (norm - l.l) / (2 c r) for r != 0, every s in the box for r = 0 and
    l.l = norm.  That costs (2 bound + 1)^(rank - 1) points.  Other lattices
    scan the whole box, one slice at a time.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    gram = lat.gram
    n = lat.rank
    dtype = _int_dtype(
        bound * bound * sum(abs(x) for row in gram for x in row) + abs(norm))
    c = _hyperbolic_ends(gram)
    parts = [np.zeros((0, n), dtype=dtype)]
    if not c:
        for head, tail, norms in _box_slices(gram, bound, dtype):
            hit = tail[norms == norm]
            parts.append(np.hstack(
                [np.broadcast_to(head, (len(hit), len(head))), hit]))
    else:
        side = 2 * bound + 1
        s_axis = np.arange(-bound, bound + 1).astype(dtype)
        r_axis = np.array([r for r in range(-bound, bound + 1) if r],
                          dtype=dtype)
        for head, tail, ll in _box_slices(
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


def roots_in_box(lat: IntegerLattice, bound: int,
                 rel_v: LatVec | None = None) -> list[Root]:
    """All delta with max|coords| <= bound and delta^2 = -2, lex order.

    :func:`vectors_of_norm` at norm -2, each root classed by -(v.delta)
    against ``rel_v`` ("zero" for every root when it is None).  The full
    root system of an indefinite lattice is infinite; this is an explicitly
    bounded slice.  For completeness on compact period-domain regions use
    the majorant enumeration in :mod:`mukai_kit.domain`.
    """
    coords = vectors_of_norm(lat, -2, bound).tolist()
    if rel_v is None:
        return [Root(LatVec(lat, tuple(c)), "zero") for c in coords]
    gv = rel_v.gram_image()
    out = []
    for c in coords:
        p = sum(x * y for x, y in zip(c, gv))
        cls = "zero" if p == 0 else ("positive" if -p > 0 else "negative")
        out.append(Root(LatVec(lat, tuple(c)), cls))
    return out


# ---------------------------------------------------------------------------
# complements, quotients, discriminants
# ---------------------------------------------------------------------------

def _check_primitive_isotropic(v: LatVec):
    if v.is_zero():
        raise ZeroVectorError("need a non-zero vector")
    if v.norm2 != 0:
        raise NotIsotropicError(f"v^2 = {v.norm2} != 0")
    if not is_primitive(v):
        raise NotPrimitiveError("v is not primitive")


def orthogonal_complement(v: LatVec) -> list[list[int]]:
    """Basis columns of {w : v.w = 0}, saturated, deterministic order."""
    if v.is_zero():
        raise ZeroVectorError("complement of 0 is everything")
    return ila.integer_kernel([v.gram_image()])


def quotient_lattice(v: LatVec) -> IntegerLattice:
    """L(v) = v^perp / Zv for a primitive isotropic v.

    The basis is produced by extending v to a basis of v^perp (Hermite form
    with a fixed column order), so repeated runs give identical Gram matrices.
    """
    _check_primitive_isotropic(v)
    lat = v.lattice
    perp = orthogonal_complement(v)  # columns, rank n-1
    k = len(perp)
    # coordinates of v in the perp basis (v lies in v^perp since v^2=0)
    bmat = [[perp[c][r] for c in range(k)] for r in range(lat.rank)]
    coeffs = _solve_integer_columns(bmat, list(v.coords))
    u = ila.complete_primitive(coeffs)
    # new basis of v^perp with first column v; drop it and read the Gram
    newb = ila.mat_mul(bmat, u)
    cols = [[newb[r][c] for r in range(lat.rank)] for c in range(1, k)]
    gram = ila.gram_of(cols, lat.gram_rows())
    return make_lattice(gram, label=f"L({lat.label or 'N'})")


def _solve_integer_columns(bmat, target):
    """Solve bmat @ x = target exactly; bmat has full column rank."""
    rows, cols = len(bmat), len(bmat[0])
    from fractions import Fraction
    a = [[Fraction(bmat[i][j]) for j in range(cols)] + [Fraction(target[i])]
         for i in range(rows)]
    piv_rows = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_rows.append(c)
        r += 1
        if r == cols:
            break
    x = [Fraction(0)] * cols
    for i, c in enumerate(piv_rows):
        x[c] = a[i][cols]
    for i in range(r, rows):
        if a[i][cols] != 0:
            raise ValueError("inconsistent system")
    out = []
    for xi in x:
        if xi.denominator != 1:
            raise ValueError("solution is not integral")
        out.append(int(xi))
    return out


def discriminant_group(lat: IntegerLattice) -> list[int]:
    """Elementary divisors (> 1) of the Gram matrix: A(N) = N^dual / N."""
    if lat.det == 0:
        raise DegenerateError("discriminant group needs det != 0")
    return [d for d in ila.invariant_factors(lat.gram_rows()) if d != 1]


def standard_to_hyperbolic(v: LatVec):
    """Split off the hyperbolic plane spanned by a standard vector.

    Returns (e, f, complement) with e = v, f isotropic, e.f = -1 and
    ``complement`` an integer column basis of <e,f>^perp, isometric to L(v).
    The sign convention e.f = -1 matches the z.v = -1 normalization of the
    tube model; the opposite choice flips tube coordinates.
    """
    if not is_standard(v):
        raise NotStandardError("need v isotropic with divisibility 1")
    lat = v.lattice
    w_coords = ila.solve_one_equation(v.gram_image(), -1)
    if w_coords is None:
        raise NotStandardError("divisibility 1 violated")  # unreachable
    w = lat.vector(w_coords)
    wsq = w.norm2
    if wsq % 2 != 0:
        raise OddSquareError("lattice is not even")
    f = w + v.scale(wsq // 2)
    if f.norm2 != 0 or v.dot(f) != -1:
        raise InvariantError("hyperbolic partner needs f^2 = 0, v.f = -1")
    rows = [v.gram_image(), f.gram_image()]
    comp = ila.integer_kernel(rows)
    return v, f, comp
