"""Zero-dimensional cusp enumeration and classification.

Primitive isotropic vectors in a height window stay one integer array from
the norm enumerator to the census records; each row gets a class id, and
one grouping of those ids gives the classes, their sizes and their
divisibilities.  On Picard-rank-one Mukai lattices U + <2n> the isometry
group acts on cusps through the Fricke group Gamma_0(n)^+ (Dolgachev 1996,
section 7), so the default census takes closed-form Gamma_0(n)^+ cusp
labels as ids and is exact.  Elsewhere, or when generators are given, the
ids are orbits under bounded generator words, an upper bound: the
generators may span a subgroup of the isometry group.
:func:`fricke_cusp_count` is the classical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intlinalg as ila
from .errors import BudgetExceededError, IntegerOverflowError, InvariantError
from .lattice import (
    IntegerLattice,
    LatVec,
    discriminant_group,
    hyperbolic_frame,
    is_mukai_form,
    line_twist_isometry,
    minus_identity,
    orientation_character,
    quotient_lattice,
    reflections,
    vectors_of_norm,
)
from .serialize import digest


def enumerate_isotropic(lat: IntegerLattice, height: int) -> np.ndarray:
    """All primitive isotropic v with 0 < max|coords| <= height, one per +-v.

    The rows of :func:`~mukai_kit.lattice.vectors_of_norm` at norm 0 where
    the coordinate gcd is 1 and the first non-zero coordinate is positive,
    in lexicographic order, as an integer array of shape (count, rank).  On
    (r, NS, s)-form lattices the cost is (2 height + 1)^(rank - 1) points,
    so rank 5 at height 20 is routine.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    iso = vectors_of_norm(lat, 0, height)
    lead = iso[np.arange(len(iso)), np.argmax(iso != 0, axis=1)]
    return iso[(lead > 0) & (np.gcd.reduce(iso, axis=1) == 1)]


def default_generators(lat: IntegerLattice, root_bound: int) -> np.ndarray:
    """-id, (for Mukai-form lattices) the line-twist transvections by the NS
    basis vectors, and the reflections in the roots of the coordinate box,
    one per +-root, as one integer array of shape (count, rank, rank).

    These are the lattice actions of the shift, of spherical twists and of
    line-bundle twists.  On signature (2, q) the census checks that each
    keeps the orientation of positive 2-planes, by
    :func:`~mukai_kit.lattice.orientation_character`.  Reflections alone
    are arithmetically too sparse on some lattices (e.g. U + <8>, where
    roots satisfy rs = 4a^2 + 1), so the transvections are needed for the
    census to converge.  Orbit merges produced by any of them are sound.
    The dtype is that of :func:`~mukai_kit.lattice.vectors_of_norm`, whose
    magnitude bound also bounds every reflection entry.
    """
    roots = vectors_of_norm(lat, -2, root_bound)
    lead = roots[np.arange(len(roots)), np.argmax(roots != 0, axis=1)]
    fixed = [minus_identity(lat).matrix]
    if lat.mukai:
        fixed += [line_twist_isometry(lat, e).matrix
                  for e in np.eye(lat.ns_rank, dtype=int).tolist()]
    return np.concatenate([np.array(fixed, dtype=roots.dtype),
                           reflections(roots[lead > 0], lat.gram)])


@dataclass
class OrbitResult:
    class_of: np.ndarray                # index of the least row per class
    frontier_sizes: list[int]           # out-of-window states explored


# Generator images computed at once in one sweep step, at most.
_SWEEP_CHUNK = 1 << 16


def orbit_partition(lat: IntegerLattice, window: np.ndarray,
                    generators: np.ndarray, depth: int,
                    height: int | None = None,
                    frontier_cap: int | None = None,
                    max_states: int = 500_000) -> OrbitResult:
    """Group the window rows into orbits under bounded generator words.

    ``window`` holds distinct sign-canonical rows in lex order, as from
    :func:`enumerate_isotropic`; ``class_of[i]`` is the index of the least
    row in row i's orbit.  ``generators`` is an integer array of shape
    (count, rank, rank), int64 or Python ints, as from
    :func:`default_generators`; words use each generator and its inverse.

    A breadth-first sweep starts from all window rows at once; +-v is
    one state.  Images that leave the height window are kept as frontier
    nodes and expanded while within ``depth`` steps of some window vector
    and below the ``frontier_cap`` coordinate bound, so merges that pass
    through large vectors are found.  Every edge is a union, including
    edges to images beyond the cap.  The output is a refinement of the true
    orbit partition: orbits may merge further under the full group, never
    split.

    The sweep runs one level at a time on int64 arrays: all generators act
    on a slice of the level in one product and images are sign-canonicalised
    row-wise.  States get integer ids, merged by a union-find over those ids.

    Before each level the sweep stops once the window has as many classes
    as divisibilities div(v) = gcd(G v).  That is final: all generators are
    checked exactly to be isometries, which keep div, so no class, now or
    after more levels, spans two divisibilities; each bucket is already one
    class.  ``frontier_sizes`` counts the states the swept levels reach.

    Lattices with large Weyl groups (several hyperbolic summands) can blow
    past ``max_states`` within-cap states; the sweep then aborts with a
    :class:`~mukai_kit.errors.BudgetExceededError` rather than churn -
    reduce the generator set, depth or frontier cap.  A cap so large that images could leave int64 raises
    :class:`~mukai_kit.errors.IntegerOverflowError`.
    """
    if depth < 0:
        raise ValueError("word depth must be >= 0")
    n = lat.rank
    gens = np.asarray(generators)
    if gens.shape == (0,):
        gens = np.zeros((0, n, n), dtype=np.int64)
    if gens.shape != (len(gens), n, n):
        raise ValueError(f"generators must have shape (count, {n}, {n}), "
                         f"not {gens.shape}")
    if gens.dtype != np.int64 and {type(x) for x in gens.flat} - {int}:
        raise TypeError("generators must be int64 or Python ints, "
                        f"not {gens.dtype}")
    pairs = np.concatenate([gens, _inverses(lat, gens)])
    top = int(np.abs(window).max(initial=0))
    if frontier_cap is None:
        frontier_cap = 200 * (height or top)
    reach = max(frontier_cap, top)
    grow = int(np.abs(pairs).sum(axis=2).max(initial=0))
    if reach * grow * max(sum(map(abs, row)) for row in lat.gram) >= 1 << 62:
        raise IntegerOverflowError(
            "orbit sweep images could leave int64; lower the frontier cap")
    mats = np.unique(pairs.astype(np.int64), axis=0)
    gram = np.array(lat.gram, dtype=np.int64)
    sweep = _StateTable(np.asarray(window, dtype=np.int64))
    buckets = len(np.unique(np.gcd.reduce(sweep.states @ gram, axis=1)))
    level = np.arange(len(window))
    step = max(1, _SWEEP_CHUNK // max(len(mats), 1))
    within = len(window)                # states inside the frontier cap
    for _ in range(depth if len(mats) else 0):
        if len(np.unique(sweep.roots(len(window)))) == buckets:
            break                       # each bucket is one class: final
        found = []
        for lo in range(0, len(level), step):
            src = level[lo:lo + step]
            x = sweep.states[src]
            img = np.einsum("gij,mj->gmi", mats, x).reshape(-1, n)
            lead = img[np.arange(len(img)), np.argmax(img != 0, axis=1)]
            img *= np.where(lead < 0, -1, 1)[:, None]
            ids, new = sweep.ids_of(img)
            sweep.union(np.tile(src, len(mats)), ids)
            new = new[np.abs(sweep.states[new]).max(axis=1) <= frontier_cap]
            within += len(new)
            if within > max_states:
                raise BudgetExceededError(
                    "orbit sweep exceeded the state budget "
                    f"({max_states}); reduce generators, depth or cap")
            found.append(new)
        level = np.concatenate(found) if found else level[:0]

    return OrbitResult(sweep.roots(len(window)), [within - len(window)])


def _inverses(lat: IntegerLattice, gens: np.ndarray) -> np.ndarray:
    """G^-1 m^T G for each m, exact in Python ints: the integer adjugate of
    G, then division by det G.  InvariantError if an m is not an isometry."""
    adj = ila.adjugate(lat.gram)
    m, gram = gens.astype(object), np.array(lat.gram, dtype=object)
    if np.any(m.swapaxes(1, 2) @ gram @ m != gram):
        raise InvariantError("generator is not an isometry of the lattice")
    return np.array(adj, dtype=object) @ m.swapaxes(1, 2) @ gram // lat.det


class _StateTable:
    """Sign-canonical int64 states with integer ids and a union-find.

    Ids count up from 0 in order of first sight; ``parent[i] <= i`` always,
    so the root of a class is its least id.
    """

    def __init__(self, window: np.ndarray):
        self.states = window
        self.parent = np.arange(len(window))
        keys = self._keys(window)
        self.order = np.argsort(keys)   # ids sorted by key
        self.sorted_keys = keys[self.order]

    @staticmethod
    def _keys(rows: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))
                         ).ravel()

    def ids_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the rows, adding unseen ones; also the ids added."""
        keys, first, inverse = np.unique(self._keys(rows), return_index=True,
                                         return_inverse=True)
        pos = np.searchsorted(self.sorted_keys, keys)
        hit = pos < len(self.sorted_keys)
        hit[hit] = self.sorted_keys[pos[hit]] == keys[hit]
        ids = np.empty(len(keys), dtype=np.int64)
        ids[hit] = self.order[pos[hit]]
        start = len(self.states)
        new = np.arange(start, start + int((~hit).sum()))
        ids[~hit] = new
        self.states = np.concatenate([self.states, rows[first[~hit]]])
        self.parent = np.concatenate([self.parent, new])
        self.sorted_keys = np.insert(self.sorted_keys, pos[~hit], keys[~hit])
        self.order = np.insert(self.order, pos[~hit], new)
        return ids[inverse.ravel()], new

    def _compress(self):
        while True:
            up = self.parent[self.parent]
            if np.array_equal(up, self.parent):
                return
            self.parent = up

    def union(self, a: np.ndarray, b: np.ndarray):
        """Merge the classes of a[i] and b[i] for every i."""
        while True:
            self._compress()
            a, b = self.parent[a], self.parent[b]
            differ = a != b
            if not differ.any():
                return
            a, b = a[differ], b[differ]
            np.minimum.at(self.parent, np.maximum(a, b), np.minimum(a, b))

    def roots(self, count: int) -> np.ndarray:
        """Class roots of ids 0 .. count - 1."""
        self._compress()
        return self.parent[:count]


@dataclass
class CuspRecord:
    rep: LatVec
    div: int
    orbit_size_found: int
    Lv_gram: tuple[tuple[int, ...], ...]
    disc_group: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "rep": list(self.rep.coords),
            "div": self.div,
            "orbit_size_found": self.orbit_size_found,
            "Lv_gram": [list(r) for r in self.Lv_gram],
            "disc_group": list(self.disc_group),
        }


@dataclass
class CensusReport:
    lattice: IntegerLattice
    height: int
    root_bound: int
    word_depth: int
    records: list[CuspRecord]
    generator_count: int
    generator_hash: str = ""
    note: str = ("orbit refinement under reflection generators and -id; "
                 "count is an upper bound for the true cusp count")

    @property
    def count(self) -> int:
        return len(self.records)

    def to_json(self) -> dict:
        return {
            "lattice": self.lattice.to_json(),
            "height": self.height,
            "root_bound": self.root_bound,
            "word_depth": self.word_depth,
            "generator_count": self.generator_count,
            "generator_hash": self.generator_hash,
            "count": self.count,
            "records": [r.to_json() for r in self.records],
            "note": self.note,
        }


def _generator_hash(generators: np.ndarray) -> str:
    """``serialize.digest`` of the repr of the sorted generator matrices."""
    return digest(repr(sorted(tuple(map(tuple, m)) for m in
                              np.asarray(generators).tolist())).encode())


def _fricke_level(lat: IntegerLattice) -> int:
    """n if ``lat`` is U + <2n> in (r, NS, s) form with n >= 1, else 0."""
    n = lat.gram[1][1] // 2 if lat.mukai and lat.rank == 3 else 0
    return n if lat.gram == ((0, 0, -1), (0, 2 * n, 0), (-1, 0, 0)) else 0


def _fricke_labels(coords: np.ndarray, n: int) -> np.ndarray:
    """Gamma_0(n)^+ cusp label of each primitive isotropic row (r, l, s).

    The cusp of v is l/r = a/c in lowest terms with c >= 0, or 1/0 when
    r = 0.  Its Gamma_0(n) label is (d, x) = (d, a (c/d) mod m) with
    d = gcd(c, n) and m = gcd(d, n/d) (Diamond-Shurman, section 3.8),
    encoded as d n + x.  The Fricke involution z -> -1/(nz) sends a/c to
    -c/(na), whose label is (n/d, -x mod m); of the two the lesser is kept.
    """
    r, l = coords[:, 0], coords[:, 1]
    a, c = np.where(r == 0, 1, l * np.sign(r)), np.abs(r)
    a, c = a // np.gcd(a, c), c // np.gcd(a, c)
    d = np.gcd(c, n)
    m = np.gcd(d, n // d)
    x = a * (c // d) % m
    return np.minimum(d * n + x, n // d * n + (-x) % m)


def _shadow(rep: LatVec, div: int) -> IntegerLattice:
    """L(v), certified.  At div 1 on an even lattice it is R of the frame
    B = (f | R | v), B^T G B must be the Mukai form over R and B e_last = v;
    other L(v) must have signature (p - 1, q - 1).  Every L(v) must have
    |det L(v)| div^2 = |det L|.  At div 1, det(B)^2 det L = -det L(v) then
    gives |det B| = 1, so B^T G B is L in a new basis, of L's signature."""
    lat = rep.lattice
    if div == 1 and lat.is_even:
        b = hyperbolic_frame(rep)
        full = ila.gram_of(b, lat.gram)
        lv = IntegerLattice(tuple(tuple(row[1:-1]) for row in full[1:-1]))
        bad = not is_mukai_form(full) or b[-1] != rep.coords
    else:
        lv = quotient_lattice(rep)
        bad = lv.signature != tuple(x - 1 for x in lat.signature)
    if bad or abs(lv.det) * div**2 != abs(lat.det):
        raise InvariantError(f"L(v) at {rep.coords} fails its certificate")
    return lv


def _census(lat: IntegerLattice, height: int,
            generators: np.ndarray | None, word_depth: int,
            root_bound: int, standard_only: bool) -> CensusReport:
    """Classes of the isotropic window rows, by label or by sweep."""
    if word_depth < 0:
        raise ValueError("word depth must be >= 0")
    window = enumerate_isotropic(lat, height)
    divs = np.gcd.reduce(window @ np.array(lat.gram), axis=1)
    if standard_only:
        window, divs = window[divs == 1], divs[divs == 1]
    n = _fricke_level(lat) if generators is None else 0
    if generators is None:
        generators = default_generators(lat, root_bound)
    if n:
        class_of = _fricke_labels(window, n)
    else:
        class_of = orbit_partition(lat, window, generators, word_depth,
                                   height=height).class_of
    # after the sweep, which certifies supplied generators as isometries
    if lat.signature[0] == 2 and len(generators):
        bad = np.flatnonzero(orientation_character(lat, generators) < 0)
        if len(bad):
            raise InvariantError(
                f"generator {bad[0]} reverses the orientation of positive "
                f"2-planes: {np.asarray(generators)[bad[0]].tolist()}")
    # one check for both paths, as labels are not certified by isometries
    _, first, inverse, sizes = np.unique(class_of, return_index=True,
                                         return_inverse=True,
                                         return_counts=True)
    if np.any(divs != divs[first][inverse]):
        raise InvariantError("divisibility differs in a cusp class")
    records = []
    for i, size in zip(first.tolist(), sizes.tolist()):
        rep, div = lat.vector(window[i]), int(divs[i])
        lv = _shadow(rep, div)
        records.append(CuspRecord(rep, div, size, lv.gram,
                                  tuple(discriminant_group(lv))))
    records.sort(key=lambda r: (r.div, r.rep.coords))
    return CensusReport(lat, height, root_bound, word_depth, records,
                        generator_count=len(generators),
                        generator_hash=_generator_hash(generators))


def standard_cusp_census(lat: IntegerLattice, height: int,
                         generators: np.ndarray | None = None,
                         word_depth: int = 6,
                         root_bound: int = 8) -> CensusReport:
    """One record per cusp class of standard vectors at this height.

    Each record carries the Gram matrix and discriminant invariants of
    L(v) = v^perp / v, the lattice shadow of the associated partner surface.
    """
    return _census(lat, height, generators, word_depth, root_bound, True)


def cusp_census(lat: IntegerLattice, height: int,
                generators: np.ndarray | None = None,
                word_depth: int = 6,
                root_bound: int = 8) -> CensusReport:
    """Census of all zero-dimensional cusp classes (every divisibility).

    Divisibility d = 1 records are the standard cusps; d > 1 buckets are
    reported as raw class data (their twisted-partner interpretation is not
    modelled).  On U + <2n> with no generators given the classes are cusp
    labels, exact, and the count is :func:`fricke_cusp_count` once the
    window meets every label (height 4n + 20 does for n <= 60); otherwise
    they are orbits of at most ``word_depth`` generator words, an upper bound.
    ``generators`` is an integer array of shape (count, rank, rank), as
    :func:`default_generators` returns for ``root_bound``, its default.
    """
    return _census(lat, height, generators, word_depth, root_bound, False)


# ---------------------------------------------------------------------------
# Fricke cusp-count oracle
# ---------------------------------------------------------------------------

def fricke_cusp_count(n: int) -> int:
    """Number of cusps of the Fricke group Gamma_0^+(n).

    Cusps of Gamma_0(n) are the pairs (d | n, a in (Z/gcd(d, n/d))^*), the
    pair of a/d; the Fricke involution sends a/d to -1/((n/d) a), the pair
    (n/d, -a).  The count is the number of orbits of this involution:
    (classes + fixed points) / 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    classes = [(d, a % m, m) for d in range(1, n + 1) if n % d == 0
               for m in [math.gcd(d, n // d)]
               for a in range(1, m + 1) if math.gcd(a, m) == 1]
    fixed = sum((n // d, -a % m) == (d, a) for d, a, m in classes)
    return (len(classes) + fixed) // 2
