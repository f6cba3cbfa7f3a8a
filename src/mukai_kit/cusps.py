"""Zero-dimensional cusp enumeration and classification.

Primitive isotropic vectors are enumerated in a height window, bucketed by
divisibility, and partitioned into orbits under a supplied generator set
(by default: all (-2)-reflections from a root box plus -id).  The resulting
census is an upper bound for the true cusp count: the generators span a
subgroup of the full isometry group, so orbits may merge further.  For
Picard-rank-one Mukai lattices U + <2n> the exact count is known to be the
cusp number of the Fricke group, which :func:`fricke_cusp_count` computes
classically; the census is cross-checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegerOverflowError, InvariantError
from .lattice import (
    IntegerLattice,
    Isometry,
    LatVec,
    discriminant_group,
    divisibility,
    is_standard,
    line_twist_isometry,
    minus_identity,
    quotient_lattice,
    reflection,
    roots_in_box,
    vectors_of_norm,
    _sign_canonical,
)


def enumerate_isotropic(lat: IntegerLattice, height: int) -> list[LatVec]:
    """All primitive isotropic v with 0 < max|coords| <= height, one per +-v.

    :func:`~mukai_kit.lattice.vectors_of_norm` at norm 0, kept where the
    coordinate gcd is 1 and the first non-zero coordinate is positive;
    lexicographic order.  On (r, NS, s)-form lattices the cost is
    (2 height + 1)^(rank - 1) points, so rank 5 at height 20 is routine.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    iso = vectors_of_norm(lat, 0, height)
    lead = iso[np.arange(len(iso)), np.argmax(iso != 0, axis=1)]
    keep = (lead > 0) & (np.gcd.reduce(iso, axis=1) == 1)
    return [LatVec(lat, tuple(c)) for c in iso[keep].tolist()]


def classify_divisibility(vectors: list[LatVec]) -> dict[int, list[LatVec]]:
    """Partition primitive isotropic vectors by div(v) = gcd(G @ v)."""
    buckets: dict[int, list[LatVec]] = {}
    for v in vectors:
        buckets.setdefault(divisibility(v), []).append(v)
    return dict(sorted(buckets.items()))


def default_generators(lat: IntegerLattice, root_bound: int,
                       twist_range: int = 1) -> list[Isometry]:
    """Reflections in all roots of the coordinate box, -id, and (for
    Mukai-form lattices) line-twist transvections.

    All of these lie in the isometry group used for cusp identification:
    -2-reflections act trivially on the discriminant group and fix a
    positive 2-plane, -id is realized by the shift, and the transvections
    are the cohomological actions of line-bundle twists.  Reflections alone
    are arithmetically too sparse on some lattices (e.g. U + <8>, where
    roots satisfy rs = 4a^2 + 1), so the transvections are needed for the
    census to converge.  Orbit merges produced by any of them are sound.
    """
    gens = [minus_identity(lat)]
    seen = set()
    for root in roots_in_box(lat, root_bound):
        canon = _sign_canonical(root.vec.coords)
        if canon in seen:
            continue
        seen.add(canon)
        gens.append(reflection(lat.vector(canon)))
    if lat.mukai:
        k = lat.ns_rank
        for i in range(k):
            for m in range(1, twist_range + 1):
                l = [0] * k
                l[i] = m
                gens.append(line_twist_isometry(lat, l))
    return gens


@dataclass
class OrbitResult:
    orbits: list[list[LatVec]]          # in-window members, sorted
    representative: list[LatVec]        # lex-min member per orbit
    frontier_sizes: list[int]           # out-of-window states explored
    exact: bool = False                 # never claimed without an oracle


# Generator images computed at once in one sweep step, at most.
_SWEEP_CHUNK = 1 << 16


def orbit_partition(vectors: list[LatVec], generators: list[Isometry],
                    depth: int, height: int | None = None,
                    frontier_cap: int | None = None,
                    max_states: int = 500_000) -> OrbitResult:
    """Group the vectors into orbits under bounded generator words.

    A breadth-first sweep starts from all window vectors at once; +-v is
    one state.  Images that leave the height window are kept as frontier
    nodes and expanded while within ``depth`` steps of some window vector
    and below the ``frontier_cap`` coordinate bound, so merges that pass
    through large vectors are found.  Every edge is a union, including
    edges to images beyond the cap.  The output is a refinement of the true
    orbit partition: orbits may merge further under the full group, never
    split.  Orbits come ordered by their least member.

    The sweep runs one level at a time on int64 arrays: all generators act
    on a slice of the level in one product, images are sign-canonicalised
    row-wise, and the divisibility invariant is checked on every edge.
    States get integer ids, merged by a union-find over those ids.

    Before each level the sweep stops once the window has as many classes
    as divisibilities div(v) = gcd(G v).  That is final: all generators are
    checked to be isometries and every edge to keep div, so no class, now
    or after more levels, spans two divisibilities; each bucket is already
    one class.  ``frontier_sizes`` counts the states the swept levels reach.

    Lattices with large Weyl groups (several hyperbolic summands) can blow
    past ``max_states`` within-cap states; the sweep then aborts with a
    ValueError rather than churn - reduce the generator set, depth or
    frontier cap.  A cap so large that images could leave int64 raises
    :class:`~mukai_kit.errors.IntegerOverflowError`.
    """
    if not vectors:
        return OrbitResult([], [], [0])
    lat = vectors[0].lattice
    n = lat.rank
    if height is None:
        height = max(max(abs(c) for c in v.coords) for v in vectors)
    if frontier_cap is None:
        frontier_cap = 200 * height
    window = sorted({_sign_canonical(v.coords) for v in vectors})
    mats = []
    for g in generators:
        for h in (g, g.inverse()):
            if h.matrix not in mats:
                mats.append(h.matrix)
    reach = max(frontier_cap, max(max(map(abs, w)) for w in window))
    grow = max((sum(map(abs, row)) for m in mats for row in m), default=0)
    if reach * grow * max(sum(map(abs, row)) for row in lat.gram) >= 1 << 62:
        raise IntegerOverflowError(
            "orbit sweep images could leave int64; lower the frontier cap")
    gram = np.array(lat.gram, dtype=np.int64)
    gens = np.array(mats, dtype=np.int64).reshape(len(mats), n, n)
    if np.any(np.einsum("gji,jk,gkl->gil", gens, gram, gens) != gram):
        raise InvariantError("generator is not an isometry of the lattice")
    sweep = _StateTable(np.array(window, dtype=np.int64))
    buckets = len(np.unique(np.gcd.reduce(sweep.states @ gram, axis=1)))
    level = np.arange(len(window))
    step = max(1, _SWEEP_CHUNK // max(len(mats), 1))
    within = len(window)                # states inside the frontier cap
    for _ in range(depth if mats else 0):
        if len(np.unique(sweep.roots(len(window)))) == buckets:
            break                       # each bucket is one class: final
        found = []
        for lo in range(0, len(level), step):
            src = level[lo:lo + step]
            x = sweep.states[src]
            img = np.einsum("gij,mj->gmi", gens, x).reshape(-1, n)
            lead = img[np.arange(len(img)), np.argmax(img != 0, axis=1)]
            img *= np.where(lead < 0, -1, 1)[:, None]
            # divisibility is an isometry invariant; check on every edge
            if np.any(np.gcd.reduce(img @ gram, axis=1)
                      != np.tile(np.gcd.reduce(x @ gram, axis=1), len(mats))):
                raise InvariantError("generator changed a divisibility")
            ids, new = sweep.ids_of(img)
            sweep.union(np.tile(src, len(mats)), ids)
            new = new[np.abs(sweep.states[new]).max(axis=1) <= frontier_cap]
            within += len(new)
            if within > max_states:
                raise ValueError(
                    "orbit sweep exceeded the state budget "
                    f"({max_states}); reduce generators, depth or cap")
            found.append(new)
        level = np.concatenate(found) if found else level[:0]

    roots = sweep.roots(len(window))
    order = np.argsort(roots, kind="stable")
    cuts = np.flatnonzero(np.diff(roots[order])) + 1
    orbits = [[lat.vector(window[i]) for i in part]
              for part in np.split(order, cuts)]
    return OrbitResult(
        orbits=orbits,
        representative=[orb[0] for orb in orbits],
        frontier_sizes=[within - len(window)],
    )


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


def _generator_hash(generators: list[Isometry]) -> str:
    import hashlib
    blob = repr(sorted(g.matrix for g in generators)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _census(lat: IntegerLattice, vectors: list[LatVec],
            generators: list[Isometry], height: int, word_depth: int,
            root_bound: int) -> CensusReport:
    records: list[CuspRecord] = []
    if vectors:
        result = orbit_partition(vectors, generators, word_depth,
                                 height=height)
        for orbit, rep in zip(result.orbits, result.representative):
            shadows = [quotient_lattice(member) for member in orbit]
            # isometry invariants must agree along the whole orbit
            invariants = {(tuple(discriminant_group(lm)), abs(lm.det))
                          for lm in shadows}
            if len(invariants) > 1:
                raise InvariantError("L(v) invariants differ in an orbit")
            [(disc, _)] = invariants
            records.append(CuspRecord(
                rep=rep,
                div=divisibility(rep),
                orbit_size_found=len(orbit),
                Lv_gram=shadows[0].gram,
                disc_group=disc,
            ))
    records.sort(key=lambda r: (r.div, r.rep.coords))
    return CensusReport(lat, height, root_bound, word_depth, records,
                        generator_count=len(generators),
                        generator_hash=_generator_hash(generators))


def standard_cusp_census(lat: IntegerLattice, height: int,
                         generators: list[Isometry] | None = None,
                         word_depth: int = 6,
                         root_bound: int = 8) -> CensusReport:
    """One record per surviving orbit of standard vectors at this height.

    Each record carries the Gram matrix and discriminant invariants of
    L(v) = v^perp / v, the lattice shadow of the associated partner surface.
    """
    if generators is None:
        generators = default_generators(lat, root_bound)
    standard = [v for v in enumerate_isotropic(lat, height)
                if is_standard(v)]
    return _census(lat, standard, generators, height, word_depth, root_bound)


def cusp_census(lat: IntegerLattice, height: int,
                generators: list[Isometry] | None = None,
                word_depth: int = 6,
                root_bound: int = 8) -> CensusReport:
    """Census of all zero-dimensional cusp classes (every divisibility).

    Divisibility d = 1 records are the standard cusps; d > 1 buckets are
    reported as raw orbit data (their twisted-partner interpretation is not
    modelled).  For Picard-rank-one Mukai lattices the total count matches
    the cusp number of the Fricke modular curve.
    """
    if generators is None:
        generators = default_generators(lat, root_bound)
    vectors = enumerate_isotropic(lat, height)
    return _census(lat, vectors, generators, height, word_depth, root_bound)


# ---------------------------------------------------------------------------
# Fricke cusp-count oracle
# ---------------------------------------------------------------------------

def _gamma0_cusp_classes(n: int) -> list[tuple[int, int]]:
    """Cusp classes of Gamma_0(n) as pairs (d, a mod gcd(d, n/d)), d | n."""
    classes = []
    for d in range(1, n + 1):
        if n % d:
            continue
        m = math.gcd(d, n // d)
        for a in range(1, m + 1):
            if math.gcd(a, m) == 1:
                classes.append((d, a % m if m > 1 else 0))
    return classes


def fricke_cusp_count(n: int) -> int:
    """Number of cusps of the Fricke group Gamma_0^+(n).

    Cusps of Gamma_0(n) are the pairs (d | n, a in (Z/gcd(d, n/d))^*); the
    Fricke involution sends (d, a) to (n/d, -a^{-1}).  The count is the
    number of orbits of this involution.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    classes = _gamma0_cusp_classes(n)
    seen = set()
    orbits = 0
    for (d, a) in classes:
        if (d, a) in seen:
            continue
        m = math.gcd(d, n // d)
        if m > 1:
            ainv = pow(a, -1, m)
            image = (n // d, (-ainv) % m)
        else:
            image = (n // d, 0)
        seen.add((d, a))
        seen.add(image)
        orbits += 1
    return orbits
