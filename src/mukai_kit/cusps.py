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
from collections import deque
from dataclasses import dataclass

from .errors import InvariantError
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
    _sign_canonical,
)


def enumerate_isotropic(lat: IntegerLattice, height: int) -> list[LatVec]:
    """All primitive isotropic v with 0 < max|coords| <= height, one per +-v.

    Lexicographic order over the sign-canonical representatives.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    import numpy as np
    n = lat.rank
    if (2 * height + 1) ** n > 2 * 10**7:
        raise ValueError(
            "coordinate window too large; reduce height or lattice rank")
    axes = [np.arange(-height, height + 1, dtype=np.int64)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    g = np.array(lat.gram_rows(), dtype=np.int64)
    norms = np.einsum("vi,ij,vj->v", grid, g, grid)
    iso = grid[norms == 0]
    seen = set()
    for row in iso:
        coords = tuple(int(c) for c in row)
        if all(c == 0 for c in coords):
            continue
        canon = _sign_canonical(coords)
        if canon not in seen and math.gcd(*canon) == 1:
            seen.add(canon)
    return [lat.vector(c) for c in sorted(seen)]


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


def orbit_partition(vectors: list[LatVec], generators: list[Isometry],
                    depth: int, height: int | None = None,
                    frontier_cap: int | None = None,
                    max_states: int = 500_000) -> OrbitResult:
    """Group the vectors into orbits under bounded generator words.

    A single breadth-first sweep starts from all window vectors at once;
    +-v is one state.  Images that leave the height window are kept as
    frontier nodes and expanded while within ``depth`` steps of some window
    vector and below the ``frontier_cap`` coordinate bound, so merges that
    pass through large vectors are found.  The output is a refinement of the
    true orbit partition: orbits may merge further under the full group,
    never split.

    Lattices with large Weyl groups (several hyperbolic summands) can blow
    past ``max_states``; the sweep then aborts with a ValueError rather than
    churn - reduce the generator set, depth or frontier cap.
    """
    if not vectors:
        return OrbitResult([], [], [0])
    lat = vectors[0].lattice
    if height is None:
        height = max(max(abs(c) for c in v.coords) for v in vectors)
    if frontier_cap is None:
        frontier_cap = 200 * height
    window = {_sign_canonical(v.coords) for v in vectors}
    gens: list[Isometry] = []
    seen_mats = set()
    for g in generators:
        for h in (g, g.inverse()):
            if h.matrix not in seen_mats:
                seen_mats.add(h.matrix)
                gens.append(h)
    gen_mats = [[list(r) for r in g.matrix] for g in gens]
    gram = lat.gram_rows()
    n = lat.rank

    parent: dict[tuple, tuple] = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    div_of: dict[tuple, int] = {}

    def div_state(state):
        d = div_of.get(state)
        if d is None:
            d = math.gcd(*(sum(gram[i][j] * state[j] for j in range(n))
                           for i in range(n)))
            div_of[state] = d
        return d

    queue = deque((w, 0) for w in sorted(window))
    depth_seen = {w: 0 for w in window}
    frontier_total = 0
    while queue:
        state, d = queue.popleft()
        if d >= depth:
            continue
        for mat in gen_mats:
            img = _sign_canonical(tuple(
                sum(mat[i][j] * state[j] for j in range(n)) for i in range(n)))
            # divisibility is an isometry invariant; check on every edge
            if div_state(img) != div_state(state):
                raise InvariantError("generator changed a divisibility")
            union(state, img)
            if img in depth_seen:
                continue
            if max(abs(c) for c in img) > frontier_cap:
                continue
            if len(depth_seen) >= max_states:
                raise ValueError(
                    "orbit sweep exceeded the state budget "
                    f"({max_states}); reduce generators, depth or cap")
            depth_seen[img] = d + 1
            if img not in window:
                frontier_total += 1
            queue.append((img, d + 1))

    groups: dict[tuple, list[tuple]] = {}
    for w in window:
        groups.setdefault(find(w), []).append(w)
    orbits = [sorted(g) for g in sorted(groups.values())]
    return OrbitResult(
        orbits=[[lat.vector(c) for c in orb] for orb in orbits],
        representative=[lat.vector(orb[0]) for orb in orbits],
        frontier_sizes=[frontier_total],
    )


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
            lv = quotient_lattice(rep)
            disc = tuple(discriminant_group(lv))
            # isometry invariants must agree along the whole orbit
            for member in orbit:
                lm = quotient_lattice(member)
                if (tuple(discriminant_group(lm)) != disc
                        or abs(lm.det) != abs(lv.det)):
                    raise InvariantError("L(v) invariants differ in an orbit")
            records.append(CuspRecord(
                rep=rep,
                div=divisibility(rep),
                orbit_size_found=len(orbit),
                Lv_gram=lv.gram,
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


def enumerate_isotropic_planes(lat: IntegerLattice,
                               height: int) -> list[tuple[LatVec, LatVec]]:
    """Raw list of rank-2 isotropic pairs (one-dimensional boundary data).

    Pairs (u, w) of primitive isotropic vectors with u.w = 0 spanning a
    rank-2 subspace, up to sign; no orbit analysis is attempted.
    """
    vecs = enumerate_isotropic(lat, height)
    out = []
    for i, u in enumerate(vecs):
        for w in vecs[i + 1:]:
            if u.dot(w) == 0:
                out.append((u, w))
    return out


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
