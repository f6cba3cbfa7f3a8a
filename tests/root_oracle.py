"""LatVec views of the oriented root rows of the exact wall layer, for
tests only.

``domain._roots_near`` returns oriented rows (c, d, *lam) of Python ints,
and ``domain.enumerate_walls_region`` decodes explicit candidates into
the same rows.  ``orient_root`` is the former one-root orientation on
LatVecs, kept as an oracle for those rows; ``root_vectors`` turns rows into
the LatVecs, in ambient lex order, that ``_roots_near`` used to return.
"""

from __future__ import annotations

from mukai_kit.lattice import _sign_canonical


def orient_root(split, delta):
    """The root that names delta's walls, and d = -v.root >= 0.

    For d != 0 the sign of delta with d > 0.  For d = 0 the C-wall
    representative: zero v- and f-components and a sign-canonical image in
    L(v), since a C-wall depends only on that image up to sign.
    """
    d = -split.v.dot(delta)
    if d < 0:
        return -delta, -d
    if d == 0:
        lam = _sign_canonical(split.root_data(delta)[2])
        return split.root_from_data(0, 0, lam), 0
    return delta, d


def root_vectors(split, rows):
    """The roots c v + d f + R lam of rows (c, d, *lam), sorted by their
    ambient coordinates."""
    return sorted((split.root_from_data(c, d, lam) for c, d, *lam in rows),
                  key=lambda w: w.coords)
