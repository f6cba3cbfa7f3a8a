"""mukai-kit: lattice-geometric toolkit for the Kahler moduli of K3 surfaces.

Subpackages cover exact Mukai-lattice arithmetic, the period/tube domain with
its wall-and-chamber structure, Killing-metric geodesics, cusp enumeration
with the Fricke cross-check, and the central-charge layer (lifted GL2+
bookkeeping, path factorization, large-volume thresholds).
"""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    IntegerLattice,
    Isometry,
    LatVec,
    count_of_norm,
    direct_sum,
    discriminant_group,
    divisibility,
    euler_pairing,
    hyperbolic_frame,
    hyperbolic_plane,
    is_primitive,
    is_standard,
    line_twist_isometry,
    make_lattice,
    minus_identity,
    mukai_lattice,
    mukai_vector,
    orientation_character,
    orthogonal_complement,
    pair,
    preset,
    quotient_lattice,
    reflection,
    vectors_of_norm,
)
