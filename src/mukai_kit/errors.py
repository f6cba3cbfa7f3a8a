"""Exception types shared across the toolkit."""


class MukaiKitError(Exception):
    """Base class for all toolkit errors."""


class InvariantError(MukaiKitError):
    """Internal invariant failed: a bug, or an input outside the contract."""


class BudgetExceededError(MukaiKitError, ValueError):
    """A search outgrew its state budget (a ValueError, as it used to be)."""


# -- lattice layer -----------------------------------------------------------

class NonSymmetricError(MukaiKitError):
    """Gram matrix is not symmetric."""


class DegenerateError(MukaiKitError):
    """Gram matrix has determinant zero."""


class UnknownPresetError(MukaiKitError):
    """Preset name not recognised."""


class LatticeMismatchError(MukaiKitError):
    """Vectors belong to different lattices."""


class ZeroVectorError(MukaiKitError):
    """Operation undefined for the zero vector."""


class NotARootError(MukaiKitError):
    """Vector does not square to -2."""


class NotIsotropicError(MukaiKitError):
    """Vector does not square to 0."""


class NotPrimitiveError(MukaiKitError):
    """Coordinate gcd exceeds 1."""


class NotStandardError(MukaiKitError):
    """Vector is not isotropic of divisibility 1."""


class NotMukaiFormError(MukaiKitError):
    """Gram matrix declared (r, NS, s) is not of that form."""


class OddSquareError(MukaiKitError):
    """NS-class has odd square; the ambient lattice cannot be even."""


class IntegerOverflowError(MukaiKitError):
    """An int64 array kernel could leave the int64 range on this input."""


# -- period domain / tube model ----------------------------------------------

class NotPositiveError(MukaiKitError):
    """Imaginary part has non-positive square."""


class DegenerateAtVError(MukaiKitError):
    """Point pairs to zero with the reference isotropic vector."""


class NonPositiveDetError(MukaiKitError):
    """2x2 factor has non-positive determinant."""


class UnboundedBoxError(MukaiKitError):
    """Chart box or segment is not compact or leaves the positive cone."""


class AmpNotInPositiveConeError(MukaiKitError):
    """Chamber witness has non-positive square."""


# -- geodesics ----------------------------------------------------------------

class NotInLieAlgebraError(MukaiKitError):
    """Matrix is not an infinitesimal isometry of the Gram form."""


class NotHyperbolicError(MukaiKitError):
    """Not hyperbolic: A^3 != A, or a lattice of signature != (1, rank - 1)."""


class StepTooLargeError(MukaiKitError):
    """Integrator energy drift exceeded tolerance."""


class NonFiniteError(MukaiKitError):
    """A float result overflowed to inf or NaN."""


# -- charges -------------------------------------------------------------------

class NonPositiveOmegaError(MukaiKitError):
    """omega^2 <= 0, outside the tube domain."""


class ZeroChargeError(MukaiKitError):
    """Phase of the zero charge is undefined."""


class InconsistentLiftError(MukaiKitError):
    """Phase lift does not match the 2x2 factor."""


class SamplingTooCoarseError(MukaiKitError):
    """Winding ambiguity: consecutive samples differ by half a turn or more."""


class NonPositiveRankError(MukaiKitError):
    """Rank must be positive."""


class NonPositiveSlopeError(MukaiKitError):
    """Slope must be positive."""


# -- CLI / config ---------------------------------------------------------------

class ConfigError(MukaiKitError):
    """Bad job configuration."""
