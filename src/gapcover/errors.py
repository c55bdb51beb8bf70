"""Exception types shared across the package."""


class GapCoverError(Exception):
    """Base class for all package errors."""


class DimensionError(GapCoverError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(GapCoverError):
    """A matrix that must be nonsingular is singular."""


class RankError(GapCoverError):
    """Input does not have the required rank."""


class LatticeMismatchError(GapCoverError):
    """Two bases do not generate the same lattice."""


class CertificationError(GapCoverError):
    """An exact certificate could not be established."""


class BudgetError(GapCoverError):
    """A stage would exceed the configured budget: lattice points to
    enumerate, facet candidates, or projection convolution steps."""


class ParseError(GapCoverError):
    """Malformed instance document.

    ``path`` locates the offending element, e.g. ``body.form[1]``.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class GenerationError(GapCoverError):
    """Random instance generation failed (e.g. persistent singular draws)."""
