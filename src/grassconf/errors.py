"""Exception hierarchy shared by all grassconf modules."""


class GrassconfError(Exception):
    """Base class for every error raised by this package."""


class InconsistentSystemError(GrassconfError):
    """A linear system a·x = b has no exact solution."""


class ZeroSubspaceError(GrassconfError):
    """A generating set spans only the zero subspace."""


class MixedAmbientError(GrassconfError):
    """Subspaces of different ambient dimensions were combined."""


class FullSpaceError(GrassconfError):
    """The full space has no complement."""


class NotComplementaryError(GrassconfError):
    """Two subspaces were required to be complementary but are not."""


class DuplicatePointsError(GrassconfError):
    """A configuration contains coinciding subspaces."""


class EmptyStratumError(GrassconfError):
    """The requested stratum is empty."""


class OutsideChartError(GrassconfError):
    """A point fails the transversality condition of a chart."""


class NotDirectSumError(GrassconfError):
    """The configuration is not in a direct-sum stratum."""


class DirectSumError(GrassconfError):
    """The two subspaces are in direct sum, so their intersection is zero."""


class WrongArityError(GrassconfError):
    """The operation applies only to pairs of subspaces."""


class OutOfRangeError(GrassconfError):
    """The homotopy degree is outside the computed range."""


class OutOfScopeError(GrassconfError):
    """The parameters fall outside the scope of this calculator."""


class UnreachableError(GrassconfError):
    """The requested stratum cannot be reached from the given point."""


class WireFormatError(GrassconfError, ValueError):
    """A JSON wire-format object is malformed or lacks a field."""
