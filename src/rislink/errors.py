"""Exception types shared across the package."""


class RislinkError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(RislinkError, ValueError):
    """A system parameter or parameter combination is invalid."""


class PlacementError(RislinkError, ValueError):
    """The requested deployment geometry cannot be realized."""


class SelectionInfeasibleError(RislinkError, ValueError):
    """No admissible path assignment exists for the requested scheme."""


class SearchSpaceError(RislinkError, ValueError):
    """An exhaustive search would exceed the configured enumeration cap."""


class NoCrossingError(RislinkError, ValueError):
    """The two transmission strategies do not cross at any positive power."""


class SamplingError(RislinkError, RuntimeError):
    """Rejection sampling could not place a draw within its attempt budget."""


class ConvergenceError(RislinkError, RuntimeError):
    """An iterative numerical kernel did not converge."""
