"""Exception types shared across the package.

The CLI's exit code follows from the base class: a ``NumericalError`` exits
3 and every other ``RrmError`` exits 2 as a configuration error.
"""


class RrmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RrmError):
    """Invalid or inconsistent configuration."""


class NumericalError(RrmError):
    """A computation produced a value it cannot go on with."""


class DimensionMismatch(RrmError):
    """Array shapes disagree with each other or with the configuration."""


class PlacementInfeasible(ConfigError):
    """Transmitter separation could not be satisfied within the attempt
    budget; usually means m is too large for the configured area."""


class ZeroChannel(NumericalError):
    """A channel entry has zero magnitude where a positive gain is required."""


class DegenerateNorm(NumericalError):
    """Edge-weight normalizer evaluated to zero."""


class NegativeDual(RrmError):
    """A dual variable is negative or not finite."""


class EmptyInput(RrmError):
    """An operation that needs at least one element received none."""


class WindowLengthMismatch(RrmError):
    """A dual-update window does not have the configured number of steps."""


class NonFiniteActivation(NumericalError):
    """The policy network produced NaN or infinity."""


class NonFiniteLoss(NumericalError):
    """Training objective or gradient became non-finite."""

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"non-finite loss at iteration {iteration}")


class UnsupportedDistribution(ConfigError):
    """Requested dual-sampling distribution is not supported."""


class SizeLimitExceeded(RrmError):
    """Operation restricted to small problem sizes was called with a large one."""


class CheckpointDimMismatch(ConfigError):
    """Checkpoint layer sizes differ from the configured ones."""
