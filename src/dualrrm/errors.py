"""Exception types shared across the package."""


class RrmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RrmError):
    """Invalid or inconsistent configuration."""


class DimensionMismatch(RrmError):
    """Array shapes disagree with each other or with the configuration."""


class PlacementInfeasible(RrmError):
    """Transmitter separation could not be satisfied within the attempt
    budget; usually means m is too large for the configured area."""


class ZeroChannel(RrmError):
    """A channel entry has zero magnitude where a positive gain is required."""


class DegenerateNorm(RrmError):
    """Edge-weight normalizer evaluated to zero."""


class NegativeDual(RrmError):
    """A dual variable is negative or not finite."""


class EmptyInput(RrmError):
    """An operation that needs at least one element received none."""


class WindowLengthMismatch(RrmError):
    """A dual-update window does not have the configured number of steps."""


class NonFiniteActivation(RrmError):
    """The policy network produced NaN or infinity."""


class NonFiniteLoss(RrmError):
    """Training objective or gradient became non-finite."""

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"non-finite loss at iteration {iteration}")


class UnsupportedDistribution(RrmError):
    """Requested dual-sampling distribution is not supported."""


class SizeLimitExceeded(RrmError):
    """Operation restricted to small problem sizes was called with a large one."""


class CheckpointDimMismatch(RrmError):
    """Checkpoint layer sizes differ from the configured ones."""
