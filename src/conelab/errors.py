"""Shared exception types.

All errors raised by conelab are ValueError/RuntimeError subclasses so that
callers who do not care about the fine-grained taxonomy can catch the
builtin bases.
"""


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class SingularMetricError(ValueError):
    """Metric not invertible (or not positive definite) at a node."""


class DegenerateLevelSetError(ValueError):
    """Level function has vanishing gradient at the requested node."""


class BoundaryMarginError(DomainError):
    """Grid node too close to the chart boundary for the stencil."""


class OutOfBandError(DomainError):
    """Spectral parameter outside the admissible working band."""


class ComplexIndicialError(ValueError):
    """Indicial quadratic has complex roots.

    Carries ``lambda_max``, the largest parameter with real roots.
    """

    def __init__(self, msg, lambda_max=None):
        super().__init__(msg)
        self.lambda_max = lambda_max


class BallTooLargeError(ValueError):
    """Window longer than every sweep window, which the window solve does not resolve."""


class NotSupersolutionError(ValueError):
    """Profile failed the supersolution comparison test."""


class NoCreaseError(ValueError):
    """Crease smoothing requested where no transversal crossing exists."""


class ParameterError(ValueError):
    """Construction parameters inconsistent (e.g. cutoff too weak)."""


class ResolutionError(ValueError):
    """Requested invariants cannot be certified at the sample resolution."""


class ConvergenceError(RuntimeError):
    """Iterative scheme failed to converge within its budget."""


class IterationLimitError(ConvergenceError):
    """Sweep/iteration budget exhausted before the tolerance was met."""


class DivergentDistanceError(DomainError):
    """Conformal factor not integrable down to the tip."""


class NoBarrierError(ValueError):
    """No mean-curvature sign change found in the search window."""


class SingularPointError(ValueError):
    """Evaluation requested on a singular axis/point."""


class ResampleError(RuntimeError):
    """Sampling grid hit a singular locus; caller should re-seed."""


class BoundExceededError(ValueError):
    """Family-count bound exceeded; carries the witness configuration."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class DataIntegrityError(ValueError):
    """Cross-referenced records do not match (e.g. unmatched radius)."""


class ConfigError(ValueError):
    """Malformed scenario/configuration input."""


class CertificateError(RuntimeError):
    """A computed result failed the independent check that certifies it."""
