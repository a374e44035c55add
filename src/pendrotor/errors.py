"""Exception types raised by the library."""

from __future__ import annotations


class PendrotorError(Exception):
    """Base class for all library errors."""


class ConfigError(PendrotorError):
    """Invalid parameters or run configuration."""


class PoleAtOne(PendrotorError):
    """alpha evaluated too close to its pole at I = 1 (vertical-crest regime)."""


class PoleAtOneOverR(PoleAtOne):
    """alpha_r evaluated too close to its pole at I = 1/r."""


class OutOfDomain(PendrotorError):
    """Requested crest parameterization does not cover this angle."""


class NoSolutionInWindow(PendrotorError):
    """A threshold equation has no root in the analysis window.

    Carries the asymptotic level that the curve approaches instead.
    """

    def __init__(self, message: str, asymptote: float | None = None):
        super().__init__(message)
        self.asymptote = asymptote


class SingularCrest(PendrotorError):
    """|mu * alpha(I)| is within tolerance of 1: bifurcating straight-line crests."""


class TangencyDegenerate(PendrotorError):
    """No transversal crest crossing: the critical point is degenerate."""


class UnreachableBranch(PendrotorError):
    """Requested crest branch is not crossed within the tau search window."""


class QuadratureNotConverged(PendrotorError):
    """The splitting-integral quadrature did not settle to its target."""


class StepFailure(PendrotorError):
    """ODE step size collapsed below the representable minimum."""


class OnDiscontinuity(PendrotorError):
    """theta lies on a discontinuity line of the piecewise global map."""


class WindowEmpty(PendrotorError):
    """The drift window (rho, theta_plus) is empty at some traversed action."""


class StuckAtResonance(PendrotorError):
    """No admissible inner-flow return was found within the time budget."""
