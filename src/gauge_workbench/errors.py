"""Exception and warning types shared across the package.

The hierarchy separates three failure families: arguments outside the
supported mathematical domain (DomainError and its PoleError refinement),
iterative procedures that fail to converge (ConvergenceError,
NearResonanceError, DegenerateError), and loss-of-precision conditions that
are survivable but worth surfacing (CancellationWarning).
"""

from __future__ import annotations


class DomainError(ValueError):
    """Argument lies outside the mathematically supported domain."""


class PoleError(DomainError):
    """A series parameter sits within machine distance of a pole."""


class ConvergenceError(RuntimeError):
    """A grid eigensolve or linear solve missed its residual target."""


class NearResonanceError(ConvergenceError):
    """The resolvent energy is too close to a discrete level for a
    well-conditioned solve."""


class DegenerateError(ConvergenceError):
    """A ratio check was requested at the exact degeneracy where it
    becomes trivial (the limiting value is 1)."""


class CancellationWarning(UserWarning):
    """Evaluation entered a guard band where a naive formula would lose
    precision; a cancellation-free path was used instead."""
