"""Exception types shared across the package.

The hierarchy separates two failure families: arguments outside the
supported mathematical domain (DomainError and its PoleError refinement),
and grid solves that miss their targets (ConvergenceError).  One
ConvergenceError subclass is a guard raised before any solve:
NearResonanceError, for a resolvent energy too close to a level.
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

