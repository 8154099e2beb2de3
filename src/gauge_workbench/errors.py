"""Exception types shared across the package.

The hierarchy separates two failure families: arguments outside the
supported mathematical domain (DomainError and its PoleError refinement),
and grid solves that miss their targets (ConvergenceError).  Two
ConvergenceError subclasses are guards raised before any solve:
NearResonanceError for a resolvent energy too close to a level, and
DegenerateError for a ratio asked for where it is trivially 1.
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
