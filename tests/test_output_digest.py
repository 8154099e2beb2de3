"""Bit-for-bit pin of every closed-form output.

One SHA-256 digest covers Q, P, the gauge comparison, the two-color
combination, beta under two constants records, the complex-step slopes and
both negative-control sources over a dense x grid.  A rewrite of the
closed-form path that keeps its floating-point operations and their order
keeps this digest; any change of rounding anywhere on the grid moves it.
The module needs no numpy, so the stdlib-floor CI job holds 3.10, 3.12 and
3.13 to the same digest.
"""

import hashlib
import struct
from dataclasses import replace

from gauge_workbench.closedform import (
    SOURCES,
    derived_pair,
    gauge_pair,
    p_velocity,
    q_length,
    q_slope,
    two_color_q,
)
from gauge_workbench.rabi import DEFAULT_CONSTANTS, beta, beta_slope

GRID_POINTS = 20_000
X_LO, X_HI = 1e-4, 0.3749
SLOPE_XS = (1e-8, 0.01, 0.1, 0.1875, 0.25, 0.3, 0.37, 0.3749)

# A record other than the default, so beta is pinned for a second prefactor.
OTHER_CONSTANTS = replace(DEFAULT_CONSTANTS, alpha=7.3e-3, hbar=1.05e-34)

# SHA-256 of the values below, packed as little-endian doubles.  Only a
# change of the arithmetic itself may move it.
EXPECTED_DIGEST = "183bbd85cf2b61c4672523c88d46e02192928ae6c9d93d15a3759c22026d433a"


def grid_xs() -> list[float]:
    """The dense x grid of the digest."""
    return [X_LO + (X_HI - X_LO) * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]


def _outputs():
    alt_a, alt_b = SOURCES["alt-a"], SOURCES["alt-b"]
    for x in grid_xs():
        g = gauge_pair(x)
        yield from (g.x, g.q, g.p, g.f1, g.f2, g.delta)
        yield from derived_pair(x)
        yield q_length(x)
        yield p_velocity(x)
        if x <= 0.3:
            yield two_color_q(x)
        yield beta(x)
        yield beta(x, OTHER_CONSTANTS)
        yield from alt_a(x)
        yield from alt_b(x)
    for x in SLOPE_XS:
        yield q_slope(x)
    yield beta_slope()
    yield beta_slope(OTHER_CONSTANTS)


def output_digest() -> str:
    h = hashlib.sha256()
    for value in _outputs():
        h.update(struct.pack("<d", value))
    return h.hexdigest()


def test_closed_form_outputs_are_bit_identical():
    assert output_digest() == EXPECTED_DIGEST
