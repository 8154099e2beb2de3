"""Two-photon 1S-2S matrix elements of hydrogen in length and velocity
gauges, with closed-form evaluation, a radial-grid oracle, identity
checks, and SI Rabi-frequency conversion."""

from .closedform import (
    GaugeAmplitudes,
    X_MAX,
    X_RESONANCE,
    gauge_pair,
    p_velocity,
    q_length,
    two_color_q,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NearResonanceError,
    PoleError,
)
from .rabi import (
    PhysicalConstants,
    beta,
    beta_slope,
    load_constants,
    rabi_frequency,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "GaugeAmplitudes",
    "NearResonanceError",
    "PhysicalConstants",
    "PoleError",
    "X_MAX",
    "X_RESONANCE",
    "beta",
    "beta_slope",
    "gauge_pair",
    "load_constants",
    "p_velocity",
    "q_length",
    "rabi_frequency",
    "two_color_q",
    "__version__",
]
