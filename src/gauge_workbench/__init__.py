"""Two-photon 1S-2S matrix elements of hydrogen in length and velocity
gauges, with closed-form evaluation, a radial-grid oracle, identity
checks, and SI Rabi-frequency conversion."""

from .closedform import (
    GaugeAmplitudes,
    RESONANCE,
    X_MAX,
    X_RESONANCE,
    gauge_pair,
    p_velocity,
    q_length,
    two_color_q,
)
from .errors import (
    CancellationWarning,
    ConvergenceError,
    DegenerateError,
    DomainError,
    NearResonanceError,
    PoleError,
)
from .identities import IdentityCheck, VerificationReport, build_report
from .oracle import RadialGrid, p_oracle, q_oracle, r2_overlap
from .rabi import (
    PhysicalConstants,
    RabiInput,
    beta,
    beta_linearized,
    beta_slope,
    load_constants,
    rabi_frequency,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationWarning",
    "ConvergenceError",
    "DegenerateError",
    "DomainError",
    "GaugeAmplitudes",
    "IdentityCheck",
    "NearResonanceError",
    "PhysicalConstants",
    "PoleError",
    "RESONANCE",
    "RabiInput",
    "RadialGrid",
    "VerificationReport",
    "X_MAX",
    "X_RESONANCE",
    "beta",
    "beta_linearized",
    "beta_slope",
    "build_report",
    "gauge_pair",
    "load_constants",
    "p_oracle",
    "p_velocity",
    "q_length",
    "q_oracle",
    "r2_overlap",
    "rabi_frequency",
    "two_color_q",
    "__version__",
]
