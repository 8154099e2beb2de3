"""SI observables built on the length-gauge amplitude.

The dimensionless amplitude is turned into the two-photon excitation
coefficient beta(x) in Hz per (W/m^2), the Rabi frequency at a given laser
intensity, and the slope of beta at the two-photon resonance.
The SI prefactor is

    beta = - e^2 hbar / (alpha^4 m^3 c^5 (4 pi eps0)) * Q(x),

which is positive at resonance since Q is negative.  (Multiplying beta by
an intensity in W/m^2 yields Hz; the s^2/kg carried by the prefactor is
exactly Hz per W/m^2.)  The slope d beta/dx is the same prefactor times
-dQ/dx, which ``closedform.q_slope`` takes from the closed form by a complex
step: exact to rounding, with no step size to tune and no difference taken.

Physical constants are pinned to a named vintage in one frozen record so
every derived number can state which constants produced it.  A JSON file
(flag or GAUGE_WORKBENCH_CONSTANTS environment variable) can override any
subset of them.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property

from .closedform import X_RESONANCE, q_length, q_slope
from .errors import DomainError

ENV_CONSTANTS = "GAUGE_WORKBENCH_CONSTANTS"


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants with a provenance tag naming their vintage."""

    alpha: float = 7.2973525693e-3
    m_e: float = 9.1093837015e-31
    c: float = 299792458.0
    hbar: float = 1.054571817e-34
    e: float = 1.602176634e-19
    eps0: float = 8.8541878128e-12
    provenance_tag: str = "CODATA-2018"

    def __post_init__(self) -> None:
        if not isinstance(self.provenance_tag, str):
            raise DomainError(f"provenance_tag must be a string, got {self.provenance_tag!r}")
        for f in fields(self):
            if f.name == "provenance_tag":
                continue
            value = getattr(self, f.name)
            # bool is an int subclass, but true is no physical constant
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0.0 < value <= sys.float_info.max):
                raise DomainError(
                    f"constant {f.name} must be a positive finite number, got {value!r}")
        # each constant can be in range while the prefactor they build is not
        try:
            prefactor = self.beta_prefactor
        except ArithmeticError:
            prefactor = math.nan
        if not 0.0 < prefactor <= sys.float_info.max:
            raise DomainError("these constants give no positive finite beta prefactor "
                              "e^2 hbar / (alpha^4 m_e^3 c^5 4 pi eps0): it overflows, "
                              "underflows or divides by zero")

    @classmethod
    def from_file(cls, path: str) -> "PhysicalConstants":
        """Load overrides from a JSON object of constant-name: value pairs."""
        import json  # only a constants file needs it: the default record does not

        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DomainError(f"constants file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise DomainError(f"constants file {path} must hold a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise DomainError(f"unknown constant names in {path}: {sorted(unknown)}")
        base = cls()
        if "provenance_tag" not in raw:
            raw = dict(raw, provenance_tag=f"file:{os.path.basename(path)}")
        try:
            return replace(base, **raw)
        except DomainError as exc:
            raise DomainError(f"constants file {path}: {exc}") from exc

    @cached_property
    def beta_prefactor(self) -> float:
        """The SI factor of ``beta``, e^2 hbar / (alpha^4 m^3 c^5 (4 pi eps0))
        in s^2/kg, computed when the record is built and kept with it;
        ``replace`` and ``from_file`` build new records and so compute
        their own."""
        return (self.e**2 * self.hbar
                / (self.alpha**4 * self.m_e**3 * self.c**5 * 4.0 * math.pi * self.eps0))


DEFAULT_CONSTANTS = PhysicalConstants()


def load_constants(path: str | None = None) -> PhysicalConstants:
    """Resolve the constants record: explicit path, then the environment
    variable, then the built-in pinned defaults."""
    if path is None:
        path = os.environ.get(ENV_CONSTANTS) or None
    if path is None:
        return DEFAULT_CONSTANTS
    return PhysicalConstants.from_file(path)


def require_finite(value: float, x: float, name: str) -> float:
    """The rule for every SI output: a beta or Rabi frequency that is not
    finite is a DomainError naming x.  Q is finite on the window, but a
    constants record or an intensity can scale it past the largest double.
    Returns the value when it is finite."""
    if not -math.inf < value < math.inf:
        raise DomainError(f"{name} at photon energy fraction x = {x} is {value},"
                          " not a finite number")
    return value


def beta(x: float, k: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Two-photon excitation coefficient in Hz per (W/m^2); a DomainError
    when it is not finite."""
    value = -k.beta_prefactor * q_length(x)
    # Q < 0 on the window, so beta is positive or +inf: one comparison tests it
    if not value < math.inf:
        require_finite(value, x, "beta")
    return value


def rabi_frequency(x: float, intensity: float,
                   k: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Angular Rabi frequency 2 (2 pi beta) I_L in rad/s at an intensity I_L
    in W/m^2; linear in intensity.  A DomainError for an intensity that is
    negative or not finite, checked before x, and when the result is not
    finite."""
    if not 0.0 <= intensity < math.inf:
        raise DomainError(f"intensity must be nonnegative and finite, got {intensity}")
    return require_finite(2.0 * (2.0 * math.pi * beta(x, k)) * intensity,
                          x, "Rabi frequency")


def beta_slope(k: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """d beta / dx at the resonance, in Hz per (W/m^2); a DomainError
    naming x = 3/16 when it is not finite.

    The prefactor times -dQ/dx, with dQ/dx from the complex step of
    ``closedform.q_slope``: one evaluation of the folded Q at x + ih,
    accurate to rounding (7e-16 relative at 3/16)."""
    return require_finite(-k.beta_prefactor * q_slope(X_RESONANCE), X_RESONANCE, "beta slope")
