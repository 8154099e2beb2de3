"""Residual checks for the gauge identities, bundled into one report.

Each check evaluates an identity that must hold exactly in continuum
mathematics and records the residual at the fixed abscissas of its module
constant.  The checks of the gauge amplitudes read them from an amplitude
source, x -> (Q, P): the derived closed forms, a negative control or the
grid oracle.  ac_stark reads a sides source instead, x -> (left side,
right side) of its identity, and one_photon_ratio reads the 1S-2P
elements (m_len, m_vel, E_2P - E_1S), which involve no photon energy,
and brings in the photon energies itself.

The two profiles of build_report differ in those sources:

- "strict" reads the chosen closed-form variant, and ac_stark and
  one_photon_ratio from the Coulomb-Sturmian resolvent (sturmian.py),
  every check at TOL_CLOSED = 1e-9 (double precision with headroom).  It
  builds no grid and imports neither numpy nor scipy.  At the basis's
  LAMBDA = 1 the two Sturmian identities hold exactly in the Galerkin
  algebra, so their residuals are roundoff, not a convergence measure.
- "oracle" reads master_identity, ac_stark and one_photon_ratio from the
  radial grid (the oracle module, imported only here).  The first two are
  held to TOL_ORACLE = 1e-6 (grid truncation), one_photon_ratio to
  TOL_ONE_PHOTON = 1e-8: both of its elements and the level gap come from
  the same grid states, so truncation largely cancels.

All inputs are fixed tuples, so repeated runs produce bit-identical
residual lists.  Every check records which source it read.

The report also compares a handful of headline constants against their
externally published values, with the provenance of each reference noted.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

from . import sturmian
from .closedform import (
    DELTA_SLOPE,
    X_MAX,
    X_RESONANCE,
    AmplitudeSource,
    GaugeAmplitudes,
    derived_pair,
    source_named,
    two_color_combination,
)
from .errors import DomainError
from .rabi import DEFAULT_CONSTANTS, PhysicalConstants, beta, beta_slope

if TYPE_CHECKING:
    from .oracle import RadialGrid

TOL_CLOSED = 1e-9
TOL_ORACLE = 1e-6
TOL_ONE_PHOTON = 1e-8

# x -> (left side, right side) of one identity; exact algebra makes them equal
SidesSource = Callable[[float], tuple[float, float]]

# <2S| r^2 |1S> in units of the squared Bohr radius.
R2_OVERLAP_EXACT = -512.0 * math.sqrt(2.0) / 243.0

CHECK_NAMES = (
    "master_identity",
    "resonance_pq",
    "ac_stark",
    "two_color",
    "delta_linear",
    "one_photon_ratio",
)

MASTER_GRID = tuple(0.02 + i * (0.34 / 19.0) for i in range(20))
DELTA_GRID = tuple(0.01 + i * (0.36 / 199.0) for i in range(200))
AC_STARK_POINTS = (0.001, 0.05, 0.10, 0.15)
TWO_COLOR_POINTS = (0.35, X_RESONANCE, 0.30)
ONE_PHOTON_OMEGAS = (0.10, 0.20, 0.30)


@dataclass(frozen=True)
class IdentityCheck:
    """Residuals of one identity over a list of abscissas.

    For one_photon_ratio the abscissas are photon energies in atomic
    units rather than energy fractions; everything else uses x.  source
    names what the residuals were computed from: "closed_form",
    "sturmian" or "grid"."""

    name: str
    x_values: tuple[float, ...]
    residuals: tuple[float, ...]
    tolerance: float
    passed: bool
    source: str = "closed_form"

    def __post_init__(self) -> None:
        if len(self.x_values) != len(self.residuals):
            raise ValueError("x_values and residuals must have equal length")

    @property
    def max_residual(self) -> float:
        return _worst(self.residuals)


def _worst(residuals: tuple[float, ...]) -> float:
    """Largest |r|, or NaN if any residual is NaN; max() alone keeps a
    NaN only when it comes first."""
    sizes = [abs(r) for r in residuals]
    return math.nan if any(math.isnan(a) for a in sizes) else max(sizes)


def _make_check(name: str, xs: tuple[float, ...],
                residuals: tuple[float, ...], tol: float) -> IdentityCheck:
    # NaN <= tol is false, so a NaN residual fails the check
    passed = _worst(residuals) <= tol
    return IdentityCheck(name, xs, residuals, tol, passed)


@dataclass(frozen=True)
class ConstantComparison:
    """One computed headline number against its published reference."""

    name: str
    computed: float
    reference: float
    relative_error: float
    rel_tolerance: float
    provenance: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[IdentityCheck, ...]
    constants: tuple[ConstantComparison, ...]
    overall_pass: bool


def _master_residual(x: float, q: float, p: float, r2: float) -> float:
    return p - ((X_MAX - x) * (-x) * q + (x - X_RESONANCE) * r2 / 3.0)


def check_master_identity(source: AmplitudeSource = derived_pair,
                          r2: float = R2_OVERLAP_EXACT,
                          tol: float = TOL_CLOSED) -> IdentityCheck:
    """Velocity amplitude against the length amplitude plus the r^2 shift.

    The correction term vanishes at the resonance and is linear in x, so
    this single relation subsumes both the resonance equality and the
    linear gauge-difference law.  r2 is <2S| r^2 |1S> from the same
    evaluation as the source: exact for closed forms, the grid quadrature
    for the oracle."""
    residuals = tuple(_master_residual(x, *source(x), r2) for x in MASTER_GRID)
    return _make_check("master_identity", MASTER_GRID, residuals, tol)


def check_resonance_pq(source: AmplitudeSource = derived_pair) -> IdentityCheck:
    """P = -(3/16)^2 Q at the two-photon resonance."""
    x = X_RESONANCE
    q, p = source(x)
    residual = p + (3.0 / 16.0) ** 2 * q
    return _make_check("resonance_pq", (x,), (residual,), TOL_CLOSED)


def check_ac_stark(sides: SidesSource = sturmian.ac_stark_sides,
                   tol: float = TOL_CLOSED) -> IdentityCheck:
    """Velocity-form ac-Stark response of 1S against the x^2-weighted
    length form: the Sturmian resolvent by default, the grid through
    ``partial(oracle.ac_stark_sides, grid)``."""
    residuals = tuple(lhs - rhs for lhs, rhs in map(sides, AC_STARK_POINTS))
    return _make_check("ac_stark", AC_STARK_POINTS, residuals, tol)


def check_two_color(source: AmplitudeSource = derived_pair) -> IdentityCheck:
    """P(x1) + P(x2) = -x1 x2 [Q(x1) + Q(x2)] for x2 = 3/8 - x1."""
    residuals = []
    for x1 in TWO_COLOR_POINTS:
        x2 = X_MAX - x1
        (q1, p1), (q2, p2) = source(x1), source(x2)
        residuals.append((p1 + p2) + x1 * x2 * (q1 + q2))
    return _make_check("two_color", TWO_COLOR_POINTS, tuple(residuals), TOL_CLOSED)


def check_delta_linear(source: AmplitudeSource = derived_pair) -> IdentityCheck:
    """f1 - f2 against the exact straight line through the resonance."""
    residuals = tuple(
        GaugeAmplitudes.at(x, source).delta - DELTA_SLOPE * (x - X_RESONANCE)
        for x in DELTA_GRID
    )
    return _make_check("delta_linear", DELTA_GRID, residuals, TOL_CLOSED)


def check_one_photon(elements: tuple[float, float, float] | None = None,
                     tol: float = TOL_CLOSED) -> IdentityCheck:
    """Velocity over length 1S-2P dipole element against (E_2P - E_1S)/omega.

    elements is (m_len, m_vel, E_2P - E_1S) from one source: the Sturmian
    basis when None, or ``oracle.one_photon_elements(grid)``.  Both matrix
    elements and the gap come from the same states, so the residual
    isolates the gauge relation from the source's own truncation error.
    The two i factors of the momentum operator make the physical ratio
    -m_vel / (omega m_len); it equals 1 only at omega = E_2P - E_1S."""
    m_len, m_vel, gap = sturmian.one_photon_elements() if elements is None else elements
    residuals = tuple(-m_vel / (omega * m_len) - gap / omega for omega in ONE_PHOTON_OMEGAS)
    return _make_check("one_photon_ratio", ONE_PHOTON_OMEGAS, residuals, tol)


def _compare(name: str, computed: float, reference: float,
             rel_tol: float, provenance: str) -> ConstantComparison:
    rel = abs(computed - reference) / abs(reference)
    return ConstantComparison(name, computed, reference, rel, rel_tol,
                              provenance, rel <= rel_tol)


def constants_table(source: AmplitudeSource = derived_pair,
                    constants: PhysicalConstants = DEFAULT_CONSTANTS,
                    ) -> tuple[ConstantComparison, ...]:
    """Headline numbers against their published references.

    The dimensionless entries read Q from the source and carry reference
    values quoted to ten significant digits; the SI entries are built on
    the derived Q and depend on the constants vintage, so their tolerance
    is looser."""
    def q(x: float) -> float:
        return source(x)[0]

    return (
        _compare("resonance_q", q(X_RESONANCE),
                 -7.853655422, 1.5e-9, "published"),
        _compare("two_color_q", two_color_combination(0.35, q),
                 -62.659473633, 2e-10, "published"),
        _compare("beta_resonance", beta(X_RESONANCE, constants),
                 3.68111e-5, 1e-3, "published"),
        _compare("beta_slope", beta_slope(constants),
                 2.32293e-4, 1e-3, "published"),
    )


def build_report(profile: str = "strict",
                 grid: RadialGrid | None = None,
                 variant: str = "derived",
                 constants: PhysicalConstants = DEFAULT_CONSTANTS,
                 ) -> VerificationReport:
    """Run all six identity checks and the constants table.

    variant names the closed-form source in ``closedform.SOURCES``.
    profile "strict" reads that source and the Sturmian resolvent, all at
    1e-9, and takes no grid.  Profile "oracle" recomputes master_identity,
    ac_stark and one_photon_ratio on the radial grid (RadialGrid() unless
    grid is given) at their grid tolerances; the other checks still read
    the closed-form source."""
    if profile not in ("strict", "oracle"):
        raise DomainError(f"unknown profile {profile!r}")
    source = source_named(variant)
    if profile == "oracle":
        # numpy and scipy load here, so a strict report runs on the stdlib
        from . import oracle

        grid = oracle.RadialGrid() if grid is None else grid
        master = replace(check_master_identity(partial(oracle.gauge_pair_oracle, grid),
                                               oracle.r2_overlap(grid), TOL_ORACLE),
                         source="grid")
        ac_stark = replace(check_ac_stark(partial(oracle.ac_stark_sides, grid), TOL_ORACLE),
                           source="grid")
        one_photon = replace(check_one_photon(oracle.one_photon_elements(grid),
                                              TOL_ONE_PHOTON), source="grid")
    else:
        if grid is not None:
            raise DomainError("a grid applies to profile 'oracle' only")
        master = check_master_identity(source)
        ac_stark = replace(check_ac_stark(), source="sturmian")
        one_photon = replace(check_one_photon(), source="sturmian")
    checks = (
        master,
        check_resonance_pq(source),
        ac_stark,
        check_two_color(source),
        check_delta_linear(source),
        one_photon,
    )
    consts = constants_table(source, constants)
    overall = all(c.passed for c in checks) and all(c.passed for c in consts)
    return VerificationReport(checks, consts, overall)
