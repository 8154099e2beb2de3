"""Residual checks for the gauge identities, bundled into one report.

Each check evaluates an identity that must hold exactly in continuum
mathematics and records the residual at a list of abscissas.  Closed-form
checks are held to 1e-9 (double precision with headroom); checks that go
through the radial grid are held to 1e-6 (grid truncation).  All inputs
are fixed tuples, so repeated runs produce bit-identical residual lists.

The report also compares a handful of headline constants against their
externally published values, with the provenance of each reference noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closedform import (
    DELTA_SLOPE,
    X_MAX,
    X_RESONANCE,
    gauge_pair,
    p_velocity,
    q_length,
    two_color_q,
)
from .errors import DomainError
from .oracle import (
    RadialGrid,
    ac_stark_sides,
    build_oracle,
    check_one_photon_ratio,
    gauge_pair_oracle,
    r2_overlap,
)
from .rabi import DEFAULT_CONSTANTS, PhysicalConstants, beta, beta_slope

TOL_CLOSED = 1e-9
TOL_ORACLE = 1e-6
TOL_ONE_PHOTON = 1e-8

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
    units rather than energy fractions; everything else uses x."""

    name: str
    x_values: tuple[float, ...]
    residuals: tuple[float, ...]
    tolerance: float
    passed: bool

    def __post_init__(self) -> None:
        if len(self.x_values) != len(self.residuals):
            raise ValueError("x_values and residuals must have equal length")

    @property
    def max_residual(self) -> float:
        return max(abs(r) for r in self.residuals)


def _make_check(name: str, xs: tuple[float, ...],
                residuals: tuple[float, ...], tol: float) -> IdentityCheck:
    passed = max(abs(r) for r in residuals) <= tol
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


def check_master_identity(xs: tuple[float, ...] = MASTER_GRID,
                          use_oracle: bool = False,
                          grid: RadialGrid | None = None,
                          variant: str = "derived") -> IdentityCheck:
    """Velocity amplitude against the length amplitude plus the r^2 shift.

    The correction term vanishes at the resonance and is linear in x, so
    this single relation subsumes both the resonance equality and the
    linear gauge-difference law."""
    if use_oracle:
        grid = grid if grid is not None else RadialGrid()
        r2 = r2_overlap(grid)
        residuals = tuple(
            _master_residual(x, *gauge_pair_oracle(grid, x), r2)
            for x in xs
        )
        tol = TOL_ORACLE
    else:
        r2 = R2_OVERLAP_EXACT
        residuals = tuple(
            _master_residual(x, q_length(x, variant), p_velocity(x, variant), r2)
            for x in xs
        )
        tol = TOL_CLOSED
    return _make_check("master_identity", tuple(xs), residuals, tol)


def check_resonance_pq(variant: str = "derived") -> IdentityCheck:
    """P = -(3/16)^2 Q at the two-photon resonance, from closed forms."""
    x = X_RESONANCE
    residual = p_velocity(x, variant) + (3.0 / 16.0) ** 2 * q_length(x, variant)
    return _make_check("resonance_pq", (x,), (residual,), TOL_CLOSED)


def check_ac_stark(xs: tuple[float, ...] = AC_STARK_POINTS,
                   grid: RadialGrid | None = None) -> IdentityCheck:
    """Velocity-form ac-Stark response of 1S against the x^2-weighted
    length form, evaluated on the radial grid."""
    grid = grid if grid is not None else RadialGrid()
    residuals = []
    for x in xs:
        lhs, rhs = ac_stark_sides(grid, x)
        residuals.append(lhs - rhs)
    return _make_check("ac_stark", tuple(xs), tuple(residuals), TOL_ORACLE)


def check_two_color(x1s: tuple[float, ...] = TWO_COLOR_POINTS,
                    variant: str = "derived") -> IdentityCheck:
    """P(x1) + P(x2) = -x1 x2 [Q(x1) + Q(x2)] for x2 = 3/8 - x1."""
    residuals = []
    for x1 in x1s:
        x2 = X_MAX - x1
        q_sum = q_length(x1, variant) + q_length(x2, variant)
        p_sum = p_velocity(x1, variant) + p_velocity(x2, variant)
        residuals.append(p_sum + x1 * x2 * q_sum)
    return _make_check("two_color", tuple(x1s), tuple(residuals), TOL_CLOSED)


def check_delta_linear(xs: tuple[float, ...] = DELTA_GRID,
                       variant: str = "derived") -> IdentityCheck:
    """f1 - f2 against the exact straight line through the resonance."""
    residuals = tuple(
        gauge_pair(x, variant).delta - DELTA_SLOPE * (x - X_RESONANCE)
        for x in xs
    )
    return _make_check("delta_linear", tuple(xs), residuals, TOL_CLOSED)


def check_one_photon(omegas: tuple[float, ...] = ONE_PHOTON_OMEGAS,
                     grid: RadialGrid | None = None) -> IdentityCheck:
    """Velocity over length 1S-2P dipole element against (E_f - E_i)/omega.

    Both matrix elements and the energies come from the same grid, so the
    residual isolates the gauge relation from discretization error."""
    grid = grid if grid is not None else RadialGrid()
    state = build_oracle(grid)
    gap = state.s2p.energy - state.s1.energy
    residuals = tuple(
        check_one_photon_ratio(grid, omega) - gap / omega
        for omega in omegas
    )
    return _make_check("one_photon_ratio", tuple(omegas), residuals,
                       TOL_ONE_PHOTON)


def _compare(name: str, computed: float, reference: float,
             rel_tol: float, provenance: str) -> ConstantComparison:
    rel = abs(computed - reference) / abs(reference)
    return ConstantComparison(name, computed, reference, rel, rel_tol,
                              provenance, rel <= rel_tol)


def constants_table(variant: str = "derived",
                    constants: PhysicalConstants = DEFAULT_CONSTANTS,
                    ) -> tuple[ConstantComparison, ...]:
    """Headline numbers against their published references.

    The dimensionless entries carry reference values quoted to ten
    significant digits; the SI entries depend on the constants vintage,
    so their tolerance is looser."""
    return (
        _compare("resonance_q", q_length(X_RESONANCE, variant),
                 -7.853655422, 1.5e-9, "published"),
        _compare("two_color_q", two_color_q(0.35, variant),
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

    profile selects the source of the master-identity residuals: "strict"
    uses the closed forms at 1e-9, "oracle" recomputes both amplitudes on
    the radial grid at 1e-6.  The grid-backed checks (ac_stark,
    one_photon_ratio) always use the oracle since no closed form exists
    for them here."""
    if profile not in ("strict", "oracle"):
        raise DomainError(f"unknown profile {profile!r}")
    grid = grid if grid is not None else RadialGrid()
    checks = (
        check_master_identity(use_oracle=(profile == "oracle"),
                              grid=grid, variant=variant),
        check_resonance_pq(variant),
        check_ac_stark(grid=grid),
        check_two_color(variant=variant),
        check_delta_linear(variant=variant),
        check_one_photon(grid=grid),
    )
    consts = constants_table(variant, constants)
    overall = all(c.passed for c in checks) and all(c.passed for c in consts)
    return VerificationReport(checks, consts, overall)
