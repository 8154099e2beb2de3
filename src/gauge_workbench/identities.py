"""Residual checks for the gauge identities, bundled into one report.

Each check evaluates an identity that must hold exactly in continuum
mathematics and records the residual at the fixed abscissas of its module
constant.  A check takes one argument, a Source: one evidence source with
its name, its tolerance and the inputs it provides, each None where it
provides none:

- ``pair``, x -> (Q, P), with ``r2`` = <2S| r^2 |1S> from the same
  evaluation (master_identity, resonance_pq, two_color, delta_linear);
- ``diagonal``, signed x -> 1S elements (<r G r>, <v G v>) at E_1S + x,
  with the source's ``norm_1s`` = <1S|1S> (ac_stark);
- ``one_photon``, () -> the 1S-2P elements (m_len, m_vel, E_2P - E_1S),
  which involve no photon energy; the check brings in the photon
  energies itself (one_photon_ratio).

Every check records ``source.name`` and ``source.tolerance``, except that
one_photon_ratio holds a grid to TOL_ONE_PHOTON = 1e-8: both of its
elements and the level gap come from the same states, so truncation
largely cancels.  The three sources:

- ``closed_form_source(variant)``: the amplitudes of a closed-form variant
  and the exact r^2, at TOL_CLOSED = 1e-9 (double precision with headroom).
- ``BASIS``: the Coulomb-Sturmian resolvent (sturmian.py), its diagonal
  and one-photon reads, at TOL_CLOSED.  At the basis's LAMBDA = 1 both of
  its identities hold exactly in the Galerkin algebra, so their residuals
  are roundoff, not a convergence measure.
- ``grid_source(grid)``: every input from the radial grid (the oracle
  module, imported only there), at TOL_ORACLE = 1e-6 (grid truncation).

build_report reads the closed forms in both profiles and picks the
numerical source: the basis for "strict", which builds no grid and imports
neither numpy nor scipy, or the grid for "oracle".  All inputs are fixed
tuples, so repeated runs produce bit-identical residual lists.

The report also compares a handful of headline constants against their
externally published values, with the provenance of each reference noted.

Every verdict is derived from the record that carries it, so no record
can contradict its own evidence: a check passes when its largest
|residual| is at most its tolerance (a NaN residual fails), a constant
when its relative error is at most its tolerance, and the report when
every row passes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from . import sturmian
from .closedform import (
    DELTA_SLOPE,
    SOURCES,
    X_MAX,
    X_RESONANCE,
    AmplitudeSource,
    two_color_combination,
)
from .errors import DomainError
from .rabi import DEFAULT_CONSTANTS, PhysicalConstants, beta, beta_slope

if TYPE_CHECKING:
    from .oracle import RadialGrid

TOL_CLOSED = 1e-9
TOL_ORACLE = 1e-6
TOL_ONE_PHOTON = 1e-8

# <2S| r^2 |1S> in units of the squared Bohr radius.
R2_OVERLAP_EXACT = -512.0 * math.sqrt(2.0) / 243.0

MASTER_GRID = tuple(0.02 + i * (0.34 / 19.0) for i in range(20))
DELTA_GRID = tuple(0.01 + i * (0.36 / 199.0) for i in range(200))
AC_STARK_POINTS = (0.001, 0.05, 0.10, 0.15)
TWO_COLOR_POINTS = (0.35, X_RESONANCE, 0.30)
ONE_PHOTON_OMEGAS = (0.10, 0.20, 0.30)


@dataclass(frozen=True)
class Source:
    """One evidence source: its name, the tolerance its checks are held
    to, and the inputs it provides (None for an input it does not)."""

    name: str
    tolerance: float
    pair: AmplitudeSource | None = None
    r2: float | None = None
    diagonal: Callable[[float], tuple[float, float]] | None = None
    norm_1s: float | None = None
    one_photon: Callable[[], tuple[float, float, float]] | None = None


def closed_form_source(variant: str = "derived") -> Source:
    """The closed-form amplitudes ``closedform.SOURCES[variant]`` with the
    exact <2S| r^2 |1S>; DomainError for an unknown variant."""
    if variant not in SOURCES:
        raise DomainError(f"unknown formula variant {variant!r}; choose from {tuple(SOURCES)}")
    return Source("closed_form", TOL_CLOSED, pair=SOURCES[variant], r2=R2_OVERLAP_EXACT)


BASIS = Source("sturmian", TOL_CLOSED, diagonal=sturmian.diagonal_elements,
               norm_1s=sturmian.NORM_1S, one_photon=sturmian.one_photon_elements)


def grid_source(grid: RadialGrid | None = None) -> Source:
    """Every input from the radial grid (RadialGrid() when None), with r2
    and norm_1s by the grid's own quadrature.  Builds the grid's state
    (cached per grid); the first call loads numpy and scipy."""
    from . import oracle

    grid = oracle.RadialGrid() if grid is None else grid
    return Source("grid", TOL_ORACLE,
                  pair=partial(oracle.gauge_pair_oracle, grid), r2=oracle.r2_overlap(grid),
                  diagonal=partial(oracle.diagonal_elements, grid), norm_1s=oracle.norm_1s(grid),
                  one_photon=partial(oracle.one_photon_elements, grid))


def _input(source: Source, field: str):
    """The source's input ``field``; ValueError if the source lacks it."""
    value = getattr(source, field)
    if value is None:
        raise ValueError(f"source {source.name!r} provides no {field}")
    return value


@dataclass(frozen=True)
class IdentityCheck:
    """Residuals of one identity over a list of abscissas.

    For one_photon_ratio the abscissas are photon energies in atomic
    units rather than energy fractions; everything else uses x.  source
    names the Source the residuals were computed from: "closed_form",
    "sturmian" or "grid"."""

    name: str
    x_values: tuple[float, ...]
    residuals: tuple[float, ...]
    tolerance: float
    source: str

    def __post_init__(self) -> None:
        if len(self.x_values) != len(self.residuals):
            raise ValueError("x_values and residuals must have equal length")

    @property
    def max_residual(self) -> float:
        """Largest |r|, or NaN if any residual is NaN; max() alone keeps a
        NaN only when it comes first."""
        sizes = [abs(r) for r in self.residuals]
        return math.nan if any(math.isnan(a) for a in sizes) else max(sizes)

    @property
    def passed(self) -> bool:
        # NaN <= tolerance is false, so a NaN residual fails the check
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class ConstantComparison:
    """One computed headline number against its published reference."""

    name: str
    computed: float
    reference: float
    rel_tolerance: float
    provenance: str

    @property
    def relative_error(self) -> float:
        return abs(self.computed - self.reference) / abs(self.reference)

    @property
    def passed(self) -> bool:
        return self.relative_error <= self.rel_tolerance


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[IdentityCheck, ...]
    constants: tuple[ConstantComparison, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks + self.constants)


def _master_residual(x: float, q: float, p: float, r2: float) -> float:
    return p - ((X_MAX - x) * (-x) * q + (x - X_RESONANCE) * r2 / 3.0)


def check_master_identity(source: Source) -> IdentityCheck:
    """Velocity amplitude against the length amplitude plus the r^2 shift.

    The correction term vanishes at the resonance and is linear in x, so
    this single relation subsumes both the resonance equality and the
    linear gauge-difference law.  It reads the source's pair and its r2."""
    pair, r2 = _input(source, "pair"), _input(source, "r2")
    residuals = tuple(_master_residual(x, *pair(x), r2) for x in MASTER_GRID)
    return IdentityCheck("master_identity", MASTER_GRID, residuals, source.tolerance, source.name)


def check_resonance_pq(source: Source) -> IdentityCheck:
    """P = -(3/16)^2 Q at the two-photon resonance."""
    x = X_RESONANCE
    q, p = _input(source, "pair")(x)
    residual = p + (3.0 / 16.0) ** 2 * q
    return IdentityCheck("resonance_pq", (x,), (residual,), source.tolerance, source.name)


def check_ac_stark(source: Source) -> IdentityCheck:
    """The (1S, 1S) case of the master identity summed over +-x, where its
    linear term cancels: velocity-form ac-Stark response minus 3 <1S|1S>
    against x^2 times the length form, from the source's diagonal and
    norm_1s."""
    diagonal, norm_1s = _input(source, "diagonal"), _input(source, "norm_1s")
    residuals = []
    for x in AC_STARK_POINTS:
        (len_up, vel_up), (len_down, vel_down) = diagonal(x), diagonal(-x)
        residuals.append(-3.0 * norm_1s + vel_up + vel_down - x * x * (len_up + len_down))
    return IdentityCheck("ac_stark", AC_STARK_POINTS, tuple(residuals), source.tolerance,
                         source.name)


def check_two_color(source: Source) -> IdentityCheck:
    """P(x1) + P(x2) = -x1 x2 [Q(x1) + Q(x2)] for x2 = 3/8 - x1."""
    pair = _input(source, "pair")
    residuals = []
    for x1 in TWO_COLOR_POINTS:
        x2 = X_MAX - x1
        (q1, p1), (q2, p2) = pair(x1), pair(x2)
        residuals.append((p1 + p2) + x1 * x2 * (q1 + q2))
    return IdentityCheck("two_color", TWO_COLOR_POINTS, tuple(residuals), source.tolerance,
                         source.name)


def check_delta_linear(source: Source) -> IdentityCheck:
    """f1 - f2 against the exact straight line through the resonance."""
    pair = _input(source, "pair")
    residuals = []
    for x in DELTA_GRID:
        q, p = pair(x)
        # delta = f1 - f2 in the operations of gauge_pair, without
        # building the record
        residuals.append(p - (X_MAX - x) * (-x) * q - DELTA_SLOPE * (x - X_RESONANCE))
    return IdentityCheck("delta_linear", DELTA_GRID, tuple(residuals), source.tolerance,
                         source.name)


def check_one_photon(source: Source) -> IdentityCheck:
    """Velocity over length 1S-2P dipole element against (E_2P - E_1S)/omega.

    The source's one_photon gives (m_len, m_vel, E_2P - E_1S).  Both
    matrix elements and the gap come from the same states, so the residual
    isolates the gauge relation from the source's own truncation error and
    is held to at most TOL_ONE_PHOTON.  The two i factors of the momentum
    operator make the physical ratio -m_vel / (omega m_len); it equals 1
    only at omega = E_2P - E_1S."""
    m_len, m_vel, gap = _input(source, "one_photon")()
    residuals = tuple(-m_vel / (omega * m_len) - gap / omega for omega in ONE_PHOTON_OMEGAS)
    return IdentityCheck("one_photon_ratio", ONE_PHOTON_OMEGAS, residuals,
                         min(source.tolerance, TOL_ONE_PHOTON), source.name)


def constants_table(source: Source,
                    constants: PhysicalConstants) -> tuple[ConstantComparison, ...]:
    """Headline numbers against their published references.

    The dimensionless entries read Q from the source's pair and carry
    reference values quoted to ten significant digits; the SI entries are
    built on the derived Q and depend on the constants vintage, so their
    tolerance is looser."""
    pair = _input(source, "pair")

    def q(x: float) -> float:
        return pair(x)[0]

    return (
        ConstantComparison("resonance_q", q(X_RESONANCE),
                           -7.853655422, 1.5e-9, "published"),
        ConstantComparison("two_color_q", two_color_combination(0.35, q),
                           -62.659473633, 2e-10, "published"),
        ConstantComparison("beta_resonance", beta(X_RESONANCE, constants),
                           3.68111e-5, 1e-3, "published"),
        ConstantComparison("beta_slope", beta_slope(constants),
                           2.32293e-4, 1e-3, "published"),
    )


def build_report(profile: str = "strict",
                 grid: RadialGrid | None = None,
                 variant: str = "derived",
                 constants: PhysicalConstants = DEFAULT_CONSTANTS,
                 ) -> VerificationReport:
    """Run all six identity checks and the constants table.

    Every row is one check on one source.  resonance_pq, two_color,
    delta_linear and the constants read the closed-form ``variant`` (a name
    in ``closedform.SOURCES``).  ac_stark and one_photon_ratio read the
    profile's numerical source: the Sturmian ``BASIS`` for "strict", which
    takes no grid, or ``grid_source(grid)`` for "oracle".  master_identity
    reads the numerical source when it provides amplitudes (the grid) and
    the closed forms otherwise (the basis)."""
    if profile not in ("strict", "oracle"):
        raise DomainError(f"unknown profile {profile!r}")
    closed = closed_form_source(variant)
    if profile == "oracle":
        numeric = grid_source(grid)
    elif grid is not None:
        raise DomainError("a grid applies to profile 'oracle' only")
    else:
        numeric = BASIS
    # the checks are looked up here, at call time, so a rebinding of the
    # module's names (a tracer's, a test's) reaches every row
    rows = (
        (check_master_identity, closed if numeric.pair is None else numeric),
        (check_resonance_pq, closed),
        (check_ac_stark, numeric),
        (check_two_color, closed),
        (check_delta_linear, closed),
        (check_one_photon, numeric),
    )
    checks = tuple(check(source) for check, source in rows)
    return VerificationReport(checks, constants_table(closed, constants))
