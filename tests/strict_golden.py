"""What ``verify --profile strict``, ``scan`` and ``compute`` must produce,
bit for bit.

Four pins, held by ``test_cli.py`` and ``test_identities.py``, which need
no numpy, so the stdlib-floor CI job checks them on 3.10, 3.12 and 3.13
with neither numpy nor scipy installed:

- ``STRICT_REPORT_LINES``: the stdout lines of ``verify --profile strict
  --formula-variant V`` before the overall line, for each closed-form
  source V.  They print 12 significant digits.
- ``EXPECTED_STRICT_DIGEST``: a SHA-256 over every residual and computed
  constant of ``build_report("strict", variant=V)`` for every source, as
  little-endian doubles, so a move of one ulp in any of them shows.
- ``EXPECTED_SCAN_SHA256``: the SHA-256 of the CSV that ``scan`` writes
  for ``SCAN_ARGS``: 2000 rows of x, f1, f2, delta, q, p and beta.
- ``COMPUTE_LINES``: the stdout line of ``compute --x X --quantity Q`` for
  the gauge comparison f1, f2 and delta below, at and above the resonance.

Every value is computed in pure Python with a fixed order of float
operations, so no pin depends on the interpreter's version.
"""

import hashlib
import struct
from pathlib import Path

from gauge_workbench.closedform import SOURCES
from gauge_workbench.identities import build_report

# Sturmian lines of ``verify --profile strict``; they read no closed form, so
# they are the same for every variant.
_STURMIAN_LINES = (
    "PASS ac_stark: max residual 4.99600361081e-16"
    " (tolerance 1.00000000000e-09, 4 points)",
    "PASS one_photon_ratio: max residual 0.00000000000e+00"
    " (tolerance 1.00000000000e-09, 3 points)",
)

# Exact stdout lines of ``verify --profile strict``, all computed in pure
# Python, so they must not move by a single byte unless a change means to
# move them.
STRICT_REPORT_LINES = {
    "derived": [
        "PASS master_identity: max residual 3.33066907388e-16"
        " (tolerance 1.00000000000e-09, 20 points)",
        "PASS resonance_pq: max residual 5.55111512313e-17"
        " (tolerance 1.00000000000e-09, 1 points)",
        _STURMIAN_LINES[0],
        "PASS two_color: max residual 4.44089209850e-16"
        " (tolerance 1.00000000000e-09, 3 points)",
        "PASS delta_linear: max residual 1.58206781009e-15"
        " (tolerance 1.00000000000e-09, 200 points)",
        _STURMIAN_LINES[1],
        "PASS resonance_q: computed -7.85365542235e+00 vs published -7.85365542200e+00"
        " (relative error 4.47464106718e-11)",
        "PASS two_color_q: computed -6.26594736335e+01 vs published -6.26594736330e+01"
        " (relative error 8.46637038563e-12)",
        "PASS beta_resonance: computed 3.68110645721e-05 vs published 3.68111000000e-05"
        " (relative error 9.62424290552e-07)",
        "PASS beta_slope: computed 2.32293391278e-04 vs published 2.32293000000e-04"
        " (relative error 1.68441453720e-06)",
    ],
    "alt-a": [
        "FAIL master_identity: max residual 6.14190747753e+03"
        " (tolerance 1.00000000000e-09, 20 points)",
        "FAIL resonance_pq: max residual 1.64434014004e+02"
        " (tolerance 1.00000000000e-09, 1 points)",
        _STURMIAN_LINES[0],
        "FAIL two_color: max residual 4.72868968320e+03"
        " (tolerance 1.00000000000e-09, 3 points)",
        "FAIL delta_linear: max residual 1.33538970709e+04"
        " (tolerance 1.00000000000e-09, 200 points)",
        _STURMIAN_LINES[1],
        "FAIL resonance_q: computed 4.22545491781e+03 vs published -7.85365542200e+00"
        " (relative error 5.39023976195e+02)",
        "FAIL two_color_q: computed 4.02266866733e+05 vs published -6.26594736330e+01"
        " (relative error 6.42088901933e+03)",
        "PASS beta_resonance: computed 3.68110645721e-05 vs published 3.68111000000e-05"
        " (relative error 9.62424290552e-07)",
        "PASS beta_slope: computed 2.32293391278e-04 vs published 2.32293000000e-04"
        " (relative error 1.68441453720e-06)",
    ],
    "alt-b": [
        "FAIL master_identity: max residual 5.70287162173e+02"
        " (tolerance 1.00000000000e-09, 20 points)",
        "FAIL resonance_pq: max residual 4.28728557387e+01"
        " (tolerance 1.00000000000e-09, 1 points)",
        _STURMIAN_LINES[0],
        "FAIL two_color: max residual 4.67963032337e+02"
        " (tolerance 1.00000000000e-09, 3 points)",
        "FAIL delta_linear: max residual 1.13236370454e+03"
        " (tolerance 1.00000000000e-09, 200 points)",
        _STURMIAN_LINES[1],
        "FAIL resonance_q: computed 7.67715304924e+02 vs published -7.85365542200e+00"
        " (relative error 9.87526086482e+01)",
        "FAIL two_color_q: computed 3.70617252311e+04 vs published -6.26594736330e+01"
        " (relative error 5.92478400349e+02)",
        "PASS beta_resonance: computed 3.68110645721e-05 vs published 3.68111000000e-05"
        " (relative error 9.62424290552e-07)",
        "PASS beta_slope: computed 2.32293391278e-04 vs published 2.32293000000e-04"
        " (relative error 1.68441453720e-06)",
    ],
}


# SHA-256 of every residual, then every computed constant, of the strict
# report for each source in sorted(SOURCES), packed as little-endian
# doubles.  Only a change of the arithmetic itself may move it.
EXPECTED_STRICT_DIGEST = "d4c1451cc5a395562506a4a6500fabcc4a435906ca5afd30044647c48dd7cdef"

# ``scan`` arguments before ``--out``, and the SHA-256 of the file they write.
# Every row reads f1, f2 and delta through gauge_pair.
SCAN_ARGS = ("scan", "--x-min", "0.001", "--x-max", "0.3749", "--steps", "2000",
             "--columns", "q,p,beta")
EXPECTED_SCAN_SHA256 = "a1a14a9fb506886ba05ec758436022c6d4db1bd9496240dbd45bf84b82686d71"

# stdout line of ``compute --x X --quantity Q``, keyed by (Q, X).
COMPUTE_LINES = {
    ("f1", "0.05"): "2.03328687818e-01 dimensionless",
    ("f1", "0.1875"): "2.76105073442e-01 dimensionless",
    ("f1", "0.3"): "4.07703875043e-01 dimensionless",
    ("f2", "0.05"): "6.67571723295e-02 dimensionless",
    ("f2", "0.1875"): "2.76105073442e-01 dimensionless",
    ("f2", "0.3"): "5.19444205897e-01 dimensionless",
    ("delta", "0.05"): "1.36571515488e-01 dimensionless",
    ("delta", "0.1875"): "5.55111512313e-17 dimensionless",
    ("delta", "0.3"): "-1.11740330854e-01 dimensionless",
}


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def expected_run(variant):
    """(exit code, stdout) of ``verify --profile strict --formula-variant
    variant``: only the derived source passes."""
    verdict = "PASS" if variant == "derived" else "FAIL"
    lines = STRICT_REPORT_LINES[variant] + [f"overall: {verdict}"]
    return (0 if verdict == "PASS" else 1), "".join(line + "\n" for line in lines)


def strict_digest():
    h = hashlib.sha256()
    for variant in sorted(SOURCES):
        report = build_report("strict", variant=variant)
        for check in report.checks:
            for value in check.residuals:
                h.update(struct.pack("<d", value))
        for constant in report.constants:
            h.update(struct.pack("<d", constant.computed))
    return h.hexdigest()
