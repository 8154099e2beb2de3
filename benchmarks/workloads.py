"""The four benchmark workloads: seeded inputs, op kinds and output checks.

A workload is a fixed cycle of op kinds that one caller runs in a closed
loop.  The seed picks only the inputs (x values, windows, which README
example); the schedule and the work per op are the same for every seed.

Every op kind pairs a call into the program with a checker.  The checker
raises CheckFailed when the output is wrong and otherwise returns a digest
of the output, so repeated ops on the same inputs can be compared bit for
bit.  Checkers use only arithmetic on the outputs and constants written out
here, never the package's own functions, so they neither trust the code
under test nor add spans to a traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gauge_workbench import cli, closedform, identities, oracle, rabi
from gauge_workbench.oracle import RadialGrid

# Captured before a traced run rebinds the name to a timing wrapper.
cold_oracle_cache = oracle.build_oracle.cache_clear

SQRT2 = math.sqrt(2.0)
X_MAX = 0.375
X_RES = 0.1875
R2_EXACT = -512.0 * SQRT2 / 243.0        # <2S| r^2 |1S>, Bohr radii squared
DELTA_SLOPE = -512.0 * SQRT2 / 729.0     # d(f1 - f2)/dx
TOL_CLOSED = 1e-9
TOL_ORACLE_REL = 1e-6


def _beta_prefactor() -> float:
    # CODATA-2018, the vintage the package pins by default.
    alpha, m_e, c = 7.2973525693e-3, 9.1093837015e-31, 299792458.0
    hbar, e, eps0 = 1.054571817e-34, 1.602176634e-19, 8.8541878128e-12
    return e**2 * hbar / (alpha**4 * m_e**3 * c**5 * 4.0 * math.pi * eps0)


BETA_PREFACTOR = _beta_prefactor()

# README compute examples: (argv tail, exact stdout line).
README_COMPUTE = (
    (("--x", "0.1875", "--quantity", "q"), "-7.85365542235e+00 dimensionless"),
    (("--x", "0.1875", "--quantity", "beta"), "3.68110645721e-05 Hz(W/m^2)^-1"),
    (("--x", "0.35", "--quantity", "two_color_q"), "-6.26594736335e+01 dimensionless"),
)

# Grid sizes of the oracle error-budget study; 12000/1e-9 is RadialGrid().refined().
CROSSCHECK_GRIDS = (
    RadialGrid(n_points=4000),
    RadialGrid(n_points=6000),
    RadialGrid(n_points=6000, r_min=1e-11),
    RadialGrid().refined(),
    RadialGrid(n_points=24000),
)
PSEUDOSTATE_GRID = RadialGrid(n_points=2000)


class CheckFailed(Exception):
    """An op returned output that fails its correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def float_digest(values) -> str:
    values = [float(v) for v in values]
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()[:16]


def bytes_digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class OpKind:
    """One kind of op.  ``run`` is the timed call; ``prepare`` runs untimed
    before it; ``traceable`` is the in-process form a traced run times
    (the same call, except for the CLI, whose timed op is a subprocess)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str]
    prepare: Callable[[], None] | None = None
    traceable: Callable[[], object] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup_modules: tuple[str, ...]   # what setup_s imports in a fresh interpreter
    schedule: tuple[OpKind, ...]     # one cycle, in order
    controls: tuple[tuple[str, Callable[[], None]], ...] = ()

    @property
    def kinds(self) -> tuple[OpKind, ...]:
        """Distinct op kinds in order of first appearance."""
        seen: dict[str, OpKind] = {}
        for kind in self.schedule:
            seen.setdefault(kind.name, kind)
        return tuple(seen.values())


@dataclass(frozen=True)
class Context:
    root: str       # checkout root; the package source is under root/src
    tmp: str        # scratch directory inside the checkout
    child_env: dict


# ---------------------------------------------------------------- closed_scan

def check_scan(xs, rows) -> str:
    """Rows of (GaugeAmplitudes, beta): Q < 0 < P, the master identity
    against the exact <2S|r^2|1S>, and delta on the exact line."""
    _require(len(rows) == len(xs), f"{len(rows)} rows for {len(xs)} points")
    flat = []
    for x, (g, b) in zip(xs, rows):
        _require(g.x == x, f"row for x = {g.x} where {x} was asked")
        _require(g.q < 0.0 < g.p, f"sign of Q, P wrong at x = {x}: {g.q}, {g.p}")
        master = g.p - ((X_MAX - x) * (-x) * g.q + (x - X_RES) * R2_EXACT / 3.0)
        _require(abs(master) <= TOL_CLOSED, f"master residual {master:.3e} at x = {x}")
        line = g.delta - DELTA_SLOPE * (x - X_RES)
        _require(abs(line) <= TOL_CLOSED, f"delta off the exact line by {line:.3e} at x = {x}")
        _require(b > 0.0, f"beta = {b} not positive at x = {x}")
        flat += (g.q, g.p, g.delta, b)
    return float_digest(flat)


def check_scalar_batch(xs, values) -> str:
    """Groups of (Q(x), P(x), two_color_q(x), beta(x)) at one x each."""
    _require(len(values) == 4 * len(xs), f"{len(values)} values for {len(xs)} groups")
    for i, x in enumerate(xs):
        q, p, tc, b = values[4 * i:4 * i + 4]
        _require(q < 0.0 < p, f"sign of Q, P wrong at x = {x}: {q}, {p}")
        master = p - ((X_MAX - x) * (-x) * q + (x - X_RES) * R2_EXACT / 3.0)
        _require(abs(master) <= TOL_CLOSED, f"master residual {master:.3e} at x = {x}")
        # two_color_q = (3/4)[Q(x) + Q(3/8 - x)] with both terms negative
        _require(tc / 0.75 - q < 0.0, f"two_color_q = {tc} implies Q(3/8 - x) >= 0 at x = {x}")
        rel = abs(b / (-q * BETA_PREFACTOR) - 1.0)
        _require(rel <= 1e-12, f"beta / (-Q) off the SI prefactor by {rel:.3e} at x = {x}")
    return float_digest(values)


def closed_scan(rng: random.Random, ctx: Context) -> Workload:
    # A fixed window width keeps the mix of series lengths (4-9 terms)
    # nearly the same for every seed.
    lo = rng.uniform(0.005, 0.07)
    step = 0.30 / 1999
    scan_xs = [lo + i * step for i in range(2000)]
    batch_xs = [rng.uniform(0.005, 0.37) for _ in range(50)]

    def scan():
        gauge_pair, beta = closedform.gauge_pair, rabi.beta
        return [(gauge_pair(x), beta(x)) for x in scan_xs]

    def scalar_batch():
        q, p, tc, beta = (closedform.q_length, closedform.p_velocity,
                          closedform.two_color_q, rabi.beta)
        out = []
        for x in batch_xs:
            out += (q(x), p(x), tc(x), beta(x))
        return out

    scan_kind = OpKind("scan", scan, lambda rows: check_scan(scan_xs, rows))
    batch_kind = OpKind("scalar_batch", scalar_batch,
                        lambda vals: check_scalar_batch(batch_xs, vals))
    return Workload("closed_scan", ("gauge_workbench.closedform", "gauge_workbench.rabi"),
                    (scan_kind, batch_kind))


# --------------------------------------------------------------------- verify

def check_report(report) -> str:
    failing = [c.name for c in report.checks if not c.passed]
    failing += [c.name for c in report.constants if not c.passed]
    _require(report.overall_pass and not failing,
             f"verification failed: {failing or 'overall_pass is False'}")
    flat = [r for c in report.checks for r in c.residuals]
    flat += [c.computed for c in report.constants]
    return float_digest(flat)


def negative_control(variant: str) -> Callable[[], None]:
    """A deliberately wrong closed form must fail verification."""
    def control() -> None:
        report = identities.build_report("strict", variant=variant)
        _require(not report.overall_pass, f"negative control {variant} passed verification")
    return control


def verify(rng: random.Random, ctx: Context) -> Workload:
    # build_report has fixed inputs, so the seed has nothing to pick here.
    def report(profile):
        return lambda: identities.build_report(profile)

    strict = OpKind("verify_strict", report("strict"), check_report, prepare=cold_oracle_cache)
    oracle_kind = OpKind("verify_oracle", report("oracle"), check_report,
                         prepare=cold_oracle_cache)
    return Workload("verify", ("gauge_workbench.identities",), (strict, oracle_kind),
                    controls=tuple((f"control_{v}", negative_control(v))
                                   for v in ("alt-a", "alt-b")))


# ----------------------------------------------------------------- grid_sweep

def check_crosscheck(q_ref, p_ref, results) -> str:
    """Oracle Q, P and r^2 within 1e-6 relative of the closed forms."""
    _require(len(results) == len(CROSSCHECK_GRIDS), "missing grids in the cycle")
    flat = []
    for grid, (qs, ps, r2) in zip(CROSSCHECK_GRIDS, results):
        label = f"grid {grid.n_points}/{grid.r_min:g}"
        for name, got, ref in (("Q", qs, q_ref), ("P", ps, p_ref)):
            rel = max(abs(g / r - 1.0) for g, r in zip(got, ref))
            _require(len(got) == len(ref) and rel <= TOL_ORACLE_REL,
                     f"oracle {name} off by {rel:.3e} relative on {label}")
        rel = abs(r2 / R2_EXACT - 1.0)
        _require(rel <= TOL_ORACLE_REL, f"oracle r^2 off by {rel:.3e} relative on {label}")
        flat += [*qs, *ps, r2]
    return float_digest(flat)


def check_pseudostate(q_ref, partials) -> str:
    """Partial sums approach Q monotonically and close 95% of the gap."""
    err = np.abs(np.asarray(partials) - q_ref)
    _require(err.size == 30, f"{err.size} partial sums, expected 30")
    _require(bool(np.all(np.diff(err) <= 0.0)), "pseudostate errors increase somewhere")
    _require(err[-1] < 0.05 * err[0],
             f"final pseudostate error {err[-1]:.3e} not below 0.05 x first {err[0]:.3e}")
    return float_digest(partials)


def grid_sweep(rng: random.Random, ctx: Context) -> Workload:
    xs = sorted(rng.uniform(0.005, 0.36) for _ in range(8))
    ps_x = rng.uniform(0.02, 0.37)
    # Closed-form references, computed once, untimed.
    q_ref = [closedform.q_length(x) for x in xs]
    p_ref = [closedform.p_velocity(x) for x in xs]
    ps_ref = closedform.q_length(ps_x)

    def crosscheck_cycle():
        q, p, r2 = oracle.q_oracle, oracle.p_oracle, oracle.r2_overlap
        return [([q(g, x) for x in xs], [p(g, x) for x in xs], r2(g))
                for g in CROSSCHECK_GRIDS]

    def pseudostate():
        return oracle.pseudostate_q(PSEUDOSTATE_GRID, ps_x, count=30)

    cross = OpKind("crosscheck_cycle", crosscheck_cycle,
                   lambda res: check_crosscheck(q_ref, p_ref, res), prepare=cold_oracle_cache)
    pseudo = OpKind("pseudostate", pseudostate, lambda res: check_pseudostate(ps_ref, res),
                    prepare=cold_oracle_cache)
    return Workload("grid_sweep", ("gauge_workbench.oracle",), (cross, cross, pseudo))


# ------------------------------------------------------------------------ cli

def check_compute(expected: str, out) -> str:
    code, stdout, _ = out
    _require(code == 0, f"compute exited {code}")
    _require(stdout == (expected + "\n").encode(), f"compute printed {stdout!r}")
    return bytes_digest(stdout)


def check_scan_csv(out) -> str:
    code, _, csv = out
    _require(code == 0, f"scan exited {code}")
    lines = csv.decode().splitlines()
    _require(lines[:1] == ["x,f1,f2,delta,q,beta"] and len(lines) == 201,
             f"scan CSV has header {lines[:1]} and {len(lines)} lines")
    for line in lines[1:]:
        x, f1, _, delta, q, b = (float(v) for v in line.split(","))
        _require(q < 0.0 < f1 and b > 0.0, f"sign wrong in CSV row {line}")
        off = delta - DELTA_SLOPE * (x - X_RES)
        _require(abs(off) <= TOL_CLOSED, f"CSV delta off the exact line by {off:.3e}")
    return bytes_digest(csv)


def check_verify_json(out) -> str:
    code, stdout, doc = out
    _require(code == 0, f"verify exited {code}")
    _require(stdout.endswith(b"overall: PASS\n"), "verify summary does not end in PASS")
    _require(json.loads(doc)["overall_pass"] is True, "verify JSON says overall_pass false")
    return bytes_digest(stdout, doc)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def cli_workload(rng: random.Random, ctx: Context) -> Workload:
    compute_args, compute_line = rng.choice(README_COMPUTE)
    lo = rng.uniform(0.005, 0.07)
    csv_path = os.path.join(ctx.tmp, "scan.csv")
    json_path = os.path.join(ctx.tmp, "report.json")
    commands = {
        "cli_compute": (["compute", *compute_args], None),
        "cli_scan": (["scan", "--x-min", repr(lo), "--x-max", repr(lo + 0.3), "--steps", "200",
                      "--out", csv_path, "--columns", "q,beta"], csv_path),
        "cli_verify": (["verify", "--profile", "strict", "--out", json_path], json_path),
    }

    def subprocess_op(argv, out_path):
        def op():
            proc = subprocess.run([sys.executable, "-m", "gauge_workbench.cli", *argv],
                                  cwd=ctx.root, env=ctx.child_env, capture_output=True,
                                  timeout=120)
            return proc.returncode, proc.stdout, _read(out_path) if out_path else b""
        return op

    def in_process_op(argv, out_path):
        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            return code, buf.getvalue().encode(), _read(out_path) if out_path else b""
        return op

    def prepare(out_path):
        def fresh():
            # No stale file can pass for this op's output, and the verify
            # command starts from a cold oracle cache in-process too.
            if out_path:
                _remove(out_path)
            cold_oracle_cache()
        return fresh

    checks = {
        "cli_compute": lambda out: check_compute(compute_line, out),
        "cli_scan": check_scan_csv,
        "cli_verify": check_verify_json,
    }
    kinds = tuple(
        OpKind(name, subprocess_op(argv, out), checks[name], prepare=prepare(out),
               traceable=in_process_op(argv, out))
        for name, (argv, out) in commands.items()
    )
    return Workload("cli", ("gauge_workbench.cli",), kinds)


WORKLOADS = {
    "closed_scan": closed_scan,
    "verify": verify,
    "grid_sweep": grid_sweep,
    "cli": cli_workload,
}
