"""Benchmark for gauge_workbench: one caller, closed loop, checked outputs.

    python3 benchmarks/run.py --workload closed_scan --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
./src, not from any installed copy.  Workloads (see workloads.py):
closed_scan, verify, grid_sweep, cli.

--trace 0 runs the timed phase and prints the end-to-end metrics: setup_s
(the median of several fresh-interpreter imports of the modules the
workload calls, spread over the run), op1_cost.p50 and op2_cost.p50 (the
median cost of the workload's first and second op kind) and cycle_cost.p50
(one pass through the whole op schedule, the sum of the per-kind medians).
Every named metric of the workload, with medians and tails in ms and
sample counts, is printed on the lines before the result.

An op's cost is its wall time divided by the time of a fixed reference
kernel run just before and just after it (the mean of the two), so it is
in units of that kernel, "x_ref".  On a small shared machine the host's
speed swings by a fifth or more within seconds; raw op times carry that
swing, while the ratio to a kernel timed beside the op cancels most of it.

--trace 1 runs a fixed number of schedule passes instead, each op once
untraced and once traced, and prints the per-layer metrics, the tracing
overhead (traced minus untraced medians) and whether the traced outputs
hash equal to the untraced ones.  --seconds does not apply to it.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Spans, results and the environment record go to .bench_out/.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/LAPACK to one thread before numpy loads; children inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
os.environ.pop("GAUGE_WORKBENCH_CONSTANTS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5       # fresh interpreters per setup_s measurement
WARMUP_SECONDS = 1.0    # at least one untimed pass before timing
TRACE_PASSES = 3        # schedule passes in a traced run
TAIL_BEYOND = 10        # a tail needs this many samples above it

END_TO_END_UNITS = {"setup_s": "s", "op1_cost.p50": "x_ref", "op2_cost.p50": "x_ref",
                    "cycle_cost.p50": "x_ref"}

_REFERENCE_ARRAY = np.random.default_rng(0).random(100_000)


def reference_seconds() -> float:
    """Time a fixed mix of interpreter and numpy work, about 3 ms."""
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    np.sort(_REFERENCE_ARRAY)
    return time.perf_counter() - start


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ------------------------------------------------------------------ accounting

class Ledger:
    """Counts ops, keeps latency samples and the first digest of each kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}   # seconds
        self.costs: dict[str, list[float]] = {}     # x_ref
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")

    def run(self, kind, call) -> tuple[float, float] | None:
        """Run one op; return its duration in seconds and its cost in
        x_ref, or None if it failed."""
        self.attempted += 1
        if kind.prepare:
            kind.prepare()
        ref_before = reference_seconds()
        start = time.perf_counter()
        try:
            out = call()
        except Exception:
            self.fail(kind.name, "raised\n" + traceback.format_exc(limit=3))
            return None
        elapsed = time.perf_counter() - start
        ref_after = reference_seconds()
        try:
            digest = kind.check(out)
        except Exception as exc:
            self.fail(kind.name, f"check failed: {exc}")
            return None
        if self.digests.setdefault(kind.name, digest) != digest:
            self.fail(kind.name, f"output digest {digest} differs from {self.digests[kind.name]}")
            return None
        return elapsed, 2.0 * elapsed / (ref_before + ref_after)

    def run_control(self, name, control) -> None:
        self.attempted += 1
        try:
            control()
        except Exception as exc:
            self.fail(name, str(exc))


def run_pass(workload, ledger: Ledger, record: bool) -> float | None:
    """One pass through the schedule; returns its total op time if every op passed."""
    total = 0.0
    for kind in workload.schedule:
        timing = ledger.run(kind, kind.run)
        if timing is None:
            total = None
            continue
        if record:
            ledger.samples.setdefault(kind.name, []).append(timing[0])
            ledger.costs.setdefault(kind.name, []).append(timing[1])
        if total is not None:
            total += timing[0]
    return total


def warm_up(workload, ledger: Ledger) -> None:
    deadline = time.perf_counter() + WARMUP_SECONDS
    while True:
        run_pass(workload, ledger, record=False)
        if time.perf_counter() >= deadline:
            return


def timed_phase(workload, ledger: Ledger, seconds: float) -> tuple[list[float], list[float]]:
    """Passes for ``seconds`` of op time, with SETUP_REPEATS set-up
    measurements spread evenly between the passes, so both sample the
    whole run.  Returns the pass times and the set-up times, in seconds."""
    passes, setup = [], []
    spent = 0.0
    while True:
        if len(setup) < SETUP_REPEATS and spent >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_seconds(workload.setup_modules))
        start = time.perf_counter()
        total = run_pass(workload, ledger, record=True)
        spent += time.perf_counter() - start
        if total is not None:
            passes.append(total)
        if spent >= seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(workload.setup_modules))
    return passes, setup


def traced_phase(workload, ledger: Ledger, tracer) -> tuple[float, int]:
    """Each op untraced, then traced, TRACE_PASSES times.  Digests of both
    must equal the ones the warm-up recorded; the ledger enforces that.
    Returns (traced minus untraced median pass time in ms, traced ops)."""
    plain, traced = [], []
    traced_ops = 0
    for _ in range(TRACE_PASSES):
        plain_total = traced_total = 0.0
        for kind in workload.schedule:
            call = kind.traceable or kind.run
            plain_total += (ledger.run(kind, call) or (0.0,))[0]
            tracer.install()
            try:
                traced_total += (ledger.run(kind, call) or (0.0,))[0]
            finally:
                tracer.remove()
            traced_ops += 1
        plain.append(plain_total)
        traced.append(traced_total)
    return (statistics.median(traced) - statistics.median(plain)) * 1e3, traced_ops


# ------------------------------------------------------------ fresh processes

def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)


def setup_seconds(modules: tuple[str, ...]) -> float:
    """Import time of the workload's modules in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + ", ".join(modules)
            + "; print(repr(time.perf_counter() - t))")
    return float(_python(["-c", code]).stdout)


def importtime_ms(stderr: str) -> tuple[float, float]:
    """(package import, scipy import) cumulative ms from -X importtime output.

    Lines are printed children first; a line's parent is the next line one
    level shallower.  Each import counts once, at its outermost line."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue          # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    package = scipy = 0
    stack: list[str] = []     # names of enclosing imports, outermost first
    for depth, name, cumulative in reversed(rows):
        del stack[depth:]
        if depth == 0 and name.startswith("gauge_workbench"):
            package += cumulative
        if name.split(".")[0] == "scipy" and not any(s.split(".")[0] == "scipy" for s in stack):
            scipy += cumulative
        stack.append(name)
    return package / 1e3, scipy / 1e3


def cli_import_metrics() -> dict[str, float]:
    def wall(args):
        start = time.perf_counter()
        _python(args)
        return (time.perf_counter() - start) * 1e3

    interpreter = statistics.median(wall(["-c", "pass"]) for _ in range(SETUP_REPEATS))
    runs = [importtime_ms(_python(["-X", "importtime", "-c", "import gauge_workbench.cli"]).stderr)
            for _ in range(3)]
    return {"cli.interpreter_ms": interpreter,
            "cli.import_ms": statistics.median(r[0] for r in runs),
            "cli.scipy_import_ms": statistics.median(r[1] for r in runs)}


# --------------------------------------------------------------------- report

def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; None while that percentile would not lie above the median."""
    n = len(samples)
    if n <= 2 * TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    package = os.path.join(SRC, "gauge_workbench")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV,
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def workload_report(workload, ledger: Ledger, passes: list[float], setup: list[float]) -> dict:
    """Every metric the workload names, with sample counts, for the human lines."""
    lines = {"setup_s": f"{statistics.median(setup):.4f} s (median of {len(setup)} fresh "
                        f"interpreters, min {min(setup):.4f})",
             "failed_ops_ratio": f"{ledger.failed / max(ledger.attempted, 1):.4g} "
                                 f"({ledger.failed} of {ledger.attempted} ops)"}
    for kind in workload.kinds:
        samples = ledger.samples.get(kind.name, [])
        if not samples:
            continue
        ms = [s * 1e3 for s in samples]
        lines[f"{kind.name}_ms.p50"] = f"{statistics.median(ms):.4f} ms (n={len(ms)})"
        t = tail(ms)
        lines[f"{kind.name}_ms.tail"] = (f"{t[0]:.4f} ms (p{t[1]:.0f}, n={len(ms)})" if t
                                         else f"n/a (n={len(ms)}, needs > {2 * TAIL_BEYOND})")
        lines[f"{kind.name}_cost.p50"] = (f"{statistics.median(ledger.costs[kind.name]):.4f} "
                                          f"x_ref (n={len(ms)})")
    if "scan" in ledger.samples:
        pts = 2000 * len(ledger.samples["scan"]) / sum(ledger.samples["scan"])
        lines["scan_pts_per_s"] = f"{pts:.1f} 1/s (n={len(ledger.samples['scan'])} scans)"
    if passes:
        lines["cycle_ms.p50"] = f"{statistics.median(passes) * 1e3:.4f} ms (n={len(passes)})"
    return lines


# ----------------------------------------------------------------------- main

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed_scan", "verify", "grid_sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gauge_workbench", "__init__.py")):
        print(f"error: no package source at {SRC}/gauge_workbench; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        ctx = workloads.Context(root=ROOT, tmp=tmp, child_env=_child_env())
        workload = workloads.WORKLOADS[args.workload](random.Random(args.seed), ctx)
        kinds = workload.kinds
        ledger = Ledger()
        env = environment(args.seed)
        print("env " + json.dumps(env, sort_keys=True))

        for name, control in workload.controls:
            before = ledger.failed
            ledger.run_control(name, control)
            print(f"{args.workload} {name}: "
                  + ("flagged by verification, as it must be" if ledger.failed == before
                     else "NOT flagged"))
        warm_up(workload, ledger)

        if args.trace:
            tracer = tracing.Tracer()
            overhead, traced_ops = traced_phase(workload, ledger, tracer)
            metrics = dict.fromkeys(tracing.PER_LAYER_UNITS, 0.0)
            metrics.update(tracing.layer_metrics(tracer.spans, traced_ops))
            if args.workload == "cli":
                metrics.update(cli_import_metrics())
            metrics["bench.trace_overhead_ms"] = overhead
            metrics["bench.failed_ops_ratio"] = ledger.failed / max(ledger.attempted, 1)
            units = tracing.PER_LAYER_UNITS
            span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(span_file)
            print(f"{args.workload} traced {traced_ops} ops, {len(tracer.spans)} spans "
                  f"-> {os.path.relpath(span_file, ROOT)}; traced outputs "
                  + ("hash equal to untraced" if ledger.failed == 0 else "see failures"))
            if tracer.missing:
                print(f"{args.workload} not traced (absent): {', '.join(tracer.missing)}")
            for key, ms in sorted(tracing.per_grid_ms(tracer.spans).items()):
                print(f"{args.workload} per-grid {key} {ms:.3f} ms total")
            report, passes, setup = {}, [], []
        else:
            passes, setup = timed_phase(workload, ledger, args.seconds)

            def cost(kind):
                costs = ledger.costs.get(kind.name)
                return statistics.median(costs) if costs else 0.0

            metrics = {"setup_s": statistics.median(setup),
                       "op1_cost.p50": cost(kinds[0]), "op2_cost.p50": cost(kinds[1]),
                       "cycle_cost.p50": sum(cost(kind) for kind in workload.schedule)}
            units = END_TO_END_UNITS
            report = workload_report(workload, ledger, passes, setup)
            print(f"{args.workload} op1 = {kinds[0].name}, op2 = {kinds[1].name}, "
                  f"cycle = {' + '.join(k.name for k in workload.schedule)}")
            for key, text in report.items():
                print(f"{args.workload} {key} {text}")

        for error in ledger.errors:
            print(f"FAILED {error}", file=sys.stderr)
        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
            json.dump({"env": env, "workload": args.workload, "report": report,
                       "samples_s": ledger.samples, "costs_x_ref": ledger.costs,
                       "passes_s": passes, "setup_s": setup,
                       **result}, fh, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
