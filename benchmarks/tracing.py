"""Spans around calls into each layer, and the per-layer metrics built on them.

A traced run rebinds each listed function, in every package module that
holds it, to a wrapper that records a span: id, parent id, name, start,
end and an optional value (series terms used, cache misses, bytes, grid).
Spans stay in memory and are written out once, at the end of the run.
The program itself is not modified; removing the tracer restores the
original bindings.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict

import gauge_workbench
from gauge_workbench import cli, closedform, identities, oracle, rabi, specfun

PACKAGE_MODULES = (gauge_workbench, specfun, closedform, rabi, oracle, identities, cli)

_build_oracle = oracle.build_oracle


def _terms_used(args, result, token):
    return result.terms_used


def _cache_misses(args, result, misses_before):
    return _build_oracle.cache_info().misses - misses_before


def _banded_bytes(args, result, token):
    # inputs (banded matrix, right-hand side) plus the solution vector
    return args[1].nbytes + args[2].nbytes + result.nbytes


def _grid_points(args, result, token):
    return args[0].n_points


def _misses_now():
    return _build_oracle.cache_info().misses


# (layer, module, function, before-hook, value-hook)
TARGETS = (
    ("specfun", specfun, "hyp2f1_tail", None, _terms_used),
    ("closedform", closedform, "gauge_pair", None, None),
    ("closedform", closedform, "q_length", None, None),
    ("closedform", closedform, "p_velocity", None, None),
    ("closedform", closedform, "two_color_q", None, None),
    ("rabi", rabi, "beta", None, None),
    ("rabi", rabi, "beta_slope", None, None),
    ("oracle", oracle, "build_oracle", _misses_now, _cache_misses),
    ("oracle", oracle, "solve_banded", None, _banded_bytes),
    ("oracle", oracle, "eig_banded", None, None),
    ("oracle", oracle, "green_solve", None, None),
    ("oracle", oracle, "q_oracle", None, _grid_points),
    ("oracle", oracle, "p_oracle", None, _grid_points),
    ("oracle", oracle, "ac_stark_sides", None, None),
    ("identities", identities, "check_master_identity", None, None),
    ("identities", identities, "check_resonance_pq", None, None),
    ("identities", identities, "check_ac_stark", None, None),
    ("identities", identities, "check_two_color", None, None),
    ("identities", identities, "check_delta_linear", None, None),
    ("identities", identities, "check_one_photon", None, None),
    ("identities", identities, "constants_table", None, None),
    ("identities", identities, "build_report", None, None),
    ("cli", cli, "main", None, None),
)

IDENTITY_FUNCTIONS = ("check_master_identity", "check_resonance_pq", "check_ac_stark",
                      "check_two_color", "check_delta_linear", "check_one_photon",
                      "constants_table")

# Per-layer metric names and units, in report order.
PER_LAYER_UNITS = {
    "bench.failed_ops_ratio": "ratio",
    "bench.trace_overhead_ms": "ms",
    "specfun.hyp2f1_tail.calls": "count",
    "specfun.hyp2f1_tail.busy_ms": "ms",
    "specfun.hyp2f1_tail.terms_mean": "count",
    "closedform.gauge_pair.self_ms": "ms",
    "closedform.q_length.self_ms": "ms",
    "closedform.p_velocity.self_ms": "ms",
    "closedform.two_color_q.self_ms": "ms",
    "closedform.tail_calls_per_point": "count",
    "rabi.beta.self_ms": "ms",
    "rabi.beta_slope.busy_ms": "ms",
    "oracle.build_oracle.calls": "count",
    "oracle.build_oracle.miss_ratio": "ratio",
    "oracle.build_oracle.busy_ms": "ms",
    "oracle.build.solves_per_state": "count",
    "oracle.solve_banded.calls": "count",
    "oracle.solve_banded.busy_ms": "ms",
    "oracle.solve_banded.mbytes_computed": "MB",
    "oracle.green_solve.calls": "count",
    "oracle.green_solve.self_ms": "ms",
    "oracle.eig_banded.busy_ms": "ms",
    "oracle.q_oracle.self_ms": "ms",
    "oracle.p_oracle.self_ms": "ms",
    "oracle.ac_stark_sides.self_ms": "ms",
    **{f"identities.{fn}.busy_ms": "ms" for fn in IDENTITY_FUNCTIONS},
    "identities.build_report.self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.scipy_import_ms": "ms",
    "cli.main.busy_ms": "ms",
}


class Tracer:
    """Records spans while installed; ``install``/``remove`` bracket a phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent, name, start, end, value)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._bindings: list[tuple] = []

    def _wrap(self, name, fn, before, value):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            token = before() if before else None
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                # a call that raised still closes its span, so its children keep a parent
                spans.append((sid, parent, name, start, end,
                              value(args, result, token) if value and result is not None
                              else None))
        return traced

    def install(self) -> None:
        for layer, module, attr, before, value in TARGETS:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            wrapper = self._wrap(f"{layer}.{attr}", original, before, value)
            for mod in PACKAGE_MODULES:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._bindings.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def remove(self) -> None:
        for mod, key, original in reversed(self._bindings):
            setattr(mod, key, original)
        self._bindings.clear()

    def write(self, path: str) -> None:
        """One JSON array per line: id, parent, name, start_us, duration_us, value."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, value in self.spans:
                fh.write(json.dumps([sid, parent, name, round((start - origin) * 1e6, 3),
                                     round((end - start) * 1e6, 3), value]) + "\n")


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-op span metrics.  Self time is a span's duration minus the time
    its direct children cover (calls are nested, never concurrent)."""
    count = defaultdict(int)
    busy = defaultdict(float)
    values = defaultdict(list)
    child_time = defaultdict(float)
    by_id = {}
    for sid, parent, name, start, end, value in spans:
        by_id[sid] = (parent, name)
        count[name] += 1
        busy[name] += end - start
        if value is not None:
            values[name].append(value)
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    for sid, parent, name, start, end, value in spans:
        self_time[name] += (end - start) - child_time[sid]

    per_op = 1.0 / max(n_ops, 1)
    ms = 1e3 * per_op
    tails_in_pairs = sum(1 for s in spans if s[2] == "specfun.hyp2f1_tail"
                         and _under(by_id, s[0], "closedform.gauge_pair"))
    solves_in_builds = sum(1 for s in spans if s[2] == "oracle.solve_banded"
                           and _under(by_id, s[0], "oracle.build_oracle"))
    builds = count["oracle.build_oracle"]
    misses = sum(values["oracle.build_oracle"])
    terms = values["specfun.hyp2f1_tail"]

    out = {
        "specfun.hyp2f1_tail.calls": count["specfun.hyp2f1_tail"] * per_op,
        "specfun.hyp2f1_tail.busy_ms": busy["specfun.hyp2f1_tail"] * ms,
        "specfun.hyp2f1_tail.terms_mean": sum(terms) / len(terms) if terms else 0.0,
        "closedform.tail_calls_per_point": (tails_in_pairs / count["closedform.gauge_pair"]
                                            if count["closedform.gauge_pair"] else 0.0),
        "rabi.beta_slope.busy_ms": busy["rabi.beta_slope"] * ms,
        "oracle.build_oracle.calls": builds * per_op,
        "oracle.build_oracle.miss_ratio": misses / builds if builds else 0.0,
        "oracle.build_oracle.busy_ms": busy["oracle.build_oracle"] * ms,
        "oracle.build.solves_per_state": solves_in_builds / (3 * misses) if misses else 0.0,
        "oracle.solve_banded.calls": count["oracle.solve_banded"] * per_op,
        "oracle.solve_banded.busy_ms": busy["oracle.solve_banded"] * ms,
        "oracle.solve_banded.mbytes_computed": sum(values["oracle.solve_banded"]) * 1e-6 * per_op,
        "oracle.green_solve.calls": count["oracle.green_solve"] * per_op,
        "oracle.eig_banded.busy_ms": busy["oracle.eig_banded"] * ms,
        "identities.build_report.self_ms": self_time["identities.build_report"] * ms,
        "cli.main.busy_ms": busy["cli.main"] * ms,
    }
    for name in ("closedform.gauge_pair", "closedform.q_length", "closedform.p_velocity",
                 "closedform.two_color_q", "rabi.beta", "oracle.green_solve",
                 "oracle.q_oracle", "oracle.p_oracle", "oracle.ac_stark_sides"):
        out[f"{name}.self_ms"] = self_time[name] * ms
    for fn in IDENTITY_FUNCTIONS:
        out[f"identities.{fn}.busy_ms"] = busy[f"identities.{fn}"] * ms
    return out


def _under(by_id, sid, wanted) -> bool:
    """Whether span ``sid`` has an ancestor named ``wanted``."""
    parent = by_id[sid][0]
    while parent >= 0:
        parent, name = by_id[parent]
        if name == wanted:
            return True
    return False


def per_grid_ms(spans) -> dict[str, float]:
    """Total q_oracle/p_oracle time per grid size, to expose grid-dependent outliers."""
    totals = defaultdict(float)
    for _, _, name, start, end, value in spans:
        if name in ("oracle.q_oracle", "oracle.p_oracle"):
            totals[f"{name}@{value}"] += (end - start) * 1e3
    return dict(totals)
