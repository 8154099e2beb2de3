"""The benchmark's view of the package API.

benchmarks/workloads.py calls the package by name (build_report with a
``variant``, the closed-form scalars, the oracle functions, the CLI).  A
renamed or re-signatured function shows up there only as failed ops, so
this test builds every workload and runs each op kind once, in process,
through its own checker, and runs both negative controls.  benchmarks/run.py
also imports benchmarks/tracing.py, which imports the package modules by
name, so a deleted or renamed module fails every benchmark run; loading it
here fails a test instead.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

# needs the oracle extra; skipped at collection without it
pytest.importorskip("numpy")
pytest.importorskip("scipy")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.fixture
def context(tmp_path):
    return workloads.Context(root=str(ROOT), tmp=str(tmp_path), child_env={})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_op_kind_passes_its_checker(name, context):
    workload = workloads.WORKLOADS[name](random.Random(7), context)
    assert workload.name == name
    for kind in workload.kinds:
        if kind.prepare is not None:
            kind.prepare()
        # the CLI kinds time a subprocess; their in-process form is the same call
        op = kind.traceable or kind.run
        digest = kind.check(op())
        assert isinstance(digest, str) and digest, kind.name


def test_negative_controls_are_flagged(context):
    workload = workloads.WORKLOADS["verify"](random.Random(7), context)
    assert [label for label, _ in workload.controls] == ["control_alt-a", "control_alt-b"]
    for _, control in workload.controls:
        control()


@pytest.mark.parametrize("x", [0.02, 0.1, 0.1875, 0.3, 0.37])
def test_pseudostate_checker_passes_across_the_seeded_range(x):
    # grid_sweep draws each seed's x from U(0.02, 0.37); its checker must
    # pass at both ends of that range and inside it, not at seed 7's x alone
    from gauge_workbench import closedform, oracle

    partials = oracle.pseudostate_q(workloads.PSEUDOSTATE_GRID, x, count=30)
    assert workloads.check_pseudostate(closedform.q_length(x), partials)


def test_crosscheck_grids_are_distinct():
    # build_oracle caches by grid, so two equal grids would silently drop one
    # size from the sweep; a change of RadialGrid's defaults can cause that
    grids = workloads.CROSSCHECK_GRIDS
    assert len(set(grids)) == len(grids)


def test_crosscheck_grids_keep_every_numerov_row():
    # green_solve cuts its Numerov rows only where c = 1 - h^2 F / 12 falls
    # to 1/2; on the 80-Bohr grids of grid_sweep it cuts none, even at the
    # lowest resolvent energy E_1S - 3/8, where c is lowest (0.977 on 6000
    # points from 1e-11)
    from gauge_workbench import oracle

    for grid in workloads.CROSSCHECK_GRIDS:
        state = oracle.build_oracle(grid)
        m, c, _ = oracle._numerov_rows(state._numerov[1], state.s1.energy - 0.375)
        assert m == grid.n_points and c.min() > 0.97, grid


def test_tracer_loads_and_restores_every_binding():
    # the tracer may name functions that no longer exist (it records them
    # as missing), so only the import and the rebinding round trip are held
    tracing = _load("tracing")
    before = [dict(vars(module)) for module in tracing.PACKAGE_MODULES]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    after = [dict(vars(module)) for module in tracing.PACKAGE_MODULES]
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a)
               for a, b in zip(before, after))


def test_tracer_sees_every_check_of_a_report():
    # build_report looks its checks and constants_table up as module globals
    # when it runs, so the tracer's rebinding reaches each of them; a check
    # captured at import would run untraced and drop out of its metric
    from gauge_workbench import identities

    tracing = _load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        identities.build_report("strict")
    finally:
        tracer.remove()
    names = [span[2] for span in tracer.spans]
    for fn in ("check_master_identity", "check_resonance_pq", "check_ac_stark",
               "check_two_color", "check_delta_linear", "check_one_photon",
               "constants_table"):
        assert names.count(f"identities.{fn}") == 1, fn
    assert names.count("identities.build_report") == 1
