"""The benchmark's view of the package API.

benchmarks/workloads.py calls the package by name (build_report with a
``variant``, the closed-form scalars, the oracle functions, the CLI).  A
renamed or re-signatured function shows up there only as failed ops, so
this test builds every workload and runs each op kind once, in process,
through its own checker, and runs both negative controls.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


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


def test_crosscheck_grids_are_distinct():
    # build_oracle caches by grid, so two equal grids would silently drop one
    # size from the sweep; a change of RadialGrid's defaults can cause that
    grids = workloads.CROSSCHECK_GRIDS
    assert len(set(grids)) == len(grids)
