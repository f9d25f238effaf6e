"""Smoke test of the program API that the benchmark calls.

perfbench/ runs the same workload files against two commits of the program,
so a change that renames or alters a function a workload calls would only
show there, as failed operations.  Each workload here runs its seed-0 set-up,
one operation and that operation's own checks.  perfbench/ is imported, never
written: no bytecode is cached there.
"""

import importlib
import os
import sys

import pytest

from chirality_lab import pgauge

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


@pytest.fixture(scope="module")
def workloads():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in ("workloads", "reference"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize(
    "name", ["quat-chain", "matrix-chain", "estimators", "obstructed"]
)
def test_workload_runs_one_checked_operation(workloads, name):
    workload = workloads[name]
    plan, instances = workload.setup(0)
    out = workload.run(plan, instances[0])
    failed = [
        (check, value) for check, value, ok in workload.check(plan, instances[0], out)
        if not ok
    ]
    assert not failed, failed


def test_matrix_chain_operation_evaluates_each_field_once(workloads, monkeypatch):
    # the count that perfbench/run.py --trace 1 reports as
    # pgauge.residual_evals: one per trial of the six Newton steps of five
    # levels; neither the identity start nor an accepted field is evaluated
    # again
    workload = workloads["matrix-chain"]
    plan, instances = workload.setup(1)
    real, calls = pgauge.pn_apply, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pgauge, "pn_apply", counted)
    workload.run(plan, instances[0])
    assert len(calls) == 6
