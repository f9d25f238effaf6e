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
from collections import Counter

import numpy as np
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
    # pgauge.residual_evals: one per trial of the two Newton steps of the
    # direct attempt at t = 1, which chain data pass; neither the identity
    # start nor an accepted field is evaluated again.  The continuation from
    # t = GaugeConfig.dt took six over five levels
    workload = workloads["matrix-chain"]
    plan, instances = workload.setup(1)
    real, calls = pgauge.pn_apply, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pgauge, "pn_apply", counted)
    workload.run(plan, instances[0])
    assert len(calls) == 2


# the numpy.fft entry points that perfbench/run.py --trace 1 counts
FFT_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def test_matrix_chain_operation_keeps_its_inner_work(workloads, monkeypatch):
    # pgauge.inner_iterations and spectral_ops.fft_calls of the traced run:
    # one pl1_solve per inner iteration of the two Newton steps of the
    # direct attempt (16 over the six of the five-level continuation), and
    # the FFT calls of the whole chain.  The first step starts at P = I and
    # inverts L_I in closed form (one pl1_solve, where the inner solve took
    # two), and chi reads the solver's connection of the returned gauge.
    # The Fourier-space Newton step takes one batched transform each way per
    # inner iteration (99 FFT calls over the continuation; with seven
    # separate transforms per inner iteration the continuation took 323),
    # and the div, curl and grad of chi and of the absorbed residual take
    # one batched transform each way: 45 FFT calls, where per-table
    # transforms took 50
    workload = workloads["matrix-chain"]
    plan, instances = workload.setup(1)
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(pgauge, "pl1_solve", counting("pl1_solve", pgauge.pl1_solve))
    for name in FFT_ENTRY_POINTS:
        monkeypatch.setattr(np.fft, name, counting("fft", getattr(np.fft, name)))
    workload.run(plan, instances[0])
    assert counts["pl1_solve"] == 5
    assert counts["fft"] <= 45


def test_estimators_operation_transforms_each_input_once(workloads, monkeypatch):
    # spectral_ops.fft_calls of one estimators operation: bb_reconstruct
    # transforms its four potentials in one batched call and w1 in one
    # inverse, the Jacobian comparison takes grad phi from each right
    # side's spectrum in one inverse, real_from_imag_bound transforms h and
    # g in one call and T in one inverse, and grad, hodge_decompose and the
    # other value-level operators take one batched transform each way: 22
    # calls, where per-table transforms took 30 and, before the spectrum
    # level, 56
    workload = workloads["estimators"]
    plan, instances = workload.setup(1)
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return counted

    for name in FFT_ENTRY_POINTS:
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    workload.run(plan, instances[0])
    assert len(calls) <= 22
