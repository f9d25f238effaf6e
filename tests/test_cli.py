import json
import os

import numpy as np
import pytest

from chirality_lab.cli import main
from chirality_lab.experiments import EXPERIMENTS, run_experiment
from chirality_lab.reporting import (
    ANCHORS,
    ExperimentConfig,
    Metric,
    RunReport,
    worst_of,
    write_svg_chart,
)


def test_config_defaults_and_validation():
    cfg = ExperimentConfig(experiment="ops-verify")
    assert cfg.grid_n == 64
    assert cfg.eps0 == 0.1
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="x", grid_n=-2)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="x", tol=0.0)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text("# comment\ngrid_n = 32\neps0 = 0.05\nseed = 7\n")
    cfg = ExperimentConfig.from_file(path, {"experiment": "ops-verify"})
    assert cfg.grid_n == 32
    assert cfg.eps0 == 0.05
    assert cfg.seed == 7
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid_n 32\n")
    with pytest.raises(ValueError, match="key = value"):
        ExperimentConfig.from_file(bad, {})
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("gridn = 32\n")
    with pytest.raises(ValueError, match="unknown config key"):
        ExperimentConfig.from_file(unknown, {})


def test_metric_pass_semantics():
    assert Metric("a", 1e-13, 1e-12).passed is True
    assert Metric("a", 1e-11, 1e-12).passed is False
    assert Metric("a", 0.99, 0.95, higher_is_better=True).passed is True
    assert Metric("a", 0.5, None).passed is None
    assert Metric("a", float("nan"), 1.0).passed is False


def test_worst_of_propagates_non_finite_values():
    nan = float("nan")
    assert max([0.5, nan]) == 0.5  # the builtin hides a NaN that comes later
    assert np.isnan(worst_of([0.5, nan]))
    assert np.isnan(worst_of([nan, 0.5]))
    assert np.isnan(worst_of([0.5, float("inf")]))
    assert np.isnan(worst_of([2.0, -float("inf")], higher_is_better=True))
    assert worst_of([0.5, 2.0, 1.0]) == 2.0
    assert worst_of(iter([0.5, 2.0, 1.0]), higher_is_better=True) == 0.5


def test_contraction_gates_fail_on_failed_trials(tmp_path, monkeypatch):
    import chirality_lab.experiments as experiments

    def quaternion_run(plan, seed, grad_alpha, tol=1e-8):
        # the fourth quaternion trial's B fixed point did not converge
        rec = {"seed": seed, "grad_alpha": grad_alpha, "grid_n": plan.grid.n,
               "residual": 1e-10, "theta": 0.1, "steps": 16, "t_reached": 1.0,
               "stalled": seed == 1, "factor": 0.5, "b_converged": seed != 3}
        if seed == 2:  # a failed precondition records a NaN factor
            rec.update(factor=float("nan"), error="precondition")
            del rec["b_converged"]
        return rec

    def matrix_run(plan, seed, grad_alpha, tol=1e-8):
        # the first matrix trial's B fixed point did not converge; the
        # second is a partial gauge that stalled before t = 1
        return {"seed": seed, "grad_alpha": grad_alpha, "grid_n": plan.grid.n,
                "residual": 1e-10, "theta": 0.1, "steps": 16,
                "t_reached": 0.99 if seed == 101 else 1.0,
                "absorbed_residual": 1e-9, "factor": 0.5,
                "b_converged": seed != 100}

    monkeypatch.setattr(experiments, "contraction_run", quaternion_run)
    monkeypatch.setattr(experiments, "matrix_contraction_run", matrix_run)
    report = run_experiment(ExperimentConfig(
        experiment="contraction", grid_n=8, seed=0, trials=4, out=str(tmp_path)
    ))
    failed = {m.name for m in report.metrics if m.passed is False}
    assert failed == {
        "quaternion_factor_max", "quaternion_stalled_trials",
        "quaternion_errored_trials", "quaternion_b_unconverged_trials",
        "matrix_partial_trials", "matrix_b_unconverged_trials",
    }
    assert not report.all_passed


def test_report_round_trip():
    report = RunReport("demo", {"grid_n": 64}, ["hodge-symbols"])
    report.add("x", 0.5, 1.0)
    report.wall_ms = 12.0
    parsed = json.loads(report.to_json())
    assert parsed["experiment"] == "demo"
    assert parsed["metrics"][0]["pass"] is True
    again = json.loads(report.to_json())
    assert parsed == again
    assert "wall_ms" not in json.loads(report.canonical_json())


def test_cli_ops_verify(tmp_path, capsys):
    code = main(["ops-verify", "--out", str(tmp_path), "--grid-n", "32"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all thresholds met" in out
    assert (tmp_path / "ops-verify.json").exists()
    assert (tmp_path / "ops-verify.csv").exists()
    payload = json.loads((tmp_path / "ops-verify.json").read_text())
    assert payload["config"]["grid_n"] == 32
    assert "wall_ms" in payload


def test_cli_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid_n = not_a_number\n")
    code = main(["ops-verify", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()  # no partial report
    assert "bad configuration" in capsys.readouterr().err


def test_cli_format_flags(tmp_path):
    main(["ops-verify", "--out", str(tmp_path / "j"), "--grid-n", "16", "--json"])
    assert (tmp_path / "j" / "ops-verify.json").exists()
    assert not (tmp_path / "j" / "ops-verify.csv").exists()
    main(["ops-verify", "--out", str(tmp_path / "c"), "--grid-n", "16", "--csv"])
    assert (tmp_path / "c" / "ops-verify.csv").exists()
    assert not (tmp_path / "c" / "ops-verify.json").exists()


def test_grid_n_8_identities_still_pass(tmp_path):
    code = main(["ops-verify", "--out", str(tmp_path), "--grid-n", "8"])
    assert code == 0


def test_svg_chart_deterministic(tmp_path):
    xs = [1.0, 2.0, 4.0]
    ys = [0.5, 0.25, 0.125]
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    write_svg_chart(p1, [("decay", xs, ys)], title="t", logx=True, logy=True)
    write_svg_chart(p2, [("decay", xs, ys)], title="t", logx=True, logy=True)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"<svg")


def small_config(experiment, out, seed=0):
    return ExperimentConfig(
        experiment=experiment, grid_n=32, seed=seed, trials=3, out=str(out),
        eps0=0.05,
    )


def test_determinism_byte_identical(tmp_path):
    reports = []
    for run in ("one", "two"):
        out = tmp_path / run
        out.mkdir()
        cfg = ExperimentConfig(
            experiment="gauge-solve", grid_n=32, seed=3, out=str(out)
        )
        reports.append(run_experiment(cfg))
    assert reports[0].canonical_json() == reports[1].canonical_json()
    a = (tmp_path / "one" / "gauge_sweep.csv").read_bytes()
    b = (tmp_path / "two" / "gauge_sweep.csv").read_bytes()
    assert a == b
    a = (tmp_path / "one" / "gauge_sweep.svg").read_bytes()
    b = (tmp_path / "two" / "gauge_sweep.svg").read_bytes()
    assert a == b


def test_contraction_report_independent_of_thread_count(tmp_path, monkeypatch):
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CHIRALITY_LAB_THREADS", threads)
        out = tmp_path / threads
        out.mkdir()
        cfg = ExperimentConfig(
            experiment="contraction", grid_n=16, seed=0, trials=2, out=str(out)
        )
        reports.append(run_experiment(cfg).canonical_json())
    assert reports[0] == reports[1]


def test_seed_changes_seeded_fields_only(tmp_path):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        out.mkdir()
        cfg = ExperimentConfig(
            experiment="bootstrap-demo", grid_n=32, seed=seed, out=str(out)
        )
        rep = run_experiment(cfg)
        outs.append(json.loads(rep.canonical_json()))
    # the arithmetic ledger is seed-independent; measured norms differ
    fixed = [m for m in outs[0]["metrics"] if m["name"] == "exponent_fixed_point_defect"]
    fixed2 = [m for m in outs[1]["metrics"] if m["name"] == "exponent_fixed_point_defect"]
    assert fixed == fixed2
    assert outs[0]["config"]["seed"] != outs[1]["config"]["seed"]


def test_anchor_coverage(tmp_path):
    covered = set()
    for name in EXPERIMENTS:
        out = tmp_path / name
        out.mkdir()
        cfg = ExperimentConfig(
            experiment=name, grid_n=32, seed=0, trials=2, out=str(out),
            eps0=0.05,
        )
        report = run_experiment(cfg)
        unknown = set(report.anchors) - ANCHORS
        assert not unknown, f"{name} emits unregistered anchors {unknown}"
        covered |= set(report.anchors)
    missing = ANCHORS - covered
    assert not missing, f"anchors never exercised: {missing}"


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import chirality_lab

    for info in pkgutil.iter_modules(chirality_lab.__path__):
        module = importlib.import_module(f"chirality_lab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
