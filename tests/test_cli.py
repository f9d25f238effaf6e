import collections
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from chirality_lab import norms, pgauge
from chirality_lab.cli import main
from chirality_lab.compensation import PreconditionError
from chirality_lab.experiments import (
    EXPERIMENTS,
    contraction_run,
    matrix_contraction_run,
    run_experiment,
)
from chirality_lab.field_core import Grid2
from chirality_lab.hyperunitary import grid_last
from chirality_lab.reporting import (
    ANCHORS,
    ExperimentConfig,
    Metric,
    RunReport,
    worst_of,
    write_svg_chart,
)
from chirality_lab.spectral_ops import SpectralPlan


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
    assert Metric("a", float("nan"), 1.0).passed is False
    # every metric is a gate: none can be built without a threshold
    with pytest.raises(TypeError):
        Metric("a", 0.5)
    with pytest.raises(TypeError):
        Metric("a", 0.5, None)


def test_worst_of_propagates_non_finite_values():
    nan = float("nan")
    assert max([0.5, nan]) == 0.5  # the builtin hides a NaN that comes later
    assert np.isnan(worst_of([0.5, nan]))
    assert np.isnan(worst_of([nan, 0.5]))
    assert np.isnan(worst_of([0.5, float("inf")]))
    assert np.isnan(worst_of([2.0, -float("inf")], higher_is_better=True))
    assert worst_of([0.5, 2.0, 1.0]) == 2.0
    assert worst_of(iter([0.5, 2.0, 1.0]), higher_is_better=True) == 0.5


# the trial gates of each experiment that runs the gauge chain, by path
CHAIN_PATHS = {
    "contraction": ("quaternion", "matrix"),
    "gauge-solve": ("quaternion",),
    "morrey-decay": ("quaternion",),
    "full-chain": ("quaternion", "matrix"),
}
# the gates a failed trial trips: an errored trial never closes its B
TRIPPED = {
    "stall": ("stalled",),
    "error": ("errored", "b_unconverged"),
    "b_unconverged": ("b_unconverged",),
}


def stub_chain(monkeypatch, mode):
    """Replace the three stages of the chain pipeline by stubs whose first
    trial on each path (matrix size d = 1 or d = 4) stalls, fails a
    precondition or leaves B unconverged (mode); every later trial
    succeeds."""

    def first_fails(fn, dim):
        calls = collections.Counter()

        def run(plan, table, *args, **kwargs):
            # the matrix size of the gauge target, the connection or the gauge
            d = dim(table)
            calls[d] += 1
            return fn(calls[d] == 1, plan, table, *args, **kwargs)
        return run

    def solve(fail, plan, v_target, *args, **kwargs):
        t = 0.5 if fail and mode == "stall" else 1.0
        eye = np.broadcast_to(np.eye(v_target.shape[-1], dtype=complex),
                              v_target.shape)
        zero = np.zeros_like(eye)
        # the solver's connection takes the matrix axes first
        stack = np.zeros((2,) + grid_last(zero).shape, dtype=complex)
        res = SimpleNamespace(
            residual=1e-10, theta=0.1, continuation_steps=5, t_reached=t,
            levels=((t, 0.5, t == 1.0),), p=(eye.copy(), zero),
            connection=(stack, stack),
        )
        if t < 1.0:
            raise pgauge.GaugeStall(t, res, 1e-6, 1e-7, 0.0, "step below DT_MIN")
        return res

    def potential(fail, plan, connection, *args, **kwargs):
        if fail and mode == "error":
            raise PreconditionError("stub precondition", 1.0)
        return np.zeros_like(connection[0][0]), 0.0

    def contract(fail, *args, **kwargs):
        return {"factor": 0.5, "b_converged": not (fail and mode == "b_unconverged"),
                "absorbed_residual": 1e-9}

    # the solve takes grid-first targets (n, n, d, d), chi and the
    # measurement the solver's layout (d, d, n, n)
    for name, fn, dim in (
        ("p_gauge_solve", solve, lambda v: v.shape[-1]),
        ("chi_from_connection", potential, lambda c: c[0].shape[-3]),
        ("p_contraction_chain", contract, lambda p: p[0].shape[-3]),
    ):
        monkeypatch.setattr(pgauge, name, first_fails(fn, dim))


def test_contraction_gates_fail_on_failed_trials(tmp_path, monkeypatch):
    # one failed trial per path fails that path's gate in every experiment
    # that runs the chain, and no other trial gate
    for mode, (experiment, paths) in itertools.product(TRIPPED, CHAIN_PATHS.items()):
        with monkeypatch.context() as patch:
            stub_chain(patch, mode)
            report = run_experiment(ExperimentConfig(
                experiment=experiment, grid_n=16, seed=0, trials=4,
                out=str(tmp_path),
            ))
        gates = {m.name: m.passed for m in report.metrics
                 if m.name.endswith("_trials")}
        assert set(gates) == {
            f"{p}_{g}_trials" for p in paths
            for g in ("stalled", "errored", "b_unconverged")
        }, experiment
        assert {name for name, ok in gates.items() if not ok} == {
            f"{p}_{g}_trials" for p in paths for g in TRIPPED[mode]
        }, (mode, experiment)
        assert not report.all_passed
        if experiment == "contraction":
            # an errored trial has a NaN factor and absorbed residual
            nan_gates = {"quaternion_factor_max", "matrix_factor_max",
                         "matrix_absorbed_residual_max"}
            failed = {m.name for m in report.metrics if m.passed is False}
            assert failed - set(gates) == (nan_gates if mode == "error" else set())


def test_fft_round_trip_gate_fails_on_a_faulty_transform(tmp_path, monkeypatch):
    # ops-verify round-trips the plan's own transforms, so a fault in any
    # one of the four fails the round-trip gate, and no other gate
    for name in ("forward", "inverse", "real_forward", "real_inverse"):
        transform = getattr(SpectralPlan, name)

        def faulty(self, *args, _transform=transform):
            return _transform(self, *args) * (1.0 + 1e-10)

        with monkeypatch.context() as patch:
            patch.setattr(SpectralPlan, name, faulty)
            report = run_experiment(ExperimentConfig(
                experiment="ops-verify", grid_n=16, seed=0, out=str(tmp_path),
            ))
        failed = {m.name for m in report.metrics if not m.passed}
        assert failed == {"fft_round_trip_rel_err"}, name



def _offset(orig):
    # a constant added to the output
    return lambda *args: orig(*args) + 1e-6


def _scaled(orig):
    return lambda *args: orig(*args) * (1.0 + 1e-10)


def _grad_perp_sign_error(orig):
    # (d2 f, d1 f) in place of (-d2 f, d1 f)
    def faulty(self, f):
        fx, fy = self.grad(f)
        return fy, fx
    return faulty


def _hodge_mean_offset(orig):
    def faulty(self, a1, a2):
        alpha, beta, mean = orig(self, a1, a2)
        return alpha, beta, mean + 1e-6
    return faulty


# one planted fault per ops-verify gate: (the gate, where the fault goes,
# the fault, every gate it fails)
OPS_VERIFY_FAULTS = [
    ("plane_wave_dz_rel_err", SpectralPlan, "d_z", _offset,
     # d_zbar drops the constant again in the Laplacian identity
     {"plane_wave_dz_rel_err"}),
    ("plane_wave_dzbar_rel_err", SpectralPlan, "d_zbar", _offset,
     {"plane_wave_dzbar_rel_err", "dzbar_dz_quarter_laplacian_rel_err",
      "cauchy_right_inverse_rel_err"}),
    ("fft_round_trip_rel_err", SpectralPlan, "forward", _scaled,
     {"fft_round_trip_rel_err"}),
    ("dzbar_dz_quarter_laplacian_rel_err", SpectralPlan, "laplacian", _scaled,
     {"dzbar_dz_quarter_laplacian_rel_err"}),
    ("curl_grad_rel_err", SpectralPlan, "curl", _offset, {"curl_grad_rel_err"}),
    ("div_grad_perp_rel_err", SpectralPlan, "div", _offset,
     {"div_grad_perp_rel_err"}),
    ("hodge_reconstruction_rel_err", SpectralPlan, "hodge_decompose",
     _hodge_mean_offset, {"hodge_reconstruction_rel_err"}),
    ("hodge_orthogonality", SpectralPlan, "grad_perp", _grad_perp_sign_error,
     {"hodge_orthogonality", "hodge_reconstruction_rel_err",
      "div_grad_perp_rel_err"}),
    ("cauchy_right_inverse_rel_err", SpectralPlan, "cauchy_solve", _scaled,
     {"cauchy_right_inverse_rel_err"}),
    ("parseval_rel_err", SpectralPlan, "fourier_coefficients", _scaled,
     {"parseval_rel_err"}),
    ("lorentz_scaling_rel_err", norms, "lorentz_weak_l2", _offset,
     {"lorentz_scaling_rel_err"}),
]


@pytest.mark.parametrize(
    "gate, owner, name, fault, fails", OPS_VERIFY_FAULTS,
    ids=[case[0] for case in OPS_VERIFY_FAULTS],
)
def test_each_ops_verify_gate_fails_on_its_planted_fault(
    tmp_path, monkeypatch, gate, owner, name, fault, fails
):
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    report = run_experiment(ExperimentConfig(
        experiment="ops-verify", grid_n=16, seed=0, out=str(tmp_path),
    ))
    # every gate of the report has its fault
    assert {case[0] for case in OPS_VERIFY_FAULTS} == {m.name for m in report.metrics}
    assert {m.name for m in report.metrics if not m.passed} == fails
    assert gate in fails

def test_failed_trials_keep_their_gauge():
    # real n = 16 chain data: these trials stall near t = 1 and their partial
    # gauge fails chi's precondition; the record keeps the gauge's fields,
    # so the stalled gate counts them as well as the errored one
    plan16 = SpectralPlan(Grid2(16))
    for run, seed, t_reached in (
        (contraction_run, 0, 0.984375),
        (contraction_run, 2, 0.984375),
        (contraction_run, 3, 0.984375),
        (matrix_contraction_run, 102, 0.96875),
    ):
        rec = run(plan16, seed, 0.1, tol=1e-8)
        assert rec["stalled"], seed
        assert rec["t_reached"] == t_reached, seed
        assert np.isfinite(rec["residual"]) and rec["steps"] > 0, seed
        assert "not divergence free" in rec["error"], seed
        assert np.isnan(rec["factor"]) and not rec["b_converged"], seed


def test_morrey_decay_solves_each_gauge_once(tmp_path, monkeypatch):
    calls = []
    solve = pgauge.p_gauge_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pgauge, "p_gauge_solve", counted)
    run_experiment(ExperimentConfig(
        experiment="morrey-decay", grid_n=32, seed=0, trials=2, out=str(tmp_path)
    ))
    assert len(calls) == 2


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


@pytest.mark.parametrize("argv", [
    ["ops-verify", "--grid-n", "7"],
    ["ops-verify", "--grid-n", "6"],
    ["jms", "--beta", "1.0"],
    ["jms", "--r0", "10"],
    ["jms", "--r0", "0"],
])
def test_cli_rejects_a_bad_grid_or_jms_setting(tmp_path, capsys, argv):
    # exit 2 is a bad configuration; exit 1 would read as a failed gate
    code = main([*argv, "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()  # no report
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


def test_cli_contraction_writes_its_trial_table_beside_the_metrics(tmp_path):
    main(["contraction", "--out", str(tmp_path), "--grid-n", "16", "--trials", "2"])
    metrics = (tmp_path / "contraction.csv").read_text().splitlines()
    trials = (tmp_path / "contraction_trials.csv").read_text().splitlines()
    assert metrics[0] == "name,value,threshold,pass"
    assert trials[0].startswith("eps,seed,grid_n,")
    assert len(trials) == 1 + 2 + 2  # two trials on each path


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
        for m in report.payload()["metrics"]:
            # every threshold is a float, the trial-count and step gates
            # too; a bool or an int is not
            assert type(m["threshold"]) is float, (name, m)
            assert type(m["pass"]) is bool, (name, m)
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


def test_no_unused_imports():
    # an import that nothing reads, apart from __all__ re-exports and
    # imports marked "# noqa: F401"
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    unused = []
    for path in sorted([*root.glob("src/chirality_lab/*.py"), *root.glob("tests/*.py")]):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        imported = {}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                used |= {elt.value for elt in node.value.elts}
        unused += [
            f"{path.relative_to(root)}:{line} {name}"
            for name, line in imported.items() if name not in used
        ]
    assert not unused, unused


def test_settable_values():
    # parameters with defaults plus dataclass fields with defaults over
    # src/: a new knob is a visible edit of this count
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    count = 0
    for path in sorted(root.glob("src/chirality_lab/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                count += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    for stmt in node.body
                )
    assert count == 50


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="omega_antisymmetry reads 3.6e-11 against 1e-12 at n = 32 (ROADMAP item 6)",
)
def test_full_chain_passes_every_gate_at_n32(tmp_path):
    report = run_experiment(
        ExperimentConfig(experiment="full-chain", grid_n=32, out=str(tmp_path))
    )
    failed = [m.name for m in report.metrics if m.passed is False]
    if set(failed) - {"omega_antisymmetry"}:
        pytest.fail(f"gates other than the known one fail: {failed}")
    assert failed == []
