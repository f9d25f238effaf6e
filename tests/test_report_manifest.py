"""The canonical reports of every experiment against a stored manifest.

The manifest, report_manifest.json beside this file, holds for each of the
experiments at ``--grid-n 32 --seed 3 --trials 2`` its exit code and, in
report order, every gate's name, value, threshold and pass/fail.  Names,
thresholds, pass/fail and exit codes must match exactly and values to
VALUE_REL_TOL.  A change that moves a value past the tolerance rewrites
the manifest,

    PYTHONPATH=src python tests/test_report_manifest.py

and names each moved value in CHANGES.md.  Bit identity is the question of
tools/fingerprint.py, which compares every report value, CSV cell and chart
digest exactly; BLAS kernels can differ between CPUs, so this check leaves
rounding-level moves to it.
"""

import json
import math
import pathlib
import sys
import tempfile

from chirality_lab.experiments import EXPERIMENTS, run_experiment
from chirality_lab.reporting import ExperimentConfig

MANIFEST = pathlib.Path(__file__).with_name("report_manifest.json")
CONFIG = {"grid_n": 32, "seed": 3, "trials": 2}
VALUE_REL_TOL = 1e-6


def report_manifest():
    """{experiment: {"exit": code, "gates": [[name, value, threshold, pass]]}}
    of one run of every experiment at CONFIG."""
    out = {}
    for name in sorted(EXPERIMENTS):
        with tempfile.TemporaryDirectory() as tmp:
            report = run_experiment(ExperimentConfig(experiment=name, out=tmp, **CONFIG))
        gates = [m.as_dict() for m in report.metrics]
        out[name] = {
            "exit": 0 if report.all_passed else 1,
            "gates": [[g["name"], g["value"], g["threshold"], g["pass"]] for g in gates],
        }
    return {"config": CONFIG, "experiments": out}


def values_agree(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= VALUE_REL_TOL * max(abs(a), abs(b))


def test_reports_match_the_stored_manifest():
    stored = json.loads(MANIFEST.read_text())
    assert stored["config"] == CONFIG
    now = report_manifest()["experiments"]
    assert sorted(now) == sorted(stored["experiments"])
    moved = []
    for name, report in now.items():
        ref = stored["experiments"][name]
        assert report["exit"] == ref["exit"], name
        assert [g[0] for g in report["gates"]] == [g[0] for g in ref["gates"]], name
        for (gate, value, threshold, passed), (_, ref_value, ref_threshold, ref_passed) in zip(
            report["gates"], ref["gates"]
        ):
            assert (threshold, passed) == (ref_threshold, ref_passed), (name, gate)
            if not values_agree(value, ref_value):
                moved.append(f"{name}/{gate}: {ref_value!r} -> {value!r}")
    assert not moved, moved


def manifest_text(manifest):
    """The manifest as JSON with one gate a line, so a diff shows each move."""
    experiments = ",\n".join(
        f' {json.dumps(name)}: {{"exit": {report["exit"]}, "gates": [\n'
        + ",\n".join(f"  {json.dumps(gate)}" for gate in report["gates"])
        + "]}"
        for name, report in manifest["experiments"].items()
    )
    return f'{{"config": {json.dumps(manifest["config"])}, "experiments": {{\n{experiments}}}}}\n'


if __name__ == "__main__":
    MANIFEST.write_text(manifest_text(report_manifest()))
    print(f"wrote {MANIFEST}", file=sys.stderr)
