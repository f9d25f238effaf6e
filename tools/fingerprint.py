"""Fingerprint what a checkout computes, and diff two fingerprints.

    python tools/fingerprint.py write [--repo DIR] OUT.json
    python tools/fingerprint.py diff BASE.json NEW.json

``write`` imports the program from DIR/src (default: this checkout) and
records, by name:

- every output array and value of the four benchmark workloads of
  DIR/perfbench/workloads.py, per seed (1-5) and instance, with the values their
  checks read: arrays by a SHA-256 digest of their dtype, shape and bytes,
  with their largest magnitude and root sum of squares; scalars exactly;
- every canonical report value of the 11 experiments at
  ``--grid-n 32 --seed 3 --trials 2`` and ``--grid-n 64 --seed 0
  --trials 4``: each metric's value, threshold and pass/fail, the exit
  code, every cell of the CSV files an experiment writes and a digest of
  its SVG charts.

``diff`` prints each name whose entry moved, with the relative move of a
scalar, or of an array's largest magnitude and root sum of squares, and
the names only one side has.  It exits 1 when anything differs.  Bit
identity is the tool's question, so it compares digests exactly; BLAS
kernels can differ between CPUs, so compare manifests written on one
machine.

BLAS and OpenMP run one thread, as the benchmark pins them.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.setdefault("CHIRALITY_LAB_THREADS", "1")

import numpy as np  # noqa: E402

REPORT_CONFIGS = (
    {"grid_n": 32, "seed": 3, "trials": 2},
    {"grid_n": 64, "seed": 0, "trials": 4},
)
WORKLOAD_ORDER = ("quat-chain", "matrix-chain", "estimators", "obstructed")
WORKLOAD_SEEDS = range(1, 6)


def _entry(value):
    """The manifest entry of one leaf: an array's digest and sizes, or the
    scalar itself (floats by repr, so that NaN and the last bit survive)."""
    if isinstance(value, np.ndarray) and value.ndim > 0:
        data = np.ascontiguousarray(value)
        digest = hashlib.sha256(
            f"{data.dtype.str}{data.shape}".encode() + data.tobytes()
        ).hexdigest()
        mags = np.abs(data.astype(complex) if data.dtype.kind == "c" else data.astype(float))
        return {
            "sha256": digest,
            "shape": list(data.shape),
            "max": repr(float(np.max(mags))) if mags.size else "0.0",
            "rss": repr(float(np.sqrt(np.sum(mags**2)))),
        }
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.item()
    if isinstance(value, (bool, int, str)) or value is None:
        return {"value": value}
    return {"value": repr(value)}


def _flatten(obj, name, out):
    """Leaves of nested results under slash-joined names."""
    if isinstance(obj, dict):
        for key in obj:
            _flatten(obj[key], f"{name}/{key}", out)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(item, f"{name}/{i}", out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _flatten(getattr(obj, f.name), f"{name}/{f.name}", out)
    elif isinstance(obj, BaseException):
        out[name] = {"value": f"{type(obj).__name__}: {obj}"}
    elif hasattr(obj, "__dict__") and not isinstance(obj, np.ndarray):
        for key, item in vars(obj).items():
            _flatten(item, f"{name}/{key}", out)
    else:
        out[name] = _entry(obj)


def workload_entries():
    import workloads

    out = {}
    for wname in WORKLOAD_ORDER:
        work = workloads.WORKLOADS[wname]
        for seed in WORKLOAD_SEEDS:
            plan, instances = work.setup(seed)
            for k, inst in enumerate(instances):
                prefix = f"workload/{wname}/seed{seed}/inst{k}"
                try:
                    result = work.run(plan, inst)
                except Exception as exc:  # a failed operation is a value too
                    out[f"{prefix}/error"] = {"value": f"{type(exc).__name__}: {exc}"}
                    continue
                _flatten(result, f"{prefix}/out", out)
                for check, value, passed in work.check(plan, inst, result):
                    out[f"{prefix}/check/{check}"] = _entry(value)
                    out[f"{prefix}/check/{check}/pass"] = {"value": bool(passed)}
    return out


def report_entries():
    from chirality_lab.experiments import EXPERIMENTS, run_experiment
    from chirality_lab.reporting import ExperimentConfig

    out = {}
    for cfg in REPORT_CONFIGS:
        tag = "n{grid_n}-seed{seed}-trials{trials}".format(**cfg)
        for experiment in sorted(EXPERIMENTS):
            prefix = f"report/{tag}/{experiment}"
            with tempfile.TemporaryDirectory() as tmp:
                report = run_experiment(
                    ExperimentConfig(experiment=experiment, out=tmp, **cfg)
                )
                for m in report.metrics:
                    d = m.as_dict()
                    out[f"{prefix}/{d['name']}"] = _entry(d["value"])
                    out[f"{prefix}/{d['name']}/threshold"] = _entry(d["threshold"])
                    out[f"{prefix}/{d['name']}/pass"] = {"value": d["pass"]}
                out[f"{prefix}/exit"] = {"value": 0 if report.all_passed else 1}
                for fname in sorted(os.listdir(tmp)):
                    path = os.path.join(tmp, fname)
                    with open(path, "rb") as fh:
                        data = fh.read()
                    if fname.endswith(".csv"):
                        rows = list(csv.reader(io.StringIO(data.decode())))
                        header = rows[0] if rows else []
                        for r, row in enumerate(rows[1:]):
                            for col, cell in zip(header, row):
                                out[f"{prefix}/{fname}/{r}/{col}"] = {"value": cell}
                    else:
                        out[f"{prefix}/{fname}"] = {
                            "sha256": hashlib.sha256(data).hexdigest()
                        }
    return out


def _as_float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _rel(a, b):
    a, b = _as_float(a), _as_float(b)
    if a is None or b is None:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / max(abs(a), abs(b), 1e-300)


def diff(base, new):
    """Lines naming each moved entry; empty when the manifests agree."""
    lines = []
    for name in sorted(set(base) | set(new)):
        if name not in new:
            lines.append(f"only in base: {name}")
            continue
        if name not in base:
            lines.append(f"only in new: {name}")
            continue
        a, b = base[name], new[name]
        if a == b:
            continue
        if "sha256" in a and "sha256" in b and "max" in a and "max" in b:
            lines.append(
                f"{name}: array moved, max {a['max']} -> {b['max']} "
                f"(rel {_rel(a['max'], b['max']):.3g}), rss {a['rss']} -> {b['rss']} "
                f"(rel {_rel(a['rss'], b['rss']):.3g})"
            )
        elif "sha256" in a or "sha256" in b:
            lines.append(f"{name}: digest moved")
        else:
            rel = _rel(a.get("value"), b.get("value"))
            move = "" if rel is None else f" (rel {rel:.3g})"
            lines.append(f"{name}: {a.get('value')!r} -> {b.get('value')!r}{move}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="write the manifest of a checkout")
    w.add_argument("out")
    w.add_argument("--repo", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    d = sub.add_parser("diff", help="print the entries that moved")
    d.add_argument("base")
    d.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "write":
        repo = os.path.abspath(args.repo)
        sys.path[:0] = [os.path.join(repo, "perfbench"), os.path.join(repo, "src")]
        manifest = {**workload_entries(), **report_entries()}
        with open(args.out, "w") as fh:
            json.dump(manifest, fh, indent=0, sort_keys=True)
        print(f"{len(manifest)} entries -> {args.out}")
        return 0

    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    lines = diff(base, new)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(set(base) | set(new))} entries differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
