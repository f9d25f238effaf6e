"""Experiment configuration, run reports, and deterministic output writers.

Reports serialize as JSON with the schema
{experiment, config, anchors, metrics: [{name, value, threshold, pass}],
wall_ms} plus one CSV row per metric.  Every metric is a gate: threshold
is always a number and pass always a boolean.  All writes are atomic
(temp file + rename).  wall_ms is the only volatile field; canonical_json()
omits it so byte-level determinism can be checked.
"""

import json
import os
import tempfile
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from chirality_lab.field_core import Grid2
from chirality_lab.jms import JmsParams

__all__ = [
    "ANCHORS",
    "ExperimentConfig",
    "Metric",
    "RunReport",
    "worst_of",
    "atomic_write",
    "write_csv",
    "write_svg_chart",
    "thread_count",
    "run_parallel",
]

# coverage tags: every in-scope piece of the theory exercised by the suite
ANCHORS = frozenset(
    {
        "chirality-system-residual",
        "holo-split",
        "n2-conjugate-form",
        "dirac-form",
        "bootstrap-exponent-ledger",
        "pseudo-energy-identity",
        "bb-weak-l2",
        "bb-l2",
        "real-from-imag",
        "hodge-symbols",
        "cauchy-solve",
        "frame-conjugation",
        "jms-counterexample",
        "conjugate-potential",
        "quaternion-form",
        "gauge-operator",
        "gauge-linearization",
        "zeta-wente",
        "contraction-chain",
        "morrey-decay",
        "omega-pair",
        "block-sign-rule",
        "doubled-system",
        "gamma-structure",
        "anti-self-duality",
        "hyper-unitary-algebra",
        "chi-potential",
        "contraction-chain-matrix",
    }
)


def thread_count():
    raw = os.environ.get("CHIRALITY_LAB_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return min(4, os.cpu_count() or 1)


def run_parallel(fn, args_list):
    """Map fn over args in a thread pool, results in argument order.
    Each argument carries its own seed, so scheduling cannot leak in."""
    from concurrent.futures import ThreadPoolExecutor

    workers = thread_count()
    if workers == 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


@dataclass
class ExperimentConfig:
    experiment: str = ""
    grid_n: int = 64
    length: float = 2.0 * np.pi
    eps0: float = 0.1
    beta: float = 1.5
    r0: float = float(np.exp(4.5))
    tol: float = 1e-8
    seed: int = 0
    trials: int = 0          # 0 means the experiment's documented default
    out: str = "."

    def __post_init__(self):
        for name in ("eps0", "tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.seed < 0 or self.trials < 0:
            raise ValueError("seed and trials must be nonnegative")
        # the grid and the jms parameters hold the rules on their fields
        Grid2(self.grid_n, self.length)
        JmsParams(self.beta, self.r0)

    @classmethod
    def from_file(cls, path, overrides):
        values = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                values[key] = val
        merged = cls._coerce(values)
        merged.update(overrides)
        return cls(**merged)

    @staticmethod
    def _coerce(values):
        out = {}
        types = {f.name: f.type for f in ExperimentConfig.__dataclass_fields__.values()}
        for key, val in values.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            kind = types[key]
            if kind in (int, "int"):
                out[key] = int(val)
            elif kind in (float, "float"):
                out[key] = float(val)
            else:
                out[key] = val
        return out

    def echo(self):
        return asdict(self)


def worst_of(values, higher_is_better=False):
    """The value a gate judges a batch by: the largest of values, or the
    smallest when higher is better; NaN when any value is NaN or infinite.

    Builtin max and min drop a NaN that does not come first
    (max([0.5, nan]) == 0.5), so a failed trial could pass by its position.
    """
    vals = [float(v) for v in values]
    if not all(np.isfinite(vals)):
        return float("nan")
    return min(vals) if higher_is_better else max(vals)


@dataclass
class Metric:
    name: str
    value: float
    threshold: float
    higher_is_better: bool = False

    def __post_init__(self):
        if self.threshold is None:
            raise TypeError(f"metric {self.name!r} needs a threshold")

    @property
    def passed(self):
        if not np.isfinite(self.value):
            return False
        if self.higher_is_better:
            return bool(self.value >= self.threshold)
        return bool(self.value <= self.threshold)

    def as_dict(self):
        return {
            "name": self.name,
            "value": float(self.value),
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass
class RunReport:
    experiment: str
    config: dict
    anchors: list
    metrics: list = field(default_factory=list)
    wall_ms: float = 0.0

    def add(self, name, value, threshold, higher_is_better=False):
        self.metrics.append(Metric(name, value, threshold, higher_is_better))

    @property
    def all_passed(self):
        return all(m.passed for m in self.metrics)

    def payload(self, include_wall=True):
        data = {
            "experiment": self.experiment,
            "config": self.config,
            "anchors": sorted(self.anchors),
            "metrics": [m.as_dict() for m in self.metrics],
        }
        if include_wall:
            data["wall_ms"] = round(self.wall_ms, 3)
        return data

    def to_json(self):
        return json.dumps(self.payload(), sort_keys=True, indent=1) + "\n"

    def canonical_json(self):
        """Serialization without the volatile wall-clock field and the
        environmental output location; byte-identical across equal runs."""
        data = self.payload(include_wall=False)
        data["config"] = {k: v for k, v in data["config"].items() if k != "out"}
        return json.dumps(data, sort_keys=True, indent=1) + "\n"

    def metrics_csv(self):
        lines = ["name,value,threshold,pass"]
        for m in self.metrics:
            d = m.as_dict()
            lines.append(
                f"{d['name']},{_fmt(d['value'])},{_fmt(d['threshold'])},{_fmt(d['pass'])}"
            )
        return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, np.integer):
        return repr(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return repr(v)


def atomic_write(path, data):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    if isinstance(data, str):
        data = data.encode()
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if not isinstance(c, str) else c for c in row))
    atomic_write(path, "\n".join(lines) + "\n")


def write_svg_chart(path, series, title="", logx=False, logy=False):
    """Minimal deterministic SVG line chart, 640 x 420.

    series: list of (label, xs, ys).  No text beyond axis bounds and labels.
    """
    width, height, pad = 640, 420, 56.0
    xs_all = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    if logx:
        xs_all = np.log10(xs_all)
    if logy:
        ys_all = np.log10(np.maximum(ys_all, 1e-300))
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        if logx:
            x = np.log10(x)
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y):
        if logy:
            y = np.log10(max(y, 1e-300))
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    colors = ["#1f6fb2", "#b23a1f", "#3a9f4b", "#7d3ab2", "#b2902a"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="#999"/>',
    ]
    for idx, (label, xs, ys) in enumerate(series):
        color = colors[idx % len(colors)]
        points = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{pad + 6}" y="{pad + 16 + 15 * idx}" fill="{color}" '
            f'font-family="monospace" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ms = (time.perf_counter() - self.start) * 1000.0
        return False
