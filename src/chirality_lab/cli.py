"""Command line front end.

    chirality-lab <experiment> [--config PATH] [--grid-n N] [--eps0 X]
                               [--seed S] [--trials T] [--out DIR]
                               [--json] [--csv]

Experiments: ops-verify | hodge-check | bb-check | wente-check |
gauge-solve | reformulate | contraction | morrey-decay | bootstrap-demo |
jms | full-chain.

A flat "key = value" config file provides defaults; command line flags win.
Reports land in --out as <experiment>.json / <experiment>.csv (both by
default, or only the requested formats).  Exit code 0 iff every metric
passes, 1 on a failed gate, 2 on a bad configuration (no report).
"""

import argparse
import os
import sys

from chirality_lab.experiments import EXPERIMENTS, run_experiment
from chirality_lab.reporting import ExperimentConfig, atomic_write


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chirality-lab",
        description="spectral laboratory for chirality systems on the torus",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--grid-n", type=int, dest="grid_n")
    parser.add_argument("--eps0", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--r0", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--out", metavar="DIR")
    parser.add_argument("--json", action="store_true", help="write the JSON report")
    parser.add_argument("--csv", action="store_true", help="write the metrics CSV")
    return parser


def config_from_args(args):
    overrides = {"experiment": args.experiment}
    for key in ("grid_n", "eps0", "seed", "trials", "beta", "r0", "tol", "out"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.config:
        return ExperimentConfig.from_file(args.config, overrides)
    return ExperimentConfig(**overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"chirality-lab: bad configuration: {exc}", file=sys.stderr)
        return 2

    report = run_experiment(config)

    write_json = args.json or not args.csv
    write_metrics_csv = args.csv or not args.json
    base = os.path.join(config.out, config.experiment)
    if write_json:
        atomic_write(base + ".json", report.to_json())
    if write_metrics_csv:
        atomic_write(base + ".csv", report.metrics_csv())

    for metric in report.metrics:
        status = "pass" if metric.passed else "FAIL"
        print(f"[{status}] {metric.name} = {float(metric.value)}")
    print(
        f"{config.experiment}: "
        f"{'all thresholds met' if report.all_passed else 'THRESHOLD FAILURES'} "
        f"({report.wall_ms:.0f} ms)"
    )
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
