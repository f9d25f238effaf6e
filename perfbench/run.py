"""chirality-lab benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload quat-chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One caller runs whole rounds of the workload's operations, each
starting when the previous one returns, until the next round would end more
than half a round past ``--seconds``.  Every output is checked; an operation
that raises or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics.  The last line
of standard output is the result object; the line before it carries the
machine and thread settings.  Both, with per-operation records, also go to
``.perfbench_out/`` in the checkout, next to the traced run's spans.
"""

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("quat-chain", "matrix-chain", "estimators", "obstructed")
PROGRAM_MODULES = (
    "compensation", "field_core", "gauge", "hyperunitary", "norms", "pgauge",
    "spectral_ops", "systems",
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, " + ", ".join(f"chirality_lab.{m}" for m in PROGRAM_MODULES)
    + "; print(time.perf_counter() - t)"
)


def pin_threads():
    """Cap BLAS/OpenMP threads at nproc, defaulting to one, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, "1"))
        except ValueError:
            want = 1
        os.environ[var] = str(min(max(want, 1), nproc))
    return nproc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import the program from src/ of this checkout; returns the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "chirality_lab", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401

    import chirality_lab
    for module in PROGRAM_MODULES:
        importlib.import_module(f"chirality_lab.{module}")
    elapsed = time.perf_counter() - start
    if not os.path.abspath(chirality_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: chirality_lab imported from {chirality_lab.__file__}, not {SRC}")
    return elapsed


def run_op(workload, plan, inst):
    """One operation: (wall seconds, ok, check values or error text)."""
    start = time.perf_counter()
    try:
        out = workload.run(plan, inst)
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        checks = workload.check(plan, inst, out)
    except Exception as exc:  # so is one whose output cannot be checked
        return elapsed, False, f"check raised {type(exc).__name__}: {exc}"
    ok = all(bool(passed) for _, _, passed in checks)
    return elapsed, ok, {name: value for name, value, _ in checks}


def run_round(workload, plan, instances, records):
    """One operation per instance, in order; returns the operation times and
    appends one record per operation."""
    times = []
    for index, inst in enumerate(instances):
        elapsed, ok, detail = run_op(workload, plan, inst)
        times.append(elapsed)
        records.append({"instance": index, "seconds": elapsed, "ok": ok, "checks": detail})
    return times


def repeat(step, seconds):
    """Call `step` until the next call would end over half a call past
    `seconds`; returns the results of the calls."""
    start = time.perf_counter()
    results = []
    while True:
        step_start = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + 0.5 * (now - step_start) >= seconds:
            return results


def repeatable(records):
    """Each instance's check values agree exactly across rounds."""
    seen = {}
    for rec in records:
        if rec["ok"]:
            key = json.dumps(rec["checks"], sort_keys=True, default=float)
            if seen.setdefault(rec["instance"], key) != key:
                return False
    return True


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args, nproc):
    import importlib.metadata
    import platform

    import numpy

    from chirality_lab import field_core

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "have_compiled_kernels": field_core.HAVE_COMPILED_KERNELS,
        "threads": {
            var: os.environ.get(var)
            for var in ("CHIRALITY_LAB_THREADS",) + THREAD_VARS
        },
    }


def fresh_import_seconds():
    """Import time of the program in a fresh interpreter (the caller's own
    import is a single sample, and the first one in a checkout compiles)."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(workload, args, import_s):
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(fresh_import_seconds())
        start = time.perf_counter()
        plan, instances = workload.setup(args.seed)
        setups.append(time.perf_counter() - start)
    records = []
    rounds = repeat(lambda: run_round(workload, plan, instances, records), args.seconds)
    done = sum(rec["ok"] for rec in records)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "op_s_median": (statistics.median(sum(r) / len(r) for r in rounds), "s"),
        "ops_per_s": (done / sum(rec["seconds"] for rec in records), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"import_s": import_s, "fresh_imports_s": imports, "setups_s": setups}
    return records, metrics, extra


PER_OP_COUNTS = (
    "spectral_ops.calls", "spectral_ops.fft_calls", "spectral_ops.fft_points",
    "field_core.calls", "field_core.points",
    "hyperunitary.matmul_calls", "hyperunitary.exp_calls",
    "gauge.levels", "gauge.newton_steps", "gauge.inner_iterations",
    "gauge.residual_evals",
    "pgauge.levels", "pgauge.inner_iterations", "pgauge.residual_evals",
    "pgauge.retractions",
    "norms.calls", "norms.points_sorted", "compensation.calls",
)
PER_OP_SELF = (
    "spectral_ops", "field_core", "hyperunitary", "gauge", "pgauge", "norms",
    "compensation",
)


def traced(workload, args):
    """Traced set-up, then pairs of one untraced and one traced round.

    Per-layer values are per traced operation, except systems.self_s, which
    is per set-up.  trace.overhead_s is the median over pairs of the traced
    minus the untraced time per operation; pairing keeps a drift of the
    machine's speed out of it.
    """
    import tracer as tracing

    start = time.perf_counter()
    tracer = tracing.Tracer()

    def traced_call(fn):
        tracer.install()
        try:
            return fn()
        finally:
            tracer.uninstall()

    plan, instances = traced_call(lambda: workload.setup(args.seed))
    at_setup = tracer.snapshot()
    records = []

    def pair():
        plain = run_round(workload, plan, instances, records)
        with_trace = traced_call(lambda: run_round(workload, plan, instances, records))
        return (sum(with_trace) - sum(plain)) / len(instances)

    overheads = repeat(pair, args.seconds - (time.perf_counter() - start))
    at_end = tracer.snapshot()
    ops = len(overheads) * len(instances)

    def per_op(key):
        return (at_end.get(key, 0) - at_setup.get(key, 0)) / ops

    metrics = {key: (per_op(key), "count") for key in PER_OP_COUNTS}
    for layer in PER_OP_SELF:
        metrics[f"{layer}.self_s"] = (per_op(f"{layer}.self_s"), "s")
    metrics["systems.self_s"] = (at_setup["systems.self_s"], "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return records, metrics, {"tracer": tracer, "spans": len(tracer.spans)}


def main(argv=None):
    args = parse_args(argv)
    nproc = pin_threads()
    import_s = import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    info = environment(args, nproc)
    if args.trace:
        records, metrics, extra = traced(workload, args)
    else:
        records, metrics, extra = end_to_end(workload, args, import_s)

    failed = sum(not rec["ok"] for rec in records)
    for rec in records:
        if not rec["ok"]:
            print(f"perfbench: failed operation {json.dumps(rec, default=float)}",
                  file=sys.stderr)
    result = {
        "correct": repeatable(records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tracer = extra.pop("tracer", None)
    if tracer is not None:
        tracer.write(stem + "-spans.npz")
    with open(stem + ".json", "w") as fh:
        json.dump({"info": info, "extra": extra, "result": result, "operations": records},
                  fh, indent=1, default=float)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
