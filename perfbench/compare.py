"""Compare the benchmark results of two checkouts.

    python3 perfbench/compare.py BASE/.perfbench_out NEW/.perfbench_out

Each argument is the result directory run.py wrote in one checkout.  For
every workload and metric the table gives each side's run count, median
and quartiles, and the change of the median.  An end-to-end metric whose
median got worse by more than its bound in BENCHMARK.json is marked
REGRESSION; one whose spread (quartile distance over median) on either side
exceeds the bound is marked unresolved.  Settings that differ between the
two sides (processor count, versions, compiled kernels, thread variables)
are printed first: they make the comparison meaningless.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETTINGS = ("nproc", "machine", "python", "numpy", "scipy", "have_compiled_kernels", "threads")


def load(directory):
    """{(workload, trace): {metric: [values]}} and the settings seen."""
    values, settings = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path) as fh:
            run = json.load(fh)
        info = run["info"]
        metrics = values.setdefault((info["workload"], info["trace"]), {})
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        for key in SETTINGS:
            settings.setdefault(key, set()).add(json.dumps(info[key], sort_keys=True))
    return values, settings


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return med, q1, q3, spread


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    (base, base_set), (new, new_set) = (load(d) for d in argv)

    for key in SETTINGS:
        if base_set.get(key) != new_set.get(key):
            print(f"SETTINGS DIFFER {key}: {sorted(base_set.get(key, ()))} vs "
                  f"{sorted(new_set.get(key, ()))}")

    for workload, trace in sorted(set(base) & set(new)):
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':28s} {'runs':>7s} {'base median':>12s} {'new median':>12s}"
              f" {'change':>8s}  quartiles base | new")
        for name in base[(workload, trace)]:
            b, n = base[(workload, trace)][name], new[(workload, trace)].get(name)
            if not n:
                continue
            bm, bq1, bq3, bs = summary(b)
            nm, nq1, nq3, ns = summary(n)
            change = (nm - bm) / abs(bm) if bm else (0.0 if nm == bm else float("inf"))
            verdict = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                worse = change if e2e[name]["better"] == "lower" else -change
                if max(bs, ns) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
            print(f"  {name:28s} {len(b):>3d}/{len(n):<3d} {bm:12.6g} {nm:12.6g} "
                  f"{change:+8.2%}  {bq1:.4g}-{bq3:.4g} | {nq1:.4g}-{nq3:.4g} {verdict}")


if __name__ == "__main__":
    main(sys.argv[1:])
