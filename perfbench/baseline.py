"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 40 [--workload W ...]
        [--trace] [--out perfbench/baseline.json]

For every workload and metric it records the values of all runs, their
median, quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median.  This is the check a
benchmark change must pass: every end-to-end spread within the metric's
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="40")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", args.seconds,
                   "--trace", str(int(args.trace))]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["exit"] = seed, proc.returncode
            runs.append(result)
            print(name, seed, proc.returncode, result["correct"], result["failed"],
                  {m: round(v["value"], 4) for m, v in result["metrics"].items()
                   if m in bounds}, flush=True)
        metrics = {}
        for m in runs[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[m] = {"unit": runs[0]["metrics"][m]["unit"], "median": med,
                          "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                          "bound": bounds.get(m), "values": vals}
            if m in bounds:
                print(f"  {m}: median {med:.5g} spread {metrics[m]['spread']:.4f}"
                      f" (bound {bounds[m]})", flush=True)
        summary[name] = {"runs": [{k: r[k] for k in ("seed", "exit", "correct", "attempted",
                                                      "failed")} for r in runs],
                         "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": float(args.seconds), "python": sys.version,
                       "cpu_count": os.cpu_count(), "workloads": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
