"""Run-to-run spread of the benchmark over seeds.

    python3 perfbench/spread.py --workload streams --seeds 1-10 [--seconds S] [--trace 0] [--out FILE]

Runs run.py once per seed, one run at a time, and prints for each metric
the median, the quartiles and the interquartile range as a share of the
median (statistics.quantiles with n=4), with the failed counts.  --out
writes the same summary and every run's result as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    seconds = args.seconds or json.loads(BENCHMARK.read_text())["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {len(runs)} runs, failed {[r['failed'] for r in runs]}")
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  iqr/median {spread:7.2%}")
    if args.out:
        record = {"workload": args.workload, "seeds": list(seeds(args.seeds)), "seconds": seconds,
                  "trace": args.trace, "metrics": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
