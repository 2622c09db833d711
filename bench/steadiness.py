#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/steadiness.py --workload oracle-tiny --seeds 5 --seconds 20
    python3 bench/steadiness.py --seeds 10            # every workload

Each run is a separate ``bench/run.py`` process with its own seed.  For each
metric the spread is the interquartile distance of the per-run values
(``statistics.quantiles(values, n=4)``) as a share of their median; it is
printed next to the metric's bound from ``BENCHMARK.json`` and written to
``bench/out/steadiness-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args()
    metrics = {m["name"]: m for m in config["end_to_end"]}
    for workload in names if args.workload == "all" else [args.workload]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, meta in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            share, med = spread(values) if len(values) > 1 else (0.0, values[0])
            bound = meta["bound"]
            summary[name] = {"median": med, "spread": share, "bound": bound, "values": values}
            print(f"  {workload} {name:26s} median {med:12.6g}  spread {share:7.2%}"
                  f"  bound {bound:.0%} (a third: {bound / 3:.2%})")
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        (out / f"steadiness-{workload}.json").write_text(
            json.dumps({"seconds": args.seconds, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
