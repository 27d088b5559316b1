"""Run the benchmark over several seeds and report run-to-run spread.

    python3 perfbench/spread.py --workloads batch_tables certify --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seed 1 \
        --baseline perfbench/baseline_seed.json

For each end-to-end metric the spread is the distance between the first
and third quartile of its values (``statistics.quantiles(values, n=4)``)
as a share of their median; BENCHMARK.json's bound applies to it.  With
``--baseline`` the medians, quartiles, per-workload figures, failure
classes and one traced run's layer metrics per workload are saved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["run_wall_s"] = time.perf_counter() - t0
    return line, record


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else None, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--baseline", type=Path, help="write the results to this file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        lines, records = [], []
        for seed in args.seeds:
            line, record = run(workload, seed, args.seconds, 0)
            lines.append(line)
            records.append(record)
            print(f"{workload} seed={seed} correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} "
                  f"wall={record['run_wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                  flush=True)
        entry = {"end_to_end": {}, "details": {}, "correct": [l["correct"] for l in lines],
                 "failed": [l["failed"] for l in lines],
                 "attempted": [l["attempted"] for l in lines],
                 "run_wall_s": [r["run_wall_s"] for r in records],
                 "failures_by_class": [r["failures_by_class"] for r in records]}
        for name, bound in bounds.items():
            q = quartiles([l["metrics"][name]["value"] for l in lines])
            q["unit"] = lines[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = q
            ratio = q["spread"] / bound
            worst = max(worst, ratio)
            print(f"  {name:<14s} median {q['median']:<12.6g} spread {q['spread']:.4f} "
                  f"bound {bound} ({ratio:.2f} of bound)")
        for name in records[0]["details"]:
            q = quartiles([r["details"][name]["value"] for r in records])
            q["unit"] = records[0]["details"][name]["unit"]
            entry["details"][name] = q
        if args.trace_seed is not None:
            line, record = run(workload, args.trace_seed, args.seconds, 1)
            entry["trace"] = {"seed": args.trace_seed, "correct": line["correct"],
                              "failed": line["failed"], "attempted": line["attempted"],
                              "per_layer": line["metrics"]}
        summary["workloads"][workload] = entry
        summary["env"] = records[-1]["env"]
    print(f"largest spread: {worst:.2f} of its bound")
    if args.baseline:
        args.baseline.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
