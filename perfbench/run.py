"""Benchmark of legnu: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload batch_tables --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the package from ``src``
and runs CLI commands as ``python -m legnu.cli`` with ``src`` on the path.
Every line but the last is a readable report; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The full result, with the environment stamp,
is also written to ``perfbench/out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata

import workloads


def environment() -> dict:
    """What the figures were measured on and with."""
    src = workloads.SRC
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (workloads.ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cli": "python -m legnu.cli with src on PYTHONPATH",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (workloads.SRC / "legnu" / "__init__.py").is_file():
        print(f"error: no legnu package under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))

    env = environment()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    if args.trace:
        tally, metrics, tracer = workloads.traced(args.workload, args.seed, args.seconds)
        tracer.write(workloads.OUT / f"spans-{args.workload}.npz")
        details = {}
    else:
        result = workloads.timed(args.workload, args.seed, args.seconds)
        tally, metrics, details = result.tally, result.metrics, result.details
    for name, (value, unit) in metrics.items():
        print(f"{name:<42s} {value:>16.6g} {unit}")
    for name, (value, unit, note) in details.items():
        print(f"  {name:<40s} {value:>16.6g} {unit:<7s} {note}")
    print(f"# failed {tally.failed}/{tally.attempted} by class {dict(tally.classes)}")
    for example in tally.examples:
        print(f"#   {example}")

    line = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **line,
              "details": {k: {"value": v, "unit": u, "note": n}
                          for k, (v, u, n) in details.items()},
              "failures_by_class": dict(tally.classes), "failure_examples": tally.examples}
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    out = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
