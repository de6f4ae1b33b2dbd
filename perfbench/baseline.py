"""Repeat the benchmark over seeds and record medians and spreads.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload: ``--runs`` untraced runs with seeds 1..N, then two
traced runs with seed 1.  The spread of an end-to-end metric is the
distance between the first and third quartile of its values, as a share
of their median.  The output also holds the machine details and every
run's result, so later changes can cite before and after rows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[0].split(":", 1)[1])
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["lines"] = lines[1:-1]
    print(f"seed {seed} trace {trace}, {wall:.1f} s: {lines[-2]}", flush=True)
    return info, result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    out = {"workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            info, result = invoke(workload, seed, 0)
            out["machine"] = info
            runs.append(result)
        traced = [invoke(workload, 1, 1)[1] for _ in range(2)]
        stats = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            stats[name] = spread([r["metrics"][name]["value"] for r in runs])
            s = stats[name]
            flag = "" if s["spread"] < metric["bound"] / 3 else "  <-- above bound/3"
            print(f"  {workload} {name}: median {s['median']:.4g} "
                  f"spread {s['spread']:.4f} (bound {metric['bound']}){flag}")
        out["workloads"][workload] = {"end_to_end": stats, "runs": runs,
                                      "traced": traced}
    if args.out:
        (ROOT / args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
