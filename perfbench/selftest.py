"""Self-test of the benchmark harness on A1 and B2; takes seconds.

    python3 perfbench/selftest.py

Runs the cold, warm, traced and module-only paths of ``run.py`` on two
small types and checks that each prints exactly the metrics that
BENCHMARK.json declares, that the goldens pass, that the exact counts
repeat across two traced runs, and that a wrong outcome is caught.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = ("A1", "B2")


def invoke(workload: str, trace: int) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    return lines, json.loads(lines[-1])


def check_result(label: str, result: dict, names: list[str]) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result}")
    if sorted(result["metrics"]) != sorted(names):
        missing = set(names) ^ set(result["metrics"])
        raise AssertionError(f"{label}: metric names differ: {sorted(missing)}")


def main() -> int:
    run.WORKLOADS["selftest-sweep"] = {"types": SMALL, "kinds": ("cold", "warm")}
    run.WORKLOADS["selftest-module"] = {"types": SMALL, "kinds": ("module",)}
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]

    for workload in ("selftest-sweep", "selftest-module"):
        _, result = invoke(workload, 0)
        check_result(f"{workload} untraced", result, e2e)
        if any(v["value"] <= 0 for v in result["metrics"].values()):
            raise AssertionError(f"{workload}: an end-to-end metric is 0")
        invoke(workload, 1)
        lines, result = invoke(workload, 1)
        check_result(f"{workload} traced", result, layers)
        if "counts: repeat exactly against the previous traced run" not in lines:
            raise AssertionError(f"{workload}: exact counts did not repeat")
        if not (Path(run.OUT) / f"trace-{workload}-seed7.jsonl").stat().st_size:
            raise AssertionError(f"{workload}: no spans written")

    goldens = json.loads((run.HERE / "goldens.json").read_text())
    wrong = {"checks": [["tor-rank", True]], "weyl_order": 8, "gram_det": 1,
             "betti": [1, 2, 1], "torsion": [[], [], []], "k0": 2, "k1": 2,
             "dets": [1, 1, -1]}
    if not run.golden_errors(goldens, "cold", "B2", wrong):
        raise AssertionError("a wrong exterior determinant passed the goldens")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
