"""The benchmark's child process still runs against this engine.

``perfbench/child.py`` drives the public API the way every benchmark
run does; an API change that breaks it would make every bench run fail.
Each kind runs once on A1 in a fresh interpreter, plus one traced cold
run, and must come back ``ok`` with every check passing and the golden
outcome.  The ``module-C4`` workload's type-run is run once as well.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDEN = json.loads((BENCH / "goldens.json").read_text())["A1"]


def _child(spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec),
         repr(time.perf_counter())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """The directory each child's spec names as ``cache_dir``.  Nothing is
    cached: ``run_pipeline`` ignores it."""
    return tmp_path_factory.mktemp("bench-cache")


@pytest.mark.parametrize("kind,traced", [("cold", False), ("warm", False),
                                         ("module", False), ("cold", True)])
def test_child_runs_and_passes_every_check(kind, traced, cache_dir, tmp_path):
    trace = tmp_path / "trace.jsonl"
    spec = {"kind": kind, "type": "A1", "cache_dir": str(cache_dir), "seed": 7,
            "audit": True, "run_id": f"{kind}-A1",
            "trace": str(trace) if traced else None}
    result = _child(spec)
    assert result["ok"], result["error"]
    outcome = result["outcome"]
    assert outcome["checks"] and all(passed for _, passed in outcome["checks"]), \
        outcome["checks"]
    assert (outcome["weyl_order"], outcome["gram_det"]) == \
        (GOLDEN["weyl_order"], GOLDEN["gram_det"])
    if kind != "module":
        assert outcome["betti"] == [1, 1]
        assert outcome["dets"] == GOLDEN["dets"]
    if traced:
        assert result["trace"]["inclusive"]["cli.run_pipeline"] > 0
        assert trace.stat().st_size > 0


def test_c4_module_child_is_certified(cache_dir):
    spec = {"kind": "module", "type": "C4", "cache_dir": str(cache_dir), "seed": 7,
            "audit": True, "run_id": "module-C4", "trace": None}
    result = _child(spec)
    assert result["ok"], result["error"]
    outcome = result["outcome"]
    assert outcome["checks"] and all(passed for _, passed in outcome["checks"]), \
        outcome["checks"]
    assert (outcome["weyl_order"], outcome["gram_det"]) == (384, 1)
