"""Benchmark of the hodgkin engine, driven through its public Python API.

    python3 perfbench/run.py --workload sweep-to-A4 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Every type-run happens in a fresh
child interpreter (``child.py``), one child at a time, so each pays what
a ``hodgkin compute`` or ``hodgkin verify`` call pays: a cold start with
empty ``lru_cache``s.  The loop is closed with one client.  A sample is
one pass over the workload's types; samples repeat until the next one
would end after ``--seconds``, and timings are medians over samples.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced sample, writes the traced spans as JSONL under
``perfbench/out/`` and prints the per-layer metrics.  Either way the
outputs are checked against ``goldens.json``; a type-run that raises,
trips a guard, times out, fails a check or misses a golden counts as
failed.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "sweep-to-A4": {
        "types": ("A1", "A2", "A3", "B2", "G2", "A1xA1", "B3", "C3", "A4"),
        "kinds": ("cold", "warm"),
    },
    "module-C4": {"types": ("C4",), "kinds": ("module",)},
}

# Children get one BLAS/OpenMP thread and a fixed string hash seed, so
# the counts of a traced run repeat exactly.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# A run must end within 180 s; no sample starts that would end later
# than this, and no child may run past it.
HARD_LIMIT_S = 170.0

# Set-up-only children per run, so that set-up time is a median over
# several processes even when a sample has a single type-run.
SETUP_PROBES = 20

# Counts that must read the same in every traced run of the same code.
EXACT_COUNTS = (
    "homology.boundary_nnz", "linalg.smith_calls", "linalg.audit_probe_calls",
    "linalg.object_escalations", "linalg.max_entry_bits", "laurent.swd_calls",
    "flagk.monomial_operator_calls", "torring.chain_product_calls",
    "flagk.mult_table_mb",
)

# Span names whose inclusive times are reported.
TIMED = (tuple(name for name, _ in tracer.FUNCTIONS + tracer.METHODS)
         + tuple(f"homology.deg{p}" for p in range(5)) + ("cli.report",))

LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for name in TIMED)) + ("bench",)


# --- children ---------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["HODGKIN_CACHE_DIR"] = str(OUT / "unused-cache")
    return env


def run_child(spec: dict, deadline: float) -> dict:
    """One type-run in a fresh interpreter; failures come back as data."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return {"ok": False, "error": "run time limit reached", "elapsed_s": 0.0}
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec), repr(spawn)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timeout after {timeout:.0f} s",
                "elapsed_s": timeout}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}",
                "elapsed_s": time.perf_counter() - spawn}
    if proc.returncode != 0:
        result["ok"] = False
        result["error"] = result.get("error") or f"exit {proc.returncode}"
    return result


# --- correctness --------------------------------------------------------------

def golden_errors(goldens: dict, kind: str, name: str, out: dict) -> list[str]:
    """Mismatches of one type-run's outcome against the goldens."""
    g = goldens[name]
    n = g["rank"]
    errs = [f"check {c} failed" for c, passed in out["checks"] if not passed]
    if not out["checks"]:
        errs.append("no checks ran")
    if out["weyl_order"] != g["weyl_order"]:
        errs.append(f"weyl order {out['weyl_order']}")
    if out["gram_det"] != g["gram_det"] or abs(out["gram_det"]) != 1:
        errs.append(f"gram det {out['gram_det']}")
    if kind == "module":
        return errs
    if out.get("betti") != [comb(n, p) for p in range(n + 1)]:
        errs.append(f"betti {out.get('betti')}")
    if out.get("torsion") != [[] for _ in range(n + 1)]:
        errs.append(f"torsion {out.get('torsion')}")
    if not out.get("k0") == out.get("k1") == 2 ** (n - 1):
        errs.append(f"k0 {out.get('k0')}, k1 {out.get('k1')}")
    if out.get("dets") != g["dets"]:
        errs.append(f"exterior dets {out.get('dets')}")
    return errs


# --- samples ------------------------------------------------------------------

def setup_probes(deadline: float) -> list[float]:
    """Set-up times of children that only start and import the engine."""
    runs = [run_child({"kind": "setup"}, deadline) for _ in range(SETUP_PROBES)]
    return [r["setup_s"] for r in runs if r["ok"]]


def run_sample(workload: str, index: int, order: list[str], seed: int,
               deadline: float, goldens: dict, trace_file: Path | None = None,
               kinds: tuple | None = None, audit: bool = True) -> dict:
    """One pass over the workload's types, each kind in its own child."""
    cfg = WORKLOADS[workload]
    work = OUT / f"work-{os.getpid()}-s{index}"
    runs = []
    try:
        for name in order:
            cache = work / name
            cache.mkdir(parents=True, exist_ok=True)
            for kind in kinds or cfg["kinds"]:
                run_id = f"s{index}-{kind}-{name}"
                spec = {"kind": kind, "type": name, "cache_dir": str(cache),
                        "seed": seed, "audit": audit, "run_id": run_id,
                        "trace": str(trace_file) if trace_file else None}
                res = run_child(spec, deadline)
                res.update(kind=kind, type=name, run_id=run_id)
                if res["ok"]:
                    errs = golden_errors(goldens, kind, name, res["outcome"])
                    if errs:
                        res["ok"] = False
                        res["error"] = "golden mismatch: " + "; ".join(errs)
                if kind == "cold":
                    res["cache_bytes"] = sum(f.stat().st_size
                                             for f in cache.iterdir())
                runs.append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize_sample(runs)


def summarize_sample(runs: list[dict]) -> dict:
    def total(*kinds):
        return sum(r["elapsed_s"] for r in runs if r["kind"] in kinds)
    return {
        "runs": runs,
        "compute_s": total("cold"),
        "verify_s": total("warm"),
        "module_s": total("module"),
        "cold_s": total("cold", "module"),
        "certify_s": total("cold", "warm", "module"),
        "peak_rss_mb": max((r.get("rss_mb", 0.0) for r in runs), default=0.0),
        "setups": [r["setup_s"] for r in runs if "setup_s" in r],
        "failed": sum(1 for r in runs if not r["ok"]),
    }


def sample_order(workload: str, rng: random.Random) -> list[str]:
    order = list(WORKLOADS[workload]["types"])
    rng.shuffle(order)
    return order


# --- traced run -----------------------------------------------------------------

def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hodgkin").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def per_layer(untraced: dict, traced: dict, audit_s: float) -> dict:
    """Per-layer metrics from the traced sample, with the untraced one as
    the reference for the tracing overhead."""
    inc, selfs, counts = {}, {}, {}
    swd_hits = swd_calls = 0
    for r in traced["runs"]:
        t = r.get("trace") or {}
        for src, dst in ((t.get("inclusive", {}), inc), (t.get("self", {}), selfs),
                         (t.get("counts", {}), counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in t.get("peaks", {}).items():
            counts[k] = max(counts.get(k, 0), v)
        swd_hits += t.get("swd_hits", 0)
        swd_calls += t.get("swd_calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    warm = [r for r in traced["runs"] if r["kind"] == "warm"]
    warm_hits = sum(1 for r in warm
                    if not (r.get("trace") or {}).get("counts", {})
                    .get("cartan.generate_weyl.calls"))
    traced_s = traced["certify_s"]
    m = {}
    for name in TIMED:
        m[name + "_s"] = (inc.get(name, 0.0), "s")
    m.update({
        "homology.boundary_nnz": (counts.get("homology.boundary_nnz", 0), "count"),
        "homology.boundary_density": (ratio(counts.get("homology.boundary_nnz", 0),
                                            counts.get("homology.boundary_cells", 0)),
                                      "ratio"),
        "linalg.smith_calls": (counts.get("linalg.smith.calls", 0), "count"),
        "linalg.smith_max_cells": (counts.get("linalg.smith_max_cells", 0), "count"),
        "linalg.audit_probe_calls": (counts.get("linalg.audit_probe_calls", 0), "count"),
        "linalg.audit_exact_calls": (counts.get("linalg.audit_exact_calls", 0), "count"),
        "linalg.object_escalations": (counts.get("linalg.object_escalations", 0), "count"),
        "linalg.max_entry_bits": (counts.get("linalg.max_entry_bits", 0), "bits"),
        "linalg.dot_exact_calls": (counts.get("linalg.dot_exact.calls", 0), "count"),
        "flagk.audit_s": (audit_s, "s"),
        "flagk.monomial_operator_calls": (counts.get("flagk.monomial_operator.calls", 0),
                                          "count"),
        "flagk.operator_cache_hit_ratio": (
            ratio(counts.get("flagk.operator_cache_hits", 0),
                  counts.get("flagk.monomial_operator.calls", 0)), "ratio"),
        "flagk.mult_table_mb": (counts.get("flagk.mult_table_mb", 0.0), "MB"),
        "flagk.peak_alloc_mb": (counts.get("flagk.peak_alloc_mb", 0.0), "MB"),
        "laurent.swd_calls": (swd_calls, "count"),
        "laurent.swd_hit_ratio": (ratio(swd_hits, swd_calls), "ratio"),
        "torring.chain_product_calls": (counts.get("torring.chain_product.calls", 0),
                                        "count"),
        "cli.cache_mb": (sum(r.get("cache_bytes", 0) for r in traced["runs"]) / 2**20,
                         "MB"),
        "cli.cache_hit_ratio": (ratio(warm_hits, len(warm)), "ratio"),
    })
    for layer in LAYERS:
        m[layer + ".self_s"] = (selfs.get(layer, 0.0), "s")
    m.update({
        "trace.untraced_s": (untraced["certify_s"], "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.self_sum_s": (sum(selfs.values()), "s"),
        "trace.overhead_frac": (ratio(traced_s, untraced["certify_s"]) - 1, "ratio"),
    })
    return m


def check_counts_repeat(workload: str, seed: int, metrics: dict) -> str | None:
    """Compare the exact counts with the last traced run of the same code
    and seed; returns a message on mismatch."""
    path = OUT / f"counts-{workload}-seed{seed}.json"
    now = {"src": src_digest(),
           "counts": {k: metrics[k][0] for k in EXACT_COUNTS}}
    try:
        before = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        before = None
    path.write_text(json.dumps(now, indent=1, sort_keys=True))
    if before is None or before.get("src") != now["src"]:
        print("counts: first traced run of this code and seed; "
              f"stored in {path.relative_to(ROOT)}")
        return None
    diff = {k: (before["counts"].get(k), v) for k, v in now["counts"].items()
            if before["counts"].get(k) != v}
    if diff:
        return f"counts differ from the previous traced run: {diff}"
    print("counts: repeat exactly against the previous traced run")
    return None


# --- reporting ------------------------------------------------------------------

def machine() -> dict:
    def first(path, key):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():  # a checkout without git metadata has none
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256_16": src_digest(),
        "child_env": CHILD_ENV,
    }


def setup_times(samples: list[dict], probes: list[float]) -> list[float]:
    return probes + [x for s in samples for x in s["setups"]]


def summary_line(workload: str, samples: list[dict], probes: list[float]) -> str:
    def med(key):
        vals = [s[key] for s in samples]
        return statistics.median(vals) if any(vals) else None
    attempted = sum(len(s["runs"]) for s in samples)
    failed = sum(s["failed"] for s in samples)
    setups = setup_times(samples, probes)
    parts = [f"setup_s {statistics.median(setups):.4f} s" if setups else "setup_s n/a"]
    for key in ("compute_s", "verify_s", "module_s"):
        v = med(key)
        parts.append(f"{key} {v:.3f} s" if v is not None else f"{key} n/a")
    parts.append(f"peak_rss_mb {med('peak_rss_mb') or 0:.1f} MB")
    parts.append(f"failed_frac {failed / max(attempted, 1):.3f} ({failed}/{attempted})")
    return f"{workload} [{len(samples)} samples]: " + " | ".join(parts)


def end_to_end(samples: list[dict], probes: list[float]) -> dict:
    setups = setup_times(samples, probes)

    def med(key):
        return statistics.median(s[key] for s in samples)
    return {
        "setup_s": {"value": statistics.median(setups or [0.0]), "unit": "s"},
        "cold_s": {"value": med("cold_s"), "unit": "s"},
        "certify_s": {"value": med("certify_s"), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
    }


def emit_result(samples: list[dict], metrics: dict, problem: str | None = None) -> None:
    """Print failures, then the JSON result as the last line."""
    for s in samples:
        for r in s["runs"]:
            if not r["ok"]:
                print(f"FAILED {r['run_id']}: {r.get('error')}")
    if problem:
        print(problem)
    failed = sum(s["failed"] for s in samples)
    print(json.dumps({"correct": failed == 0 and problem is None,
                      "attempted": sum(len(s["runs"]) for s in samples),
                      "failed": failed, "metrics": metrics}))


# --- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="sweep order and property_checks seed "
                             "(default verify.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hodgkin" / "cli.py").is_file():
        print(f"engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hodgkin import verify
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    goldens = json.loads((HERE / "goldens.json").read_text())
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    rng = random.Random(seed)
    print("machine:", json.dumps(machine(), sort_keys=True))
    probes = setup_probes(deadline)
    if args.trace:
        return traced_run(args.workload, seed, rng, deadline, goldens, probes)
    samples = []
    while True:
        samples.append(run_sample(args.workload, len(samples),
                                  sample_order(args.workload, rng),
                                  seed, deadline, goldens))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples) > min(args.seconds, HARD_LIMIT_S):
            break
    print(summary_line(args.workload, samples, probes))
    emit_result(samples, end_to_end(samples, probes))
    return 0


def traced_run(workload: str, seed: int, rng: random.Random, deadline: float,
               goldens: dict, probes: list[float]) -> int:
    order = sample_order(workload, rng)
    untraced = run_sample(workload, 0, order, seed, deadline, goldens)
    trace_file = OUT / f"trace-{workload}-seed{seed}.jsonl"
    trace_file.unlink(missing_ok=True)
    traced = run_sample(workload, 1, order, seed, deadline, goldens,
                        trace_file=trace_file)
    samples = [untraced, traced]
    # flagk.audit_s: the audit=True module build minus the audit=False
    # one, each untraced in a fresh process.
    if WORKLOADS[workload]["kinds"] == ("module",):
        with_audit = untraced
    else:
        with_audit = run_sample(workload, 2, order, seed, deadline, goldens,
                                kinds=("module",))
        samples.append(with_audit)
    no_audit = run_sample(workload, 3, order, seed, deadline, goldens,
                          kinds=("module",), audit=False)
    samples.append(no_audit)
    metrics = per_layer(untraced, traced, with_audit["module_s"] - no_audit["module_s"])
    problem = check_counts_repeat(workload, seed, metrics)
    print(summary_line(workload + " (untraced)", [untraced], probes))
    print(summary_line(workload + " (traced)", [traced], []))
    print(f"spans: {trace_file.relative_to(ROOT)}")
    emit_result(samples, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                problem)
    return 0


if __name__ == "__main__":
    sys.exit(main())
