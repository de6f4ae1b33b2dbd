"""One type-run in a fresh interpreter, as a user's ``hodgkin`` call pays it.

Usage: ``python3 child.py SPEC_JSON SPAWN_TIME``.  SPAWN_TIME is the
parent's ``time.perf_counter()`` just before it started this process;
both clocks are the system's monotonic clock.  The last line printed is
one JSON object with the timing, the peak RSS, the certified outcome
and, when the spec asks for it, the trace summary.

Kinds of type-run:

* ``cold``: ``run_pipeline`` on an empty cache directory (which writes
  the cache), ``verify.fast_checks`` and JSON report assembly, as
  ``hodgkin compute`` does.
* ``warm``: ``run_pipeline`` on the cache the cold run wrote,
  ``fast_checks`` and ``property_checks`` with the given seed, as
  ``hodgkin verify --level full`` does.
* ``module``: the pipeline up to a certified free module (Weyl group,
  characters, ``flagk.build_module``) and the Gram-unimodular check.
* ``setup``: nothing after the imports; it only measures set-up time.
"""

import sys
import time

SPAWN = float(sys.argv[2])

import json  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import hodgkin  # noqa: E402
from hodgkin import cartan, cli, flagk, laurent, torring, verify  # noqa: E402

SETUP_S = time.perf_counter() - SPAWN


def _outcome(run, checks, report=None) -> dict:
    """What the goldens are checked against."""
    out = {
        "weyl_order": run.weyl.order if run.weyl is not None else 0,
        "gram_det": run.module.gram_det if run.module is not None else 0,
        "checks": [[c["name"], bool(c["pass"])] for c in checks],
    }
    if run.homology is not None:
        betti = [h.betti for h in run.homology]
        out["betti"] = betti
        out["torsion"] = [list(h.torsion) for h in run.homology]
        out["k0"] = sum(b for p, b in enumerate(betti) if p % 2 == 0)
        out["k1"] = sum(b for p, b in enumerate(betti) if p % 2 == 1)
    if run.certificate is not None:
        out["dets"] = [int(d) for d in run.certificate.dets]
    if report is not None:
        out["k0"], out["k1"] = report["k0_rank"], report["k1_rank"]
    return out


def cold(spec, span) -> dict:
    run = cli.run_pipeline(spec["type"], cache_dir=Path(spec["cache_dir"]))
    checks = [c.to_dict() for c in verify.fast_checks(run)] \
        if run.module is not None else []
    if run.failure is not None:
        checks.append(run.failure)
    report = None
    if run.module is not None and run.homology is not None:
        with span("cli.report"):
            timings = {k: round(v, 3) for k, v in run.timings_ms.items()}
            report = torring.assemble_report(
                run.name, run.module, run.homology, run.certificate, checks,
                timings, hodgkin.__version__).to_dict()
            json.dumps(report, indent=2, sort_keys=True)
    return _outcome(run, checks, report)


def warm(spec, span) -> dict:
    run = cli.run_pipeline(spec["type"], audit=True,
                           cache_dir=Path(spec["cache_dir"]))
    checks = []
    if run.module is not None:
        checks += verify.fast_checks(run)
        if run.failure is None:
            checks += verify.property_checks(run, seed=spec["seed"])
    checks = [c.to_dict() for c in checks]
    if run.failure is not None:
        checks.append(run.failure)
    return _outcome(run, checks)


def module(spec, span) -> dict:
    datum = cartan.build_root_datum(cartan.parse_type(spec["type"]))
    weyl = cartan.generate_weyl(datum)
    chars = laurent.fundamental_characters(datum, weyl)
    mod = flagk.build_module(datum, weyl, chars, audit=spec.get("audit", True))
    run = cli.PipelineRun(name=str(datum.ctype), datum=datum, weyl=weyl,
                          chars=chars, module=mod)
    return _outcome(run, [c.to_dict() for c in verify.fast_checks(run)])


KINDS = {"cold": cold, "warm": warm, "module": module}


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec["kind"] == "setup":
        print(json.dumps({"ok": True, "setup_s": SETUP_S}))
        return
    tracer = None
    if spec.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
    span = tracer.span if tracer else (lambda name: nullcontext())

    result = {"ok": False, "error": None, "setup_s": SETUP_S}
    t0 = time.perf_counter()
    try:
        with span(f"bench.{spec['kind']}"):
            outcome = KINDS[spec["kind"]](spec, span)
        result["elapsed_s"] = time.perf_counter() - t0
        result["outcome"] = outcome
        result["ok"] = True
    except Exception as exc:  # a failed type-run is reported, not fatal
        result["error"] = f"{type(exc).__name__}: {exc}"
        result["elapsed_s"] = time.perf_counter() - t0
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        info = getattr(laurent.signed_weight_dimension, "cache_info", None)
        swd = info() if info else None
        tracer.write_jsonl(spec["trace"])
        result["trace"] = {
            "inclusive": tracer.inclusive,
            "self": tracer.layer_self,
            "counts": tracer.counts,
            "peaks": tracer.peaks,
            "swd_hits": swd.hits if swd else 0,
            "swd_calls": swd.hits + swd.misses if swd else 0,
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
