"""Command-line driver.

``compute`` runs the full pipeline for one type and emits the report,
``verify`` prints a pass/fail table (optionally with the randomized
property suites), ``list-types`` documents what is supported.  Exit
codes: 0 success, 1 usage error, 2 a certification failed (the report is
still emitted, with witnesses), 3 a resource guard tripped.

Reports are deterministic: identical inputs give byte-identical JSON,
with timings excluded from that contract via ``--no-timings``.

Nothing is cached: every run builds and audits its module afresh, and
no command writes a file other than the ``--out`` report.
:func:`run_pipeline` ignores its ``audit`` and ``cache_dir`` keywords;
both go once ``perfbench/child.py`` stops passing them.

Where each fact is checked, once: the Gram determinant and inverse and
M_i M_i^-1 = I in :func:`flagk.build_module`; that the unit generates,
that the M_i commute and the defining relations in its module audit;
d∘d = 0 of the Koszul complex in :func:`homology.homology_of`, as part
of its reduction, with each boundary's rank and invariant factors (an
exact audit of its leading Smith blocks) and the cycles; the exterior
algebra in :mod:`torring`.  ``verify --level full`` re-checks d∘d = 0
and more by independent routes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as ENGINE_VERSION
from . import cartan, flagk, homology, laurent, torring, verify
from .errors import (CertificationError, DefectError, ResourceGuardError,
                     UsageError)

_FAMILY_NOTES = {"A": "special unitary", "B": "odd orthogonal", "C": "symplectic",
                 "D": "even orthogonal", "E": "E7/E8 exceed the default guard"}


# --- pipeline ----------------------------------------------------------------

@dataclass(eq=False)
class PipelineRun:
    """Everything one compute produced, with per-stage timings.

    Stages after a certification failure stay ``None``; the failure
    itself is recorded as a check row in ``failure``.
    """

    name: str
    datum: cartan.RootDatum
    weyl: cartan.WeylGroup | None = None
    chars: laurent.CharacterSet | None = None
    module: flagk.FlagKModule | None = None
    chain_complex: homology.ChainComplex | None = None
    homology: tuple | None = None
    generators: tuple | None = None
    certificate: torring.ExteriorCertificate | None = None
    timings_ms: dict = field(default_factory=dict)
    failure: dict | None = None


def run_pipeline(type_string: str, *, max_weyl_order: int = cartan.DEFAULT_WEYL_GUARD,
                 audit: bool = True, cache_dir: Path | None = None) -> PipelineRun:
    """Run cartan -> laurent -> flagk -> homology -> torring for one type.

    Usage and resource-guard errors propagate (nothing useful exists
    yet); the Weyl-order guard is checked on the parsed type, before
    anything is built.  Certification failures after that are captured
    on the run so the caller can still emit a report with the witness.
    The module is always audited, so no certified report rests on an
    unaudited module.  ``audit`` and ``cache_dir`` are ignored: nothing
    is cached, and both keywords go once ``perfbench/child.py`` stops
    passing them.
    """
    ctype = cartan.parse_type(type_string)
    cartan.guarded_weyl_order(ctype, max_weyl_order)
    name = str(ctype)
    clock = time.perf_counter
    t0 = clock()
    datum = cartan.build_root_datum(ctype)
    run = PipelineRun(name=name, datum=datum)
    run.timings_ms["cartan"] = (clock() - t0) * 1000.0

    t0 = clock()
    run.weyl = cartan.generate_weyl(datum, max_weyl_order)
    run.timings_ms["weyl"] = (clock() - t0) * 1000.0

    try:
        t0 = clock()
        run.chars = laurent.fundamental_characters(datum, run.weyl)
        run.timings_ms["characters"] = (clock() - t0) * 1000.0

        t0 = clock()
        run.module = flagk.build_module(datum, run.weyl, run.chars)
        run.timings_ms["module"] = (clock() - t0) * 1000.0

        t0 = clock()
        eye = np.eye(run.module.rank, dtype=np.int64)
        run.chain_complex = homology.koszul_complex(
            [m - eye for m in run.module.mult_matrices])
        run.timings_ms["koszul"] = (clock() - t0) * 1000.0

        t0 = clock()
        run.homology = homology.homology_of(run.chain_complex)
        run.timings_ms["homology"] = (clock() - t0) * 1000.0

        t0 = clock()
        run.generators = torring.change_of_rings_generators(run.chars, run.module,
                                                            run.chain_complex)
        run.certificate = torring.certify_exterior(run.module, run.homology,
                                                   run.generators)
        run.timings_ms["torring"] = (clock() - t0) * 1000.0
    except CertificationError as exc:
        run.failure = {"name": exc.check, "pass": False, "witness": exc.witness}
    except DefectError as exc:
        run.failure = {"name": "internal-defect", "pass": False,
                       "witness": {"error": str(exc)}}
    return run


# --- report emission ---------------------------------------------------------

def _assemble(run: PipelineRun, checks: list[dict], *, no_timings: bool) -> torring.KReport:
    timings = {} if no_timings else {k: round(v, 3) for k, v in run.timings_ms.items()}
    if run.module is not None and run.homology is not None:
        return torring.assemble_report(run.name, run.module, run.homology,
                                       run.certificate, checks, timings,
                                       ENGINE_VERSION)
    # a certification failed early: emit the shell with what exists
    return torring.KReport(
        cartan_type=run.name, rank=run.datum.rank,
        weyl_order=run.weyl.order if run.weyl is not None else 0,
        gram_determinant=run.module.gram_det if run.module is not None else 0,
        tor_table=[], e2_table=[], k0_rank=0, k1_rank=0,
        exterior_certified=False, checks=checks, timings_ms=timings,
        versions={"engine": ENGINE_VERSION, "format": torring.FORMAT_VERSION},
    )


def _render_text(report: torring.KReport) -> str:
    lines = [
        f"type        : {report.cartan_type} (rank {report.rank})",
        f"weyl order  : {report.weyl_order}",
        f"gram det    : {report.gram_determinant}",
    ]
    if report.tor_table:
        ranks = " ".join(str(row["rank"]) for row in report.tor_table)
        torsion = sum((row["torsion"] for row in report.tor_table), [])
        lines.append(f"tor ranks   : {ranks}"
                     f"   (torsion: {torsion if torsion else 'none'})")
        lines.append(f"k0 / k1     : {report.k0_rank} / {report.k1_rank}")
    lines.append(f"exterior    : {'certified' if report.exterior_certified else 'NOT certified'}")
    passed = sum(1 for c in report.checks if c["pass"])
    failed = len(report.checks) - passed
    lines.append(f"checks      : {passed} passed, {failed} failed")
    for check in report.checks:
        if not check["pass"]:
            lines.append(f"  FAIL {check['name']}: {check.get('witness')}")
    if report.timings_ms:
        total = sum(report.timings_ms.values())
        lines.append(f"timings     : {total:.0f} ms total")
    return "\n".join(lines) + "\n"


def _emit(report: torring.KReport, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# --- commands ----------------------------------------------------------------

def cmd_compute(args) -> int:
    # checked before the run, so a bad path does not cost the report
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise UsageError(f"--out: {args.out} is not a file in an existing directory")
    run = run_pipeline(args.type, max_weyl_order=args.max_weyl_order)
    checks = [c.to_dict() for c in verify.fast_checks(run)] \
        if run.module is not None else []
    if run.failure is not None:
        checks.append(run.failure)
    report = _assemble(run, checks, no_timings=args.no_timings)
    _emit(report, args.format, args.out)
    return 0 if all(c["pass"] for c in checks) and run.failure is None else 2


def cmd_verify(args) -> int:
    run = run_pipeline(args.type, max_weyl_order=args.max_weyl_order)
    checks = []
    if run.module is not None:
        checks += verify.fast_checks(run)
        if args.level == "full" and run.failure is None:
            checks += verify.property_checks(run)
    if run.failure is not None:
        checks.append(verify.CheckResult(run.failure["name"], False,
                                         run.failure.get("witness")))
    width = max((len(c.name) for c in checks), default=0)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status}  {check.name:<{width}}"
        if not check.passed and check.witness:
            line += f"  {check.witness}"
        print(line)
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)} passed, {len(failed)} failed")
    return 0 if not failed else 2


def cmd_list_types(_args) -> int:
    print("Supported Cartan types (products join with 'x', e.g. A2xA1):")
    bounded = []  # every type of a family with a top rank
    for family, (lo, hi) in cartan.RANK_WINDOW.items():
        if hi is None:
            ranks = f"rank >= {lo}"
        else:
            ranks = "rank " + ", ".join(str(r) for r in range(lo, hi + 1))
            bounded += [f"{family}{r}" for r in range(lo, hi + 1)]
        note = _FAMILY_NOTES.get(family)
        print(f"  {family}: {ranks}" + (f"  -- {note}" if note else ""))
    guard = cartan.DEFAULT_WEYL_GUARD
    orders = {name: cartan.weyl_order(cartan.parse_type(name)) for name in bounded}
    needs = ", ".join(f"{name} {order}" for name, order in orders.items() if order > guard)
    # "E7 needs 2903040, E8 696729600"
    print(f"Default Weyl-order guard: {guard}"
          f" (raise with --max-weyl-order; {needs.replace(' ', ' needs ', 1)})")
    return 0


# --- argument plumbing -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hodgkin",
                     description="Exact K-theory reports for compact Lie groups")
    parser.add_argument("--version", action="version", version=ENGINE_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, help="Cartan type, e.g. A2 or A2xA1")
        p.add_argument("--max-weyl-order", type=int, default=cartan.DEFAULT_WEYL_GUARD)

    compute = sub.add_parser("compute", help="run the pipeline and emit a report")
    common(compute)
    compute.add_argument("--format", choices=("json", "text"), default="json")
    compute.add_argument("--out", default=None, help="write the report to a file")
    compute.add_argument("--no-timings", action="store_true",
                         help="emit an empty timings table (deterministic output)")
    compute.set_defaults(handler=cmd_compute)

    ver = sub.add_parser("verify", help="print a pass/fail check table")
    common(ver)
    ver.add_argument("--level", choices=("fast", "full"), default="fast")
    ver.set_defaults(handler=cmd_verify)

    lst = sub.add_parser("list-types", help="show supported families and limits")
    lst.set_defaults(handler=cmd_list_types)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_weyl_order", 1) < 1:  # would refuse every type
            raise UsageError(f"--max-weyl-order must be at least 1, not {args.max_weyl_order}")
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
