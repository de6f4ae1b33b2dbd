"""Span recorder that wraps public functions of the engine from outside.

Nothing under ``src/`` is edited: :func:`install` replaces module
attributes (and two ``FlagKModule`` methods) with timing wrappers.  The
engine calls its own functions through module attributes, so calls
between layers pass through the wrappers too.  A name that a later
version of the engine no longer has is skipped, and its metrics read 0.

Each span records name, start, end, parent and the type-run id.  Spans
stay in memory and are written out as JSONL when the type-run ends.  A
layer's self time is the time its spans cover minus the time their
child spans cover; it is summed as spans close.
"""

from __future__ import annotations

import importlib
import json
import resource
import time
from contextlib import contextmanager

import numpy as np

# Engine functions as (span name, attribute).  The span name's prefix is
# the module that defines the function.
FUNCTIONS = (
    ("cartan.generate_weyl", "generate_weyl"),
    ("laurent.fundamental_characters", "fundamental_characters"),
    ("flagk.build_module", "build_module"),
    ("linalg.smith", "smith"),
    ("linalg.audit_smith", "audit_smith"),
    ("linalg.dot_exact", "dot_exact"),
    ("linalg.inverse_unimodular", "inverse_unimodular"),
    ("linalg.det_exact", "det_exact"),
    ("linalg.hermite_rows", "hermite_rows"),
    ("homology.koszul_complex", "koszul_complex"),
    ("homology.homology_of", "homology_of"),
    ("torring.build_tor_ring", "build_tor_ring"),
    ("torring.certify_exterior", "certify_exterior"),
    ("torring.chain_product", "chain_product"),
    ("verify.fast_checks", "fast_checks"),
    ("verify.property_checks", "property_checks"),
    ("verify.ext_mirror", "check_ext_mirror"),
    ("oracles.truncated_quotient", "truncated_quotient"),
    ("oracles.charpoly", "charpoly"),
    ("cli.run_pipeline", "run_pipeline"),
)

# FlagKModule methods, as (span name, attribute).  left_multiplier is
# reported under torring, the layer whose products call it.
METHODS = (
    ("flagk.monomial_operator", "monomial_operator"),
    ("torring.left_multiplier", "left_multiplier"),
)

# linalg.audit_smith at the seed: a matrix with more rows or columns
# than this is audited by random probes instead of exact products.
AUDIT_EXACT_LIMIT = 400


def _rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _max_bits(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return max(abs(int(x)) for x in arr.flat).bit_length()
    return int(np.abs(arr).max()).bit_length()


class Tracer:
    """Spans, per-name inclusive times, layer self times and counts for
    one type-run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.clock = time.perf_counter
        self.spans: list[dict] = []
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.layer_self: dict[str, float] = {}
        self.inclusive: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.current_complex = None
        self.degree_span: int | None = None

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": self.clock(), "end": None,
                           "parent": parent, "run": self.run_id})
        self.child_time.append(0.0)
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, sid: int) -> float:
        """End span ``sid``, and any child an exception left open."""
        while sid in self.stack:
            top = self.stack.pop()
            span = self.spans[top]
            span["end"] = self.clock()
            dur = span["end"] - span["start"]
            layer = span["name"].split(".", 1)[0]
            self.layer_self[layer] = (self.layer_self.get(layer, 0.0)
                                      + dur - self.child_time[top])
            if span["parent"] is not None:
                self.child_time[span["parent"]] += dur
        span = self.spans[sid]
        return span["end"] - span["start"]

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + self.close(sid)

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    # -- wrappers ------------------------------------------------------

    def timed(self, name: str, fn):
        """Wrap ``fn`` in a span; a call nested in one of the same name
        adds nothing to the inclusive time."""
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            tracer.depth[name] = tracer.depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.close(sid)
                tracer.depth[name] -= 1
                if tracer.depth[name] == 0:
                    tracer.inclusive[name] = tracer.inclusive.get(name, 0.0) + dur
                tracer.add(name + ".calls")
            tracer.observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def observe(self, name: str, args, result) -> None:
        """Counts read from a call's arguments and result."""
        if name == "homology.koszul_complex":
            for mat in result.maps:
                self.add("homology.boundary_nnz", int(np.count_nonzero(mat)))
                self.add("homology.boundary_cells", int(mat.size))
        elif name == "linalg.smith":
            rows, cols = np.atleast_2d(np.asarray(args[0])).shape
            self.peak("linalg.smith_max_cells", rows * cols)
            mats = (result.u, result.u_inv, result.v, result.v_inv)
            if any(m.dtype == object for m in mats):
                self.add("linalg.object_escalations")
            bits = max([_max_bits(m) for m in mats]
                       + [abs(int(d)).bit_length() for d in result.diag])
            self.peak("linalg.max_entry_bits", bits)
        elif name == "linalg.audit_smith":
            shape = np.atleast_2d(np.asarray(args[0])).shape
            kind = "probe" if max(shape) > AUDIT_EXACT_LIMIT else "exact"
            self.add(f"linalg.audit_{kind}_calls")
        elif name == "flagk.build_module":
            table = getattr(result, "mult_table", None)
            if table is not None:
                self.peak("flagk.mult_table_mb", table.size * 8 / 2**20)

    def _next_degree(self, name: str) -> None:
        if self.degree_span is not None:
            old = self.spans[self.degree_span]["name"]
            dur = self.close(self.degree_span)
            self.inclusive[old] = self.inclusive.get(old, 0.0) + dur
        self.degree_span = self.open(name) if name else None

    def wrap_smith(self, fn):
        """Also starts the span of the next homology degree.

        ``homology_of`` hands ``cx.maps[p - 1]`` itself to ``smith`` as
        the outgoing boundary of degree p, so an identity test on the
        argument tells where degree p begins.
        """
        timed = self.timed("linalg.smith", fn)
        tracer = self

        def wrapper(a, *args, **kwargs):
            cx = tracer.current_complex
            if cx is not None:
                for p, mat in enumerate(cx.maps, start=1):
                    if a is mat:
                        tracer._next_degree(f"homology.deg{p}")
                        break
            return timed(a, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_homology_of(self, fn):
        tracer = self

        def inner(cx, *args, **kwargs):
            outer = (tracer.current_complex, tracer.degree_span)
            tracer.current_complex, tracer.degree_span = cx, None
            tracer._next_degree("homology.deg0")
            try:
                return fn(cx, *args, **kwargs)
            finally:
                tracer._next_degree("")
                tracer.current_complex, tracer.degree_span = outer

        wrapper = self.timed("homology.homology_of", inner)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_monomial_operator(self, fn):
        timed = self.timed("flagk.monomial_operator", fn)
        tracer = self

        def wrapper(module, exps, *args, **kwargs):
            cache = getattr(module, "_operator_cache", None)
            if cache is not None and tuple(int(x) for x in exps) in cache:
                tracer.add("flagk.operator_cache_hits")
            return timed(module, exps, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_build_module(self, fn):
        """Also records how far the build raises the process's peak RSS.

        tracemalloc would give allocation peaks directly, but it slowed
        the C4 build twentyfold, so the high-water mark is read instead.
        """
        timed = self.timed("flagk.build_module", fn)
        tracer = self

        def wrapper(*args, **kwargs):
            base = _rss_mb()
            try:
                return timed(*args, **kwargs)
            finally:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                tracer.peak("flagk.peak_alloc_mb", max(0.0, peak - base))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output --------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "a") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **span}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced name that this version of the engine defines."""
    special = {
        "linalg.smith": tracer.wrap_smith,
        "homology.homology_of": tracer.wrap_homology_of,
        "flagk.build_module": tracer.wrap_build_module,
        "flagk.monomial_operator": tracer.wrap_monomial_operator,
    }
    cls = getattr(importlib.import_module("hodgkin.flagk"), "FlagKModule", None)
    owners = [(importlib.import_module("hodgkin." + name.split(".", 1)[0]), name, attr)
              for name, attr in FUNCTIONS]
    owners += [(cls, name, attr) for name, attr in METHODS]
    for owner, name, attr in owners:
        fn = getattr(owner, attr, None)
        if fn is not None:
            wrap = special.get(name, lambda f, n=name: tracer.timed(n, f))
            setattr(owner, attr, wrap(fn))
