"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces the public entry points of each layer
(:data:`LAYERS`) with thin wrappers at the attribute the program looks them
up through — a class attribute for methods, the importing module's global
for functions such as ``repro.compilers.compiler.fast_clone``.  Every
wrapped call becomes a span ``[layer, parent span id, start, end]`` kept in
memory; nothing is written until :meth:`LayerTracer.raw` folds the spans into
self times once the campaign has finished; :func:`metrics` turns one or
more folded traces into the per-layer metrics.

A layer's self time is the sum of its spans' durations minus the durations
of their direct child spans, so the self times of all layers plus
``unattributed_s`` (wall time outside every root span) add up to the traced
wall exactly.

Inner hot paths (``Memory.object_at``, the VM dispatch loop) are never
wrapped: the wrappers sit at layer boundaries only.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# The wrapped entry points: (module, owner attribute or None for a module
# global, attribute name, layer).  Methods are patched on the class that
# defines them; subclasses that override a wrapped method are found and
# patched too (see _owners_of).
LAYERS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.seedgen.csmith", "CsmithGenerator", "generate", "seedgen"),
    ("repro.core.ubgen", "UBGenerator", "generate_all", "ubgen"),
    ("repro.compilers.compiler", "SimulatedCompiler", "compile",
     "compilers.compile"),
    ("repro.compilers.cache", "CompilationCache", "frontend",
     "compilers.frontend"),
    ("repro.compilers.cache", "CompilationCache", "optimized", "optim"),
    ("repro.compilers.cache", "CompilationCache", "closure",
     "vm.closure_compile"),
    ("repro.compilers.compiler", None, "fast_clone", "cdsl.clone"),
    ("repro.compilers.compiler", None, "analyze", "cdsl.sema"),
    ("repro.markers.oracle", None, "fast_clone", "cdsl.clone"),
    ("repro.markers.oracle", None, "analyze", "cdsl.sema"),
    ("repro.sanitizers.base", "SanitizerPass", "instrument",
     "sanitizers.instrument"),
    ("repro.core.differential", None, "run_binaries", "vm.execute"),
    ("repro.compilers.binary", "CompiledBinary", "run", "vm.execute"),
    ("repro.core.differential", "DifferentialTester", "analyze", "oracle"),
    ("repro.core.bugs", "BugTriager", "triage_fn_candidate", "triage"),
    ("repro.core.bugs", "BugTriager", "triage_wrong_report", "triage"),
    ("repro.core.bugs", "BugTriager", "deduplicate", "triage"),
    ("repro.markers.instrument", "MarkerPlanter", "plant", "markers.plant"),
    ("repro.markers.oracle", "EliminationOracle", "liveness",
     "markers.liveness"),
    ("repro.markers.oracle", "EliminationOracle", "survey", "markers.survey"),
    ("repro.corpusdb.db", "FindingsDB", "ingest_delta", "corpusdb.write"),
    ("repro.corpusdb.db", "FindingsDB", "ingest_marker_result",
     "corpusdb.write"),
    ("repro.corpusdb.db", "FindingsDB", "record_suppressions",
     "corpusdb.write"),
    ("repro.corpusdb.db", "FindingsDB", "recorded_cells", "corpusdb.read"),
    ("repro.corpusdb.db", "FindingsDB", "known_bug_index", "corpusdb.read"),
    ("repro.telemetry.store", "TelemetryStore", "ingest_campaign",
     "telemetry.store"),
    ("repro.orchestrator.checkpoint", "CampaignCheckpoint", "flush",
     "orchestrator.checkpoint"),
)

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "seedgen", "ubgen", "compilers.compile", "compilers.frontend", "optim",
    "cdsl.clone", "cdsl.sema", "sanitizers.instrument", "vm.closure_compile",
    "vm.execute", "oracle", "triage", "markers.plant", "markers.liveness",
    "markers.survey", "corpusdb.write", "corpusdb.read", "telemetry.store",
    "orchestrator.checkpoint",
)

#: Every per-layer metric a traced run reports, with its unit.
METRIC_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "seedgen.calls": "count", "seedgen.failed": "count",
    "ubgen.programs": "count",
    "compilers.compile.calls": "count", "compilers.compile.failed": "count",
    "compilers.cache.hit_ratio": "ratio", "compilers.cache.evictions": "count",
    "optim.runs": "count",
    "sanitizers.instrument.calls": "count",
    "vm.closure_compile.calls": "count", "vm.compiles_per_execution": "ratio",
    "vm.executions": "count", "vm.dedupe_ratio": "ratio",
    "vm.budget_exhausted": "count",
    "oracle.fn_candidates": "count", "oracle.opt_discrepancies": "count",
    "triage.calls": "count", "triage.inclusive_s": "s",
    "corpusdb.write.calls": "count",
    "orchestrator.checkpoint.bytes": "bytes",
    "traced_wall_s": "s", "unattributed_s": "s", "unattributed_share": "ratio",
    "trace_overhead": "ratio",
}


def _owners_of(cls: type, name: str) -> List[type]:
    """*cls* and every subclass that defines its own *name*."""
    owners, pending = [], [cls]
    while pending:
        klass = pending.pop()
        if name in vars(klass):
            owners.append(klass)
        pending.extend(klass.__subclasses__())
    return owners


def entry_points() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every attribute the tracer wraps."""
    # Load every sanitizer pass so overriding subclasses are found.
    importlib.import_module("repro.sanitizers.registry")
    points = []
    for module_name, owner_name, attr, layer in LAYERS:
        module = importlib.import_module(module_name)
        owners = ([module] if owner_name is None
                  else _owners_of(getattr(module, owner_name), attr))
        points.extend((owner, attr, layer) for owner in owners)
    return points


class LayerTracer:
    """Installs the layer wrappers, records spans, restores everything.

    Use as a context manager around the timed ``run()`` call only; spans are
    recorded while installed and folded by :meth:`raw` afterwards.
    Single-threaded by design (the benchmark runs ``workers=1``).
    """

    def __init__(self) -> None:
        #: Spans as parallel arrays (layer id, parent span id or -1, start,
        #: end); a span's id is its index.  Arrays hold no Python objects,
        #: so the garbage collector never scans them mid-campaign.
        self._layer_ids: Dict[str, int] = {}
        self._span_layer = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.wall_s = 0.0
        self._started = 0.0

    @property
    def spans(self) -> List[Tuple[str, Optional[int], float, float]]:
        """Every span as ``(layer, parent id or None, start, end)``."""
        names = list(self._layer_ids)
        return [(names[layer], parent if parent >= 0 else None, start, end)
                for layer, parent, start, end in zip(
                    self._span_layer, self._span_parent, self._span_start,
                    self._span_end)]

    # -- span recording ------------------------------------------------------

    def _call(self, layer: str, fn: Callable, args, kwargs):
        layer_id = self._layer_ids.setdefault(layer, len(self._layer_ids))
        stack = self._stack
        parent = stack[-1] if stack else -1
        nested = parent >= 0 and self._span_layer[parent] == layer_id
        span = len(self._span_start)
        self._span_layer.append(layer_id)
        self._span_parent.append(parent)
        self._span_end.append(0.0)
        stack.append(span)
        self._span_start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            if not nested:
                self.counts[layer + ".failed"] += 1
            raise
        finally:
            self._span_end[span] = time.perf_counter()
            stack.pop()
            if not nested:
                self.counts[layer + ".calls"] += 1

    def _wrap(self, layer: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = call(layer, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrap_cache(self, layer: str, fn: Callable, builder_index: int,
                    hit_layer: Optional[str] = None) -> Callable:
        """Wrap a CompilationCache method; only a miss's builder is a span.

        The program passes the builder positionally, at *builder_index*
        after the cache.  A lookup that never calls its builder is a hit.
        ``hit_layer`` makes the whole lookup a span as well (the frontend
        layer is its cache)."""
        call, counts = self._call, self.counts

        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            missed = []
            builder = args[builder_index]

            def traced_builder():
                missed.append(True)
                return call(layer, builder, (), {})
            args = (*args[:builder_index], traced_builder,
                    *args[builder_index + 1:])
            evictions = cache.evictions
            if hit_layer is None:
                result = fn(cache, *args, **kwargs)
            else:
                result = call(hit_layer, fn, (cache, *args), kwargs)
            counts["cache.misses" if missed else "cache.hits"] += 1
            counts["cache.evictions"] += cache.evictions - evictions
            return result
        return wrapper

    # -- counters read off results -------------------------------------------

    def _count_ubgen(self, args, result) -> None:
        self.counts["ubgen.programs"] += sum(len(v) for v in result.values())

    def _count_run(self, args, result) -> None:
        self.counts["vm.executions"] += 1
        if result.status == "timeout":
            self.counts["vm.budget_exhausted"] += 1

    def _count_oracle(self, args, result) -> None:
        self.counts["oracle.fn_candidates"] += len(result.fn_candidates)
        self.counts["oracle.opt_discrepancies"] += \
            result.optimization_discrepancies

    def _wrap_checkpoint(self, fn: Callable) -> Callable:
        """Checkpoint flush: bytes of every snapshot actually written."""
        traced = self._wrap("orchestrator.checkpoint", fn)
        counts = self.counts

        def stamp(path):
            try:
                info = os.stat(path)
            except OSError:
                return None
            return info.st_ino, info.st_mtime_ns, info.st_size

        @functools.wraps(fn)
        def wrapper(checkpoint, *args, **kwargs):
            before = stamp(checkpoint.path)
            result = traced(checkpoint, *args, **kwargs)
            after = stamp(checkpoint.path)
            if after is not None and after != before:
                counts["orchestrator.checkpoint.bytes"] += after[2]
            return result
        return wrapper

    def _wrap_run_binaries(self, fn: Callable) -> Callable:
        """Batch executor: binaries handed in vs. VM runs actually made."""
        traced = self._wrap("vm.execute", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(binaries, *args, **kwargs):
            before = counts["vm.executions"]
            results = traced(binaries, *args, **kwargs)
            counts["vm.batch.binaries"] += sum(1 for b in binaries
                                               if b is not None)
            counts["vm.batch.executions"] += counts["vm.executions"] - before
            return results
        return wrapper

    # -- install / restore ---------------------------------------------------

    def _wrapper_for(self, attr: str, layer: str, fn: Callable) -> Callable:
        if layer == "compilers.frontend":
            return self._wrap_cache("compilers.frontend.build", fn, 1,
                                    hit_layer=layer)
        if layer == "optim":
            return self._wrap_cache(layer, fn, 4)
        if layer == "vm.closure_compile":
            return self._wrap_cache(layer, fn, 1)
        if attr == "run_binaries":
            return self._wrap_run_binaries(fn)
        if layer == "orchestrator.checkpoint":
            return self._wrap_checkpoint(fn)
        after = {"ubgen": self._count_ubgen,
                 "oracle": self._count_oracle}.get(layer)
        if attr == "run" and layer == "vm.execute":
            after = self._count_run
        return self._wrap(layer, fn, after)

    def install(self) -> None:
        for owner, attr, layer in entry_points():
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper_for(attr, layer, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def patched() -> List[str]:
        """Entry points still wrapped (empty once restored)."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, _layer in entry_points()
                if hasattr(vars(owner)[attr], "__wrapped__")]

    def __enter__(self) -> "LayerTracer":
        self.install()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._started
        self.restore()

    # -- folding -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span duration minus direct children."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _layer, parent, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = Counter()
        for index, (layer, _parent, start, end) in enumerate(spans):
            totals[layer] += (end - start) - child_time[index]
        # A frontend miss's parse is frontend work too.
        totals["compilers.frontend"] += totals.pop("compilers.frontend.build",
                                                   0.0)
        return dict(totals)

    def inclusive_time(self, layer: str) -> float:
        """Wall time inside *layer*'s outermost spans, children included."""
        spans = self.spans

        def inside(parent: Optional[int]) -> bool:
            while parent is not None:
                if spans[parent][0] == layer:
                    return True
                parent = spans[parent][1]
            return False
        return sum(end - start for name, parent, start, end in spans
                   if name == layer and not inside(parent))

    def root_time(self) -> float:
        return sum(end - start for _layer, parent, start, end in self.spans
                   if parent is None)

    def raw(self) -> dict:
        """This trace folded to plain JSON, for :func:`metrics`."""
        return {"wall_s": self.wall_s, "self_times": self.self_times(),
                "triage_inclusive_s": self.inclusive_time("triage"),
                "counts": dict(self.counts)}


def metrics(raws: List[dict], untraced_wall_s: Optional[float] = None
            ) -> Dict[str, float]:
    """Fold the :meth:`LayerTracer.raw` traces of one or more campaigns
    into the per-layer metrics (ratios are taken over the summed counts).

    ``trace_overhead`` is the traced wall over *untraced_wall_s*, the wall
    of the same campaigns without tracing."""
    counts: Counter = Counter()
    self_times: Counter = Counter()
    for raw in raws:
        counts.update(raw["counts"])
        self_times.update(raw["self_times"])
    wall = sum(raw["wall_s"] for raw in raws)
    out: Dict[str, float] = {f"{layer}.self_s": self_times[layer]
                             for layer in SELF_TIME_LAYERS}
    for name in ("seedgen.calls", "seedgen.failed", "ubgen.programs",
                 "compilers.compile.calls", "compilers.compile.failed",
                 "sanitizers.instrument.calls", "vm.closure_compile.calls",
                 "vm.executions", "vm.budget_exhausted",
                 "oracle.fn_candidates", "oracle.opt_discrepancies",
                 "triage.calls", "corpusdb.write.calls",
                 "orchestrator.checkpoint.bytes"):
        out[name] = counts[name]
    out["triage.inclusive_s"] = sum(raw["triage_inclusive_s"] for raw in raws)
    out["optim.runs"] = counts["optim.calls"]
    lookups = counts["cache.hits"] + counts["cache.misses"]
    out["compilers.cache.hit_ratio"] = (counts["cache.hits"] / lookups
                                        if lookups else 0.0)
    out["compilers.cache.evictions"] = counts["cache.evictions"]
    out["vm.compiles_per_execution"] = (
        counts["vm.closure_compile.calls"] / counts["vm.executions"]
        if counts["vm.executions"] else 0.0)
    binaries = counts["vm.batch.binaries"]
    out["vm.dedupe_ratio"] = (1.0 - counts["vm.batch.executions"] / binaries
                              if binaries else 0.0)
    unattributed = wall - sum(self_times.values())
    out["traced_wall_s"] = wall
    out["unattributed_s"] = unattributed
    out["unattributed_share"] = unattributed / wall if wall else 0.0
    out["trace_overhead"] = (wall / untraced_wall_s if untraced_wall_s
                             else 0.0)
    return out
