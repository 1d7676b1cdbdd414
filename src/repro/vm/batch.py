"""Batched execution of compiled binaries — the ``run_many`` executor.

A differential matrix runs one program under many configurations, and a
reduction screen runs many candidate programs under the same few.  Executing
the batch together instead of one binary at a time buys two amortizations:

* **closure compilation**, for the keys whose interpreted runs have paid
  for it (:mod:`repro.vm.tier`), happens once per (program, effective
  pipeline signature) through the
  :class:`~repro.compilers.cache.CompilationCache` closure layer each binary
  carries (``CompiledBinary.compiled_program``);
* **identical executions collapse**: the VM is deterministic, so two
  configurations whose instrumented unit *content* and sanitizer runtime
  construction are identical must produce bit-identical
  :class:`~repro.vm.errors.ExecutionResult`\\ s.  ``run_binaries`` detects
  this with :func:`execution_signature` and runs each distinct execution
  once (``-O2`` and ``-O3`` pipelines frequently converge on the same
  optimized unit, which makes this the matrix's biggest win).

Deduplication is sound because the signature captures everything a run can
observe: the printed unit content (which fixes the compiled closures *and*
the semantic analysis, both deterministic functions of it), the sanitizer
runtime construction inputs (sanitizer, compiler, version and the active
defect identities — opt-level effects are already resolved into the
instrumented unit and the defect list), and the step budget.  Runs with
side-effecting observers (coverage-collecting contexts) never get a
signature and therefore always execute.

Results are shared objects; callers treat :class:`ExecutionResult` as
immutable (everything in the repo does).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.cdsl.printer import print_program
from repro.cdsl.visitor import walk
from repro.telemetry import runtime as telemetry
from repro.vm.errors import ExecutionResult
from repro.vm.interpreter import DEFAULT_MAX_STEPS


@dataclass
class BatchStats:
    """Counters for one batched execution (merged in place by the helpers)."""

    executions: int = 0   #: VM runs actually performed
    reused: int = 0       #: results served by the batch's dedup memo

    @property
    def total(self) -> int:
        return self.executions + self.reused


def unit_digest(binary) -> str:
    """Content digest of a binary's instrumented unit (memoized on it).

    The digest covers the printed program *and* the pre-order sequence of
    node source locations: two pipelines can converge on textually identical
    trees whose nodes still carry different locations (synthesized during
    different rewrites), and locations are observable through the site
    trace, ``executed_sites`` and report/crash locations.
    """
    digest = binary.metadata.get("unit_digest")
    if digest is None:
        hasher = hashlib.sha256(print_program(binary.unit).encode("utf-8"))
        locs = ",".join(f"{node.loc.line}:{node.loc.col}"
                        for node in walk(binary.unit))
        hasher.update(locs.encode("ascii"))
        digest = hasher.hexdigest()
        binary.metadata["unit_digest"] = digest
    return digest


def execution_signature(binary, max_steps: int) -> Optional[tuple]:
    """A key equal for two binaries iff their runs are bit-identical.

    Returns None when the run is not safely memoizable (a coverage-collecting
    sanitizer context records branch hits as a side effect of running).

    Defects enter the signature only through their *runtime-observable*
    state.  Check suppression (``check_predicate``) and report-line skew
    both act at instrumentation time — their entire effect is baked into
    the printed unit and therefore into :func:`unit_digest` — while at run
    time the sanitizer runtimes consult the context solely through
    ``InstrumentationContext.runtime_overrides()`` (plus coverage hooks,
    excluded above).  Keying on the merged override dict instead of the
    raw defect-id list lets e.g. the ``-O2`` and ``-O3`` cells of a matrix
    share one execution whenever their optimized units converged, even
    though different check-suppressing defects were active while
    instrumenting them.
    """
    ctx = binary.sanitizer_context
    if ctx is None:
        runtime_sig = None
    else:
        if ctx.coverage is not None:
            return None
        overrides = ctx.runtime_overrides()
        runtime_sig = (ctx.sanitizer, ctx.compiler, ctx.version,
                       tuple(sorted((key, repr(value))
                                    for key, value in overrides.items())))
    return (unit_digest(binary), runtime_sig, max_steps)


def run_binaries(binaries: Sequence, *,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 vm: str = "compiled",
                 dedupe: bool = True,
                 stats: Optional[BatchStats] = None
                 ) -> List[Optional[ExecutionResult]]:
    """Execute a batch of :class:`~repro.compilers.binary.CompiledBinary`.

    ``None`` entries (failed compiles) map to ``None`` results.  With
    ``dedupe`` (the default), binaries with equal :func:`execution_signature`
    run once and share the result object.  ``vm`` selects the executor for
    the runs that do happen (``"compiled"`` or ``"interp"``).
    """
    stats = stats if stats is not None else BatchStats()
    memo: Dict[tuple, ExecutionResult] = {}
    results: List[Optional[ExecutionResult]] = []
    for binary in binaries:
        if binary is None:
            results.append(None)
            continue
        signature = execution_signature(binary, max_steps) if dedupe else None
        if signature is not None:
            cached = memo.get(signature)
            if cached is not None:
                stats.reused += 1
                telemetry.inc("vm.batch.reused")
                results.append(cached)
                continue
        with telemetry.stage("execute", config=binary.label, vm=vm):
            result = binary.run(max_steps=max_steps, vm=vm)
        stats.executions += 1
        if signature is not None:
            memo[signature] = result
        results.append(result)
    return results


def run_many(programs: Sequence, configs: Sequence,
             compile_fn: Callable,
             *,
             max_steps: int = DEFAULT_MAX_STEPS,
             vm: str = "compiled",
             dedupe: bool = True,
             stats: Optional[BatchStats] = None
             ) -> List[List[Optional[ExecutionResult]]]:
    """Compile and execute every (program, config) cell, program-major.

    ``compile_fn(program, config)`` returns a binary or ``None`` for a
    failed compile.  Program-major order keeps each program's artifacts
    (frontend, optimizer masters, compiled closures) hot in the shared
    caches while its configuration row executes.  Returns one result row
    per program, aligned with *configs*.
    """
    stats = stats if stats is not None else BatchStats()
    rows: List[List[Optional[ExecutionResult]]] = []
    for program in programs:
        binaries = [compile_fn(program, config) for config in configs]
        rows.append(run_binaries(binaries, max_steps=max_steps, vm=vm,
                                 dedupe=dedupe, stats=stats))
    return rows
