"""Compiled-VM batched throughput — ``run_binaries`` vs the interpreter.

The campaign's wall clock is dominated by step-heavy differential cells:
programs whose sanitizer-instrumented loops execute tens of thousands of VM
ticks under every configuration of the matrix.  The closure-bytecode
executor (:mod:`repro.vm.compile`) targets exactly those: statement regions
compile to fused closures with bulk tick accounting, and the batched
executor (:func:`repro.vm.batch.run_binaries`) collapses configurations
whose instrumented unit and sanitizer runtime construction converged
(``-O2``/``-O3`` pipelines usually do) into one execution.

This bench runs the canonical 9-configuration LLVM matrix (ASan/UBSan/MSan
x -O0/-O2/-O3) over one step-heavy program both ways and asserts:

* one cold pass compiles no closure: ``vm="compiled"`` is tiered
  (:mod:`repro.vm.tier`) and interprets a key until it has paid for its
  compile;
* once warm, the batched compiled executor is at least ``MIN_SPEEDUP``x
  faster than one-at-a-time interpreter runs of the same matrix, and
* every :class:`~repro.vm.errors.ExecutionResult` is bit-identical between
  the two executors (the dual-executor safety net, measured on the same
  binaries the timing used).
"""

from __future__ import annotations

import os
import time

from bench_common import bench_print, run_once, write_bench_record

from repro.compilers import CompilationCache, make_compiler
from repro.vm.batch import BatchStats, run_binaries

#: The matrix of the paper's Figure 1 experiment: one compiler, the three
#: supported sanitizers, the opt levels where FN discrepancies live.
SANITIZERS = ("asan", "ubsan", "msan")
OPT_LEVELS = ("-O0", "-O2", "-O3")

INTERP_ROUNDS = 3
COMPILED_ROUNDS = 5

#: Required speedup of the batched compiled executor over serial
#: interpreter runs on the 9-config matrix (the tentpole's acceptance bar).
#: The blocking tier-1 CI job relaxes the gate so a noisy shared runner
#: cannot fail the suite on a wall-clock ratio; the dedicated throughput
#: job and local runs enforce the full bar.
MIN_SPEEDUP = 2.0 if os.environ.get("RELAXED_THROUGHPUT_GATE") else 5.0

#: Hard ceiling for the disabled-telemetry cost on the batched hot path
#: (the same budget ``test_differential_throughput`` pins for the
#: interpreter-era matrix).
TELEMETRY_OVERHEAD_BUDGET = 0.02

_HOOK_TIMING_ITERS = 50_000

#: A step-heavy, crash-free program: sanitizer-instrumented array traffic
#: and integer arithmetic inside a loop nest — the shape of the expensive
#: differential cells the batched executor exists for.  ~500k VM steps
#: across the deduplicated matrix.
STEP_HEAVY_SOURCE = """\
int data[64];
int acc = 0;
int main() {
  int i = 0;
  int j = 0;
  int t = 0;
  for (i = 0; i < 64; i = i + 1) {
    data[i] = i * 3;
  }
  for (i = 0; i < 60; i = i + 1) {
    for (j = 0; j < 15; j = j + 1) {
      t = t + data[(i + j) % 64] * (j + 1);
      t = t ^ (i - j);
      acc = acc + (t % 1000);
    }
  }
  return acc & 255;
}
"""


def _matrix_binaries():
    llvm = make_compiler("llvm", cache=CompilationCache())
    return [llvm.compile(STEP_HEAVY_SOURCE, opt_level=level, sanitizer=san)
            for san in SANITIZERS for level in OPT_LEVELS]


def _best_of(rounds, func):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_vm_compile_throughput(benchmark):
    binaries = _matrix_binaries()
    cache = binaries[0].cache

    # The cold path: on one pass every closure key is new, so the tiered
    # policy interprets each execution and compiles nothing (a fuzz
    # campaign runs nearly every binary exactly once).
    stats = BatchStats()
    cold = run_binaries(binaries, stats=stats)
    total_steps = sum(result.steps for result in cold)
    assert all(result.status == "ok" for result in cold)
    assert cache.stats()["closure_entries"] == 0, \
        "a cold pass must not compile closures"

    # The warm path: the matrix program is step-heavy, so that one pass
    # already paid for every executed key's compile.  The first compiled
    # round below compiles; best-of timing measures the promoted rounds.

    interp_seconds, interp = _best_of(
        INTERP_ROUNDS,
        lambda: [binary.run(vm="interp") for binary in binaries])
    compiled_seconds, compiled = _best_of(
        COMPILED_ROUNDS, lambda: run_binaries(binaries))
    nodedup_seconds, nodedup = _best_of(
        COMPILED_ROUNDS, lambda: run_binaries(binaries, dedupe=False))
    run_once(benchmark, lambda: run_binaries(binaries))

    speedup = interp_seconds / compiled_seconds
    configs = len(binaries)
    bench_print()
    bench_print("=== Compiled-VM batched throughput "
                f"({configs} configs, {total_steps} steps) ===")
    bench_print(f"interpreter (serial) : {interp_seconds * 1000:7.1f} ms")
    bench_print(f"compiled (batched)   : {compiled_seconds * 1000:7.1f} ms = "
                f"{speedup:4.2f}x  [{stats.executions} executions, "
                f"{stats.reused} deduplicated]")
    bench_print(f"compiled (no dedup)  : {nodedup_seconds * 1000:7.1f} ms = "
                f"{interp_seconds / nodedup_seconds:4.2f}x")

    # The dual-executor bit-identity, on the exact binaries just timed:
    # batched-with-dedup, batched-without, and serial interpreter runs all
    # produce field-identical ExecutionResults.
    assert compiled == nodedup == interp
    assert stats.executions + stats.reused == configs

    write_bench_record(
        "vm_compile_throughput",
        matrix_configs=configs,
        total_steps=total_steps,
        interp_ms=round(interp_seconds * 1000, 2),
        compiled_ms=round(compiled_seconds * 1000, 2),
        compiled_nodedup_ms=round(nodedup_seconds * 1000, 2),
        executions=stats.executions,
        deduplicated=stats.reused,
        speedup=round(speedup, 3),
        min_speedup=MIN_SPEEDUP)

    assert speedup >= MIN_SPEEDUP, (
        f"batched compiled executor must be >= {MIN_SPEEDUP}x the "
        f"interpreter on the {configs}-config matrix, measured "
        f"{speedup:.2f}x")


def test_compiled_disabled_hook_overhead():
    """Extend the ≤2% disabled-telemetry guard to the compiled executor.

    The compiled VM hoists every observer — site callbacks, profile
    collectors, call hooks, telemetry — behind nullable fast paths: a fused
    region performs one ``site_callback is None`` test for the whole
    region, and the only telemetry crossings on a batch are the per-binary
    ``execute`` stage and the per-run counter touch.  As in
    ``test_differential_throughput``, a 2% bound cannot be resolved by
    comparing wall clocks, so the guard decomposes it:

    1. count the hook crossings one batched matrix performs (enabled run),
    2. measure the disabled fast-path cost per crossing, and
    3. assert ``crossings x cost <= 2%`` of the batch's wall time.
    """
    from repro.telemetry import runtime as telemetry

    assert telemetry.current() is None, "bench must start with telemetry off"
    binaries = _matrix_binaries()
    run_binaries(binaries)   # pays for every key: later passes run compiled

    # 1. Hook crossings per batched matrix, counted by an enabled run.
    telemetry.enable(campaign="bench-vm-overhead")
    try:
        run_binaries(binaries)
        totals = telemetry.current().metrics.deterministic_totals()
    finally:
        telemetry.disable()
    # ``vm.steps`` is recorded by amount in the same registry touch as
    # ``vm.runs`` — not a crossing count.  Stages cross twice; double
    # everything as safety margin.
    crossings = 2 * sum(value for key, value in totals.items()
                        if key != "vm.steps")
    assert crossings > 0

    # 2. Per-crossing cost of the disabled fast path (inc + stage).
    start = time.perf_counter()
    for _ in range(_HOOK_TIMING_ITERS):
        telemetry.inc("overhead.probe")
        with telemetry.stage("execute"):
            pass
    per_crossing = (time.perf_counter() - start) / (2 * _HOOK_TIMING_ITERS)

    # 3. The wall time the overhead is relative to.
    batch_seconds, _ = _best_of(COMPILED_ROUNDS,
                                lambda: run_binaries(binaries))

    overhead_seconds = crossings * per_crossing
    share = overhead_seconds / batch_seconds
    bench_print()
    bench_print("=== Disabled-telemetry overhead (compiled batched matrix) ===")
    bench_print(f"hook crossings : {crossings} per batch")
    bench_print(f"fast-path cost : {per_crossing * 1e9:6.1f} ns/crossing")
    bench_print(f"overhead       : {overhead_seconds * 1e6:6.1f} us on a "
                f"{batch_seconds * 1000:.1f} ms batch = {share:.4%} "
                f"(budget: {TELEMETRY_OVERHEAD_BUDGET:.0%})")
    write_bench_record(
        "vm_compile_overhead",
        hook_crossings=crossings,
        fast_path_ns=round(per_crossing * 1e9, 1),
        overhead_share=round(share, 6),
        budget=TELEMETRY_OVERHEAD_BUDGET)

    assert share <= TELEMETRY_OVERHEAD_BUDGET, (
        f"disabled telemetry costs {share:.2%} of the batched matrix "
        f"(budget: {TELEMETRY_OVERHEAD_BUDGET:.0%})")
