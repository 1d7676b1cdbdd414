"""Gallery parity under the compiled VM.

The fn-bug gallery (examples/fn_bug_gallery.py) and the seeded marker
defect windows are the repo's pinned observable corpus: every figure entry
and mined campaign crash must behave **byte-identically** whichever
executor runs it.  This suite pins that:

* every gallery figure entry produces a field-identical
  :class:`~repro.vm.errors.ExecutionResult` under the closure-compiled
  program and ``vm="interp"`` — same detection, same miss, same report,
  same trace.  ``vm="compiled"`` is tiered (it interprets a binary until
  its closure key has paid for a compile), so these tests drive the
  closure program explicitly through :func:`_run_compiled`;
* the batched executor (:func:`repro.vm.batch.run_binaries`) returns the
  same results with and without execution deduplication, and the same as
  one-at-a-time ``binary.run`` — the serial ≡ batched bit-identity;
* the elimination oracle's liveness sequence (the marker engine's ground
  truth over the seeded defect windows) is identical for both executors;
* (slow) the mined campaign crash set and a reduction through the
  ``--reduce`` path are byte-identical whichever executor screens the
  candidates, serial or parallel.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.compilers import GccCompiler, LlvmCompiler, make_compiler
from repro.core import UBProgram
from repro.core.differential import DifferentialTester
from repro.markers import MarkerPlanter
from repro.markers.oracle import EliminationOracle
from repro.reduction import HierarchicalReducer, make_fn_bug_predicate
from repro.vm.batch import BatchStats, run_binaries
from repro.vm.interpreter import DEFAULT_MAX_STEPS

EXAMPLES_DIR = str(Path(__file__).resolve().parents[2] / "examples")
if EXAMPLES_DIR not in sys.path:
    sys.path.insert(0, EXAMPLES_DIR)

import fn_bug_gallery  # noqa: E402


def _build(config, source):
    compiler = (GccCompiler(version=13) if config.compiler == "gcc"
                else LlvmCompiler(version=17))
    return compiler.compile(source, opt_level=config.opt_level,
                            sanitizer=config.sanitizer)


def _run_compiled(binary, max_steps=DEFAULT_MAX_STEPS):
    """One run of *binary*'s closure-compiled program, never interpreted."""
    return binary.compiled_program().run(runtime=binary.build_runtime(),
                                         max_steps=max_steps)


# -- figure entries -----------------------------------------------------------


@pytest.mark.parametrize("entry", fn_bug_gallery.GALLERY,
                         ids=[title.split(":")[0] for title, *_ in
                              fn_bug_gallery.GALLERY])
def test_figure_entries_are_identical_under_both_executors(entry):
    title, source, ub_type, detecting, missing = entry
    for config in (detecting, missing):
        binary = _build(config, source)
        compiled = _run_compiled(binary)
        interp = binary.run(vm="interp")
        assert compiled == interp, f"{title} under {config.label}"
    # The headline FN discrepancy itself survives the compiled executor.
    assert _run_compiled(_build(detecting, source)).crashed, title
    assert _run_compiled(_build(missing, source)).exited_normally, title


# -- batched execution bit-identity -------------------------------------------


def test_run_binaries_dedup_is_bit_identical_to_serial_runs():
    """The 9-config llvm matrix of the Figure 1 program: batched execution
    with dedup, without dedup, and plain one-at-a-time runs all agree."""
    source = fn_bug_gallery.GALLERY[3][1]
    llvm = make_compiler("llvm")
    binaries = [llvm.compile(source, opt_level=opt, sanitizer=san)
                for san in ("asan", "ubsan", "msan")
                for opt in ("-O0", "-O2", "-O3")]
    stats = BatchStats()
    deduped = run_binaries(binaries, stats=stats)
    plain = run_binaries(binaries, dedupe=False)
    serial = [binary.run() for binary in binaries]
    assert deduped == plain == serial
    assert stats.total == len(binaries)
    assert stats.executions + stats.reused == stats.total


def test_differential_tester_outcomes_match_across_vms():
    source = fn_bug_gallery.GALLERY[0][1]
    program = UBProgram(source=source, ub_type=fn_bug_gallery.GALLERY[0][2])
    compiled_tester = DifferentialTester(vm="compiled")
    tiered = compiled_tester.test(program)
    interp = DifferentialTester(vm="interp").test(program)
    assert [o.result for o in tiered.outcomes] == \
        [o.result for o in interp.outcomes]
    assert len(tiered.fn_candidates) == len(interp.fn_candidates)
    # And every cell's closure-compiled program agrees with the interpreter.
    for outcome in interp.outcomes:
        binary, _ = compiled_tester.compile_config(program, outcome.config)
        assert _run_compiled(binary, compiled_tester.max_steps) == \
            outcome.result, outcome.config.label


# -- seeded marker defect windows ---------------------------------------------

_WINDOW_SOURCES = [
    # Programs that sit inside seeded OptimizerDefect windows (see
    # tests/markers/test_marker_gallery.py for the finding-level pins).
    "int main() {\n  int c = 0;\n  if (c) { c = 5; }\n  return c;\n}\n",
    "int main() {\n  if (1) { return 0; }\n  return 1;\n}\n",
    ("int g = 0;\nint main() {\n  for (int i = 0; 0; i++) { g += 1; }\n"
     "  return g;\n}\n"),
]


@pytest.mark.parametrize("source", _WINDOW_SOURCES,
                         ids=["constprop", "constant-fold", "loop-opts"])
def test_marker_window_liveness_is_identical_across_vms(source):
    """The oracle's liveness sequence — the marker engine's ground truth —
    is executor-independent on the seeded defect-window programs."""
    planter = MarkerPlanter()
    marked = planter.plant(source, seed_index=0)
    compiled_oracle = EliminationOracle(vm="compiled")
    expected = EliminationOracle(vm="interp").liveness(marked)
    # The compiled oracle interprets until the source has paid for its
    # closure compile; probe across the promotion and once more from the
    # closure cache.
    probes = 0
    while not compiled_oracle.cache.stats()["closure_entries"]:
        assert compiled_oracle.liveness(marked) == expected
        probes += 1
        assert probes <= 500, "liveness source never promoted"
    assert compiled_oracle.liveness(marked) == expected


# -- the mined campaign crash set and --reduce (tier-2) ------------------------


@pytest.mark.slow
def test_campaign_crash_set_outcomes_identical_across_vms():
    crashes = fn_bug_gallery.campaign_crash_set(max_crashes=3)
    assert crashes
    compiled_tester = DifferentialTester(opt_levels=("-O0", "-O2"),
                                         vm="compiled")
    interp_tester = DifferentialTester(opt_levels=("-O0", "-O2"),
                                       vm="interp")
    for title, program, detecting, missing in crashes:
        for config in (detecting, missing):
            binary, _ = compiled_tester.compile_config(program, config)
            a = _run_compiled(binary, compiled_tester.max_steps)
            b = interp_tester.run_config(program, config)
            assert a == b.result, f"{title} under {config.label}"


@pytest.mark.slow
def test_reduction_is_bit_identical_across_vms_and_parallelism():
    """The --reduce path: the same crash reduces to the same minimal
    reproducer whichever executor screens candidates, serial or parallel."""
    crashes = fn_bug_gallery.campaign_crash_set(max_crashes=1)
    _, program, detecting, missing = crashes[0]
    results = {}
    for vm in ("compiled", "interp"):
        predicate = make_fn_bug_predicate(
            program, detecting, missing,
            tester=DifferentialTester(opt_levels=("-O0", "-O2"), vm=vm))
        results[vm] = HierarchicalReducer(predicate).reduce(program.source)
    assert results["compiled"].reduced_source == \
        results["interp"].reduced_source
    assert results["compiled"].predicate_evaluations == \
        results["interp"].predicate_evaluations
