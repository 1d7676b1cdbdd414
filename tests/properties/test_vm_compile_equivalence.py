"""Property: the compiled executor is bit-identical to the interpreter.

The closure-bytecode compiler (:mod:`repro.vm.compile`) is only allowed to
change *how fast* a program runs, never *what the run observes*.  This
suite pins the dual-executor contract with hypothesis over generated
programs, UB-free and UB-carrying, across flat and version-aware
pipelines:

* the **whole** :class:`~repro.vm.errors.ExecutionResult` is equal field
  for field — status, exit code, stdout, sanitizer report (kind, message,
  location), crash site, step count, site trace, truncation flag and
  executed-site set;
* the **hook streams** match exactly: the site-callback sequence, the
  marker ``call_hook`` sequence and the profile collector's observations
  fire at the same points in the same order;
* **partial runs** agree: a tiny step budget times both executors out at
  the same step with the same partial trace and stdout, and a tiny trace
  cap truncates both traces identically;
* the **tiered** ``vm="compiled"`` policy is invisible: one closure key
  run again and again across its promotion boundary gives the interpreter's
  result on every run.

Under CI the derandomized hypothesis profile (tests/conftest.py) replays a
fixed example corpus, keeping tier-1 deterministic.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdsl import analyze, parse_program
from repro.compilers import CompilationCache, all_versions, make_compiler
from repro.core import UBGenerator
from repro.core.ub_types import ALL_UB_TYPES
from repro.markers import MarkerPlanter
from repro.seedgen import CsmithGenerator, GeneratorConfig
from repro.telemetry import runtime as telemetry
from repro.vm import Interpreter, compile_program
from repro.vm.tier import TIER_UP_STEPS_PER_NODE, node_count

MAX_STEPS = 150_000

_generator = CsmithGenerator(GeneratorConfig(seed=20260806))
_ub_generator = UBGenerator(seed=20260806, max_programs_per_type=1)
_planter = MarkerPlanter()
_cache = CompilationCache()

#: Each compiler's full sanitizer matrix (gcc has no MSan, Table 2).
_CONFIGS = {
    "gcc": [(san, opt) for san in ("asan", "ubsan")
            for opt in ("-O0", "-O2", "-O3")],
    "llvm": [(san, opt) for san in ("asan", "ubsan", "msan")
             for opt in ("-O0", "-O2", "-O3")],
}


def _assert_identical(binary, label, max_steps=MAX_STEPS):
    """Both executors of one binary produce field-identical results.

    The closure program is driven explicitly: ``vm="compiled"`` is tiered
    and would interpret a binary's first runs."""
    compiled = binary.compiled_program().run(
        runtime=binary.build_runtime(), max_steps=max_steps)
    interp = binary.run(max_steps=max_steps, vm="interp")
    assert compiled == interp, label
    return compiled


def _run_with_hooks(runner_cls_is_compiled, unit, sema, runtime,
                    max_steps=MAX_STEPS, max_trace_len=2_000):
    """One execution with every hook attached; returns (result, streams)."""
    sites, calls = [], []
    if runner_cls_is_compiled:
        result = compile_program(unit, sema).run(
            runtime=runtime, max_steps=max_steps,
            site_callback=sites.append, max_trace_len=max_trace_len,
            call_hook=calls.append)
    else:
        result = Interpreter(unit, sema, runtime=runtime,
                             max_steps=max_steps,
                             site_callback=sites.append,
                             max_trace_len=max_trace_len,
                             call_hook=calls.append).run()
    return result, tuple(sites), tuple(calls)


def _assert_hooks_identical(binary, label, max_steps=MAX_STEPS,
                            max_trace_len=2_000):
    ref = _run_with_hooks(False, binary.unit, binary.sema,
                          binary.build_runtime(), max_steps, max_trace_len)
    obs = _run_with_hooks(True, binary.unit, binary.sema,
                          binary.build_runtime(), max_steps, max_trace_len)
    assert obs[0] == ref[0], label
    assert obs[1] == ref[1], f"{label}: site-callback streams differ"
    assert obs[2] == ref[2], f"{label}: call-hook streams differ"


# -- UB-free seed programs ----------------------------------------------------


@pytest.mark.parametrize("compiler_name", ["gcc", "llvm"])
@settings(max_examples=8, deadline=None)
@given(seed_index=st.integers(min_value=0, max_value=40))
def test_ub_free_seeds_identical_across_sanitizer_matrix(compiler_name,
                                                         seed_index):
    """A generated UB-free seed runs bit-identically under every
    (sanitizer, opt level) configuration of both executors."""
    seed = _generator.generate(seed_index)
    compiler = make_compiler(compiler_name, cache=_cache)
    for sanitizer, opt_level in _CONFIGS[compiler_name]:
        binary = compiler.compile(seed.source, opt_level=opt_level,
                                  sanitizer=sanitizer)
        result = _assert_identical(
            binary, f"{compiler_name} {opt_level} {sanitizer} "
                    f"seed {seed_index}")
        assert result.status in ("ok", "timeout")


# -- UB programs: fault kind and site must agree ------------------------------


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_ub_programs_identical_including_faults(data):
    """UB programs — where the sanitizer runtimes, crash sites and abort
    paths actually fire — behave identically under both executors."""
    seed_index = data.draw(st.integers(min_value=0, max_value=20),
                           label="seed_index")
    ub_type = data.draw(st.sampled_from(sorted(ALL_UB_TYPES,
                                               key=lambda t: t.value)),
                        label="ub_type")
    compiler_name = data.draw(st.sampled_from(["gcc", "llvm"]),
                              label="compiler")
    seed = _generator.generate(seed_index)
    programs = _ub_generator.generate(seed, ub_type)
    compiler = make_compiler(compiler_name, cache=_cache)
    for program in programs:
        for sanitizer, opt_level in _CONFIGS[compiler_name]:
            binary = compiler.compile(program.source, opt_level=opt_level,
                                      sanitizer=sanitizer)
            _assert_identical(binary, f"{compiler_name} {opt_level} "
                                      f"{sanitizer} {ub_type.value} "
                                      f"seed {seed_index}")


# -- versioned pipelines and marker-call sequences ----------------------------


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_versioned_pipelines_and_marker_sequences_identical(data):
    """Version-aware pipeline output (the marker engine's compiles) runs
    identically, including the exact marker call_hook sequence."""
    seed_index = data.draw(st.integers(min_value=0, max_value=20),
                           label="seed_index")
    compiler_name = data.draw(st.sampled_from(["gcc", "llvm"]),
                              label="compiler")
    version = data.draw(st.sampled_from(all_versions(compiler_name)),
                        label="version")
    opt_level = data.draw(st.sampled_from(["-O0", "-O2", "-O3"]),
                          label="opt_level")
    seed = _generator.generate(seed_index)
    marked = _planter.plant(seed.source, seed_index=seed_index)
    compiler = make_compiler(compiler_name, version=version, cache=_cache,
                             versioned_pipelines=True)
    binary = compiler.compile(marked.source, opt_level=opt_level)
    _assert_hooks_identical(binary, f"{compiler_name}-{version} {opt_level} "
                                    f"seed {seed_index}")


# -- partial runs: timeouts and trace truncation ------------------------------


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_tiny_budgets_timeout_and_truncate_identically(data):
    """A small step budget must stop both executors at the same step with
    the same partial stdout/trace, and a small trace cap must set the
    truncation flag on both with identical (truncated) traces."""
    seed_index = data.draw(st.integers(min_value=0, max_value=20),
                           label="seed_index")
    max_steps = data.draw(st.integers(min_value=1, max_value=400),
                          label="max_steps")
    max_trace_len = data.draw(st.integers(min_value=1, max_value=50),
                              label="max_trace_len")
    seed = _generator.generate(seed_index)
    unit = parse_program(seed.source)
    sema = analyze(unit)
    ref = _run_with_hooks(False, unit, sema, None, max_steps, max_trace_len)
    obs = _run_with_hooks(True, unit, sema, None, max_steps, max_trace_len)
    assert obs == ref, f"seed {seed_index} max_steps={max_steps} " \
                       f"max_trace_len={max_trace_len}"


# -- tiered execution across the promotion boundary ---------------------------


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_tiered_runs_identical_across_promotion_boundary(data):
    """Sibling binaries of one closure key, run until the key is promoted
    to the compiled executor and beyond, each give the interpreter's
    result."""
    seed_index = data.draw(st.integers(min_value=0, max_value=20),
                           label="seed_index")
    sanitizer, opt_level = data.draw(st.sampled_from(_CONFIGS["llvm"]),
                                     label="config")
    seed = _generator.generate(seed_index)
    compiler = make_compiler("llvm", cache=CompilationCache())
    siblings = [compiler.compile(seed.source, opt_level=opt_level,
                                 sanitizer=sanitizer) for _ in range(2)]
    assert siblings[0].closure_key == siblings[1].closure_key
    reference = siblings[0].run(max_steps=MAX_STEPS, vm="interp")
    assert reference.steps > 0
    # Runs the key interprets before its steps pay for the compile.
    paid_after = -(-TIER_UP_STEPS_PER_NODE * node_count(siblings[0].unit)
                   // reference.steps)
    telemetry.enable(campaign="tier-boundary")
    try:
        for run in range(paid_after + 2):
            result = siblings[run % 2].run(max_steps=MAX_STEPS)
            assert result == reference, f"run {run} of seed {seed_index}"
        totals = telemetry.current().metrics.deterministic_totals()
    finally:
        telemetry.disable()
    assert totals["vm.tier.interpreted"] == paid_after
    assert totals["vm.tier.promoted"] == 2
    assert compiler.cache.stats()["closure_entries"] == 1
