#!/usr/bin/env python3
"""Measure the tier-up constant of :mod:`repro.vm.tier` on the running host.

    PYTHONPATH=src python scripts/calibrate_tiering.py [--rng-seed N] [--seeds N]

Builds fuzz-shaped binaries (generated seeds, every UB type, a spread of the
default differential matrix) and times, per binary, one closure compile, an
interpreted run and a compiled run (best of three each).  Prints the compile
cost per AST node, the closure executor's saving per step and their ratio:
the interpreted steps per node after which a compile has paid for itself,
i.e. the value ``TIER_UP_STEPS_PER_NODE`` should take.
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.compilers import CompilationCache, make_compiler
from repro.core import UBGenerator
from repro.core.differential import default_configs
from repro.seedgen import CsmithGenerator, GeneratorConfig
from repro.utils.errors import CompilationError
from repro.vm import compile_program
from repro.vm.tier import TIER_UP_STEPS_PER_NODE, node_count


def _best(func, rounds=3):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure(rng_seed: int, seeds: int) -> list:
    """``(nodes, steps, compile_s, interp_s, compiled_s)`` per binary."""
    generator = CsmithGenerator(GeneratorConfig(seed=rng_seed))
    ub_generator = UBGenerator(seed=rng_seed, max_programs_per_type=1)
    rows = []
    for index in range(seeds):
        for programs in ub_generator.generate_all(
                generator.generate(index)).values():
            for program in programs:
                cache = CompilationCache()
                compilers = {name: make_compiler(name, cache=cache)
                             for name in ("gcc", "llvm")}
                for config in default_configs(program.ub_type)[::4]:
                    try:
                        binary = compilers[config.compiler].compile(
                            program.source, opt_level=config.opt_level,
                            sanitizer=config.sanitizer)
                    except CompilationError:
                        continue
                    compile_s, closures = _best(
                        lambda: compile_program(binary.unit, binary.sema), 2)
                    interp_s, _ = _best(lambda: binary.run(vm="interp"))
                    compiled_s, result = _best(lambda: closures.run(
                        runtime=binary.build_runtime()))
                    rows.append((node_count(binary.unit), result.steps,
                                 compile_s, interp_s, compiled_s))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rng-seed", type=int, default=11)
    parser.add_argument("--seeds", type=int, default=4)
    args = parser.parse_args()
    rows = measure(args.rng_seed, args.seeds)
    nodes = sum(row[0] for row in rows)
    steps = sum(row[1] for row in rows)
    compile_per_node = sum(row[2] for row in rows) / nodes
    save_per_step = sum(row[3] - row[4] for row in rows) / steps
    print(f"binaries             : {len(rows)} (median "
          f"{statistics.median(row[0] for row in rows):.0f} nodes, "
          f"{statistics.median(row[1] for row in rows):.0f} steps)")
    print(f"compile              : {compile_per_node * 1e6:.1f} us/node "
          f"(median {statistics.median(row[2] for row in rows) * 1e3:.1f} "
          f"ms)")
    print(f"saving               : {save_per_step * 1e6:.2f} us/step")
    print(f"break-even           : {compile_per_node / save_per_step:.1f} "
          f"steps/node (TIER_UP_STEPS_PER_NODE = {TIER_UP_STEPS_PER_NODE})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
