"""UB generation throughput — ``UBGenerator.generate_all`` per seed.

Algorithm 1 (match → profile → synthesize → insert, then re-parse and
re-analyze every mutant) runs once per seed in every fuzz campaign and is
nearly all of a ``--resurvey`` campaign.  This bench times
``generate_all`` over every UB type, one program per type as campaigns
run it, on fixed seeds whose source sizes (2,900–3,700 characters) lie in
the campaign benchmark's size band, and asserts the generated programs
still hash to the golden digests pinned in
``tests/core/test_ubgen_golden.py``: a speedup that changes the output
does not count.

The record (``artifacts/bench_ubgen_throughput.json``) carries
``seeds_per_sec`` and ``programs_per_sec`` (best of ``ROUNDS``), which
``scripts/check_bench_regression.py`` tracks.
"""

from __future__ import annotations

import os
import sys
import time

from bench_common import bench_print, run_once, write_bench_record

from repro.core.ubgen import UBGenerator
from repro.seedgen import CsmithGenerator, GeneratorConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests", "core"))
from test_ubgen_golden import GOLDEN, generation_digest  # noqa: E402

#: CsmithGenerator seeds with in-band seed programs and pinned digests.
SEEDS = (1, 2, 4)
ROUNDS = 3


def test_ubgen_throughput(benchmark):
    for config_seed in SEEDS:
        digest, _count = generation_digest(config_seed, 1)
        assert digest == GOLDEN[(config_seed, 1)], (
            f"seed {config_seed}: generated programs differ from the golden "
            f"digest")

    seeds = [CsmithGenerator(GeneratorConfig(seed=s)).generate(0) for s in SEEDS]
    assert all(2900 <= len(seed.source) <= 3700 for seed in seeds)

    def generate_all():
        generator = UBGenerator(seed=1, max_programs_per_type=1)
        return sum(len(found) for seed in seeds
                   for found in generator.generate_all(seed).values())

    best, programs = float("inf"), 0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        programs = generate_all()
        best = min(best, time.perf_counter() - start)
    run_once(benchmark, generate_all)

    bench_print()
    bench_print(f"=== UB generation throughput ({len(SEEDS)} in-band seeds, "
                f"all UB types, 1 program per type) ===")
    bench_print(f"generate_all : {best:.3f} s for {programs} programs = "
                f"{len(SEEDS) / best:.2f} seeds/s, "
                f"{programs / best:.1f} programs/s")
    write_bench_record(
        "ubgen_throughput",
        seeds=len(SEEDS),
        programs=programs,
        generate_all_seconds=round(best, 4),
        seeds_per_sec=round(len(SEEDS) / best, 3),
        programs_per_sec=round(programs / best, 2))
