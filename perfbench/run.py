"""Campaign benchmark: end-to-end throughput and a traced per-layer breakdown.

Usage::

    python3 perfbench/run.py --workload {fuzz,markers,resurvey} --seed N \\
        --seconds S --trace {0,1}

One process drives a closed loop of one client: one campaign at a time,
``workers=1``, each campaign in a fresh child process
(``perfbench/campaign.py``) so per-process caches never carry over and
peak memory is that campaign's own.  The workload seed generates the
campaign configs (rng seeds drawn at the stated input size
:data:`SIZE_BAND`); the program only ever sees those configs.

Workloads (``BENCHMARK.json`` and ``perfbench/README.md`` say why):

* ``fuzz`` — a fixed set of six one-seed fuzzing campaigns with the default
  compile matrix, triage on and ``--corpus``/``--db``/``--checkpoint`` as a
  real campaign uses them; each campaign takes three UB types, so the set
  covers all nine twice;
* ``markers`` — eight two-seed marker campaigns over every simulated
  release at ``-O2,-O3`` into a fresh ``--db``, drawn from the seed;
* ``resurvey`` — one fixed four-seed fuzzing config (gcc ``-O0``) re-run
  with ``resurvey=True``, each time against a fresh copy of a findings
  database that set-up pre-populated with every cell.

``--trace 0`` runs the set pass after pass for ``--seconds`` (see
:func:`measure`) and reports ``cells_per_ref_s`` over the run and the
medians of ``peak_rss_mb`` and ``setup_s``.  ``--trace 1`` runs the first rotation
untraced (at least twice), then once with every layer entry point wrapped
(``perfbench/layers.py``), and reports the per-layer metrics.  Every
campaign's verdicts are checked against ground truth
(``perfbench/verdicts.py``) and every repeated campaign must reproduce its
first run's findings digest; a hard wrong verdict or a differing digest
makes the run incorrect and the exit code 1.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "campaign.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: A single campaign that runs longer than this is a hang, not a sample.
CAMPAIGN_TIMEOUT_S = 120

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)
from layers import METRIC_UNITS, metrics as layer_metrics  # noqa: E402

END_TO_END_UNITS = {"cells_per_ref_s": "cells/ref_s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

#: Reference mixes (``campaign.reference_s``) per reference second: about a
#: second of wall on the host the benchmark was written on.
REFERENCE_MIXES = 4


#: Stated input size: a campaign config is used only if each of its seed
#: programs has this many characters of C source (about the middle half of
#: the seed generator's distribution).  Campaign cost and memory grow with
#: program size, so an unbounded draw makes a run's figures depend on a few
#: outlier programs rather than on the code under test.
SIZE_BAND = (2900, 3700)


@dataclass(frozen=True)
class Workload:
    """A campaign kind plus the config knobs every campaign of it shares.

    ``ub_types_per_campaign`` gives each campaign a slice of a shuffled UB
    type order, so consecutive campaigns cover every type equally."""

    kind: str
    config: Dict[str, object] = field(default_factory=dict)
    ub_types_per_campaign: Optional[int] = None
    #: Size of a fixed set of campaigns, drawn from a seed of its own and
    #: run pass after pass; the workload seed only orders each pass.  None
    #: draws every campaign from the workload seed.
    fixed_set: Optional[int] = None

    def rotation(self) -> int:
        """Campaigns that together cover every UB type once."""
        if self.ub_types_per_campaign is None:
            return 1
        from repro.core.ub_types import ALL_UB_TYPES
        return -(-len(ALL_UB_TYPES) // self.ub_types_per_campaign)


# A nine-type fuzz campaign takes about 8 s; a third of the types per
# campaign keeps the full compile matrix and triples the campaigns a run
# holds, and a set of six covers every type twice in about 20 s.
#
# The fuzz and resurvey sets are fixed.  Whether a fuzz campaign's programs
# reach triage decides its cost (1 to 6 s for the same cell count), so the
# ten or so campaigns a run holds, drawn per seed, spread the throughput by
# about a quarter from seed to seed.  A resurvey run affords two campaigns,
# since set-up executes every cell of each; its cost would be whichever
# four programs the seed drew.  Marker campaigns cost much the same as each
# other, and a run draws about fifteen of them from the seed.  The resurvey
# population executes every cell, so its matrix is the smallest (gcc -O0);
# the timed resurvey only regenerates and reads.
WORKLOADS = {
    "fuzz": Workload("fuzz", {"num_seeds": 1, "max_programs_per_type": 1},
                     ub_types_per_campaign=3, fixed_set=6),
    "markers": Workload("markers", {"num_seeds": 2}),
    "resurvey": Workload("resurvey", {"num_seeds": 2,
                                      "max_programs_per_type": 1,
                                      "compilers": ["gcc"],
                                      "opt_levels": ["-O0"]}, fixed_set=2),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _in_band(generator, seed_index: int, validate: bool) -> bool:
    """Whether the campaign's *seed_index*-th seed program is in SIZE_BAND.

    Without validation the generator returns its first attempt ten times
    faster; that serves as a filter before the validated (real) program
    is checked."""
    from repro.utils.errors import GenerationError
    try:
        program = generator.generate(seed_index, validate=validate)
    except GenerationError:
        return False
    return SIZE_BAND[0] <= len(program.source) <= SIZE_BAND[1]


class Runner:
    """Spawns the campaign processes of one benchmark run."""

    def __init__(self, name: str, seed: int,
                 workload: Optional[Workload] = None) -> None:
        self.workload = workload if workload is not None else WORKLOADS[name]
        fixed = self.workload.fixed_set is not None
        self._rng = random.Random(f"{name}:{'fixed' if fixed else seed}")
        self._order_rng = random.Random(f"{name}:{seed}:order")
        self._order = list(range(self.workload.fixed_set or 0))
        self._configs: List[dict] = []
        from repro.core.ub_types import ALL_UB_TYPES
        self._ub_order = [t.value for t in ALL_UB_TYPES]
        self._rng.shuffle(self._ub_order)
        self.work = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
        self._runs = 0
        self._templates: Dict[int, dict] = {}

    def config(self, index: int) -> dict:
        """Campaign *index*'s config: a pure function of the workload seed
        (or of the workload's fixed seed)."""
        while len(self._configs) <= index:
            self._configs.append(self._draw(len(self._configs)))
        return self._configs[index]

    def schedule(self, n: int) -> int:
        """The index of the run's *n*-th campaign: a fixed set runs pass
        after pass, each pass in a seed-shuffled order."""
        size = self.workload.fixed_set
        if size is None:
            return n
        if n % size == 0:
            self._order_rng.shuffle(self._order)
        return self._order[n % size]

    def _draw(self, index: int) -> dict:
        from repro.seedgen import CsmithGenerator, GeneratorConfig
        config = dict(self.workload.config)
        per = self.workload.ub_types_per_campaign
        if per is not None:
            order = self._ub_order
            config["ub_types"] = [order[(index * per + i) % len(order)]
                                  for i in range(per)]
        while True:
            rng_seed = self._rng.randrange(1 << 30)
            generator = CsmithGenerator(GeneratorConfig(seed=rng_seed))
            seeds = range(config["num_seeds"])
            if all(_in_band(generator, i, False) for i in seeds) \
                    and all(_in_band(generator, i, True) for i in seeds):
                return {**config, "rng_seed": rng_seed}

    def _spawn(self, spec: dict) -> dict:
        spec = {**spec, "spawned_at": time.time()}
        try:
            proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)],
                                  capture_output=True, text=True,
                                  timeout=CAMPAIGN_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{spec['kind']} campaign exceeded "
                             f"{CAMPAIGN_TIMEOUT_S}s") from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise BenchError(f"{spec['kind']} campaign failed "
                             f"(exit {proc.returncode}):\n{tail}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _template(self, index: int) -> dict:
        """Campaign *index*'s pre-populated findings database (``resurvey``).

        Populated once, in its own process, by the same config without
        triage; every campaign that uses it copies it and counts the
        population wall time as set-up."""
        template = self._templates.get(index)
        if template is None:
            workdir = os.path.join(self.work, f"template{index}")
            started = time.perf_counter()
            populated = self._spawn({"kind": "populate", "workdir": workdir,
                                     "config": self.config(index)})
            template = {"db": os.path.join(workdir, "findings.sqlite"),
                        "cells": populated["findings"]["cells"],
                        "wall_s": time.perf_counter() - started}
            self._templates[index] = template
        return template

    def campaign(self, index: int, trace: bool = False) -> dict:
        """Run campaign *index* of this seed's sequence in a fresh process."""
        self._runs += 1
        workdir = os.path.join(self.work, f"run{self._runs}")
        config = self.config(index)
        spec = {"kind": self.workload.kind, "config": config,
                "workdir": workdir, "trace": trace}
        if self.workload.kind == "resurvey":
            template = self._template(index)
            spec["template_db"] = template["db"]
            spec["recorded_cells"] = template["cells"]
        started = time.perf_counter()
        record = self._spawn(spec)
        record["wall_s"] = time.perf_counter() - started
        record["traced"] = trace
        if self.workload.kind == "resurvey":
            record["setup_s"] += template["wall_s"]
        record["index"] = index
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"campaign {index} (rng seed {config['rng_seed']}"
              f"{', traced' if trace else ''}): {record['findings']['cells']} "
              f"cells in {record['timed_s']:.3f} s ("
              f"{reference_seconds(record):.3f} ref_s), set-up "
              f"{record['setup_s']:.3f} s, peak {record['peak_rss_mb']:.1f} "
              f"MB, digest {record['digest']}", file=sys.stderr)
        return record

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def measure(runner: Runner, seconds: float) -> List[dict]:
    """Campaigns, one at a time, for *seconds*.

    A campaign starts while it is expected (at the mean campaign wall so
    far) to end within the budget; a fixed set's first pass always runs
    whole.  If no campaign ran twice, the first runs again: every repeated
    run checks that its findings reproduce."""
    started = time.perf_counter()
    records: List[dict] = []
    while not records or len(records) < (runner.workload.fixed_set or 0) \
            or (time.perf_counter() - started + statistics.mean(
                r["wall_s"] for r in records) <= seconds):
        records.append(runner.campaign(runner.schedule(len(records))))
    if len({r["index"] for r in records}) == len(records):
        records.append(runner.campaign(records[0]["index"]))
    return records


def measure_traced(runner: Runner, seconds: float) -> List[dict]:
    """The first rotation untraced (at least twice), then once traced.

    Untraced passes repeat while one more pass and the traced pass are
    expected to fit in the budget."""
    indices = range(runner.workload.rotation())
    started = time.perf_counter()
    records: List[dict] = []

    def one_pass(trace: bool = False) -> float:
        begun = time.perf_counter()
        records.extend(runner.campaign(i, trace=trace) for i in indices)
        return time.perf_counter() - begun

    walls = [one_pass(), one_pass()]
    while (time.perf_counter() - started + 2 * statistics.mean(walls)
           <= seconds):
        walls.append(one_pass())
    one_pass(trace=True)
    return records


def reference_seconds(record: dict) -> float:
    """A run's timed ``run()`` in reference seconds: its wall time over the
    host's speed then, the mean of the reference mixes timed just before
    and just after it."""
    return record["timed_s"] / (REFERENCE_MIXES
                                * statistics.mean(record["reference_s"]))


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(records: List[dict], trace: bool, out=sys.stdout) -> dict:
    """Check verdicts and digests, print every metric, build the result.

    Verdicts count once per distinct campaign; every later run of a
    campaign adds one verdict, that its findings digest equals the first
    run's.  ``cells_per_ref_s`` divides the distinct campaigns' cells by
    the sum of their mean times in reference seconds
    (:func:`reference_seconds`), so each campaign weighs the same however
    often it ran; the other end-to-end metrics are medians over every run."""
    distinct: Dict[int, dict] = {}
    for record in records:
        distinct.setdefault(record["index"], record)
    firsts = list(distinct.values())
    checked = sum(r["verdict"]["checked"] for r in firsts)
    wrong = sum(r["verdict"]["wrong"] for r in firsts)
    hard = sum(r["verdict"]["hard"] for r in firsts)
    for record in firsts:
        for note in record["verdict"]["notes"]:
            print(f"verdict: campaign {record['index']}: {note}", file=out)
    for record in records:
        first = distinct[record["index"]]
        if record is first:
            continue
        checked += 1
        if record["digest"] != first["digest"]:
            wrong += 1
            hard += 1
            print(f"verdict: campaign {record['index']} findings digest "
                  f"{record['digest']} differs from its first run "
                  f"{first['digest']}", file=out)
    share = wrong / checked if checked else 0.0
    print(f"wrong_verdict_share = {share:.4f} share ({wrong} wrong of "
          f"{checked} verdicts, {hard} hard)", file=out)

    if trace:
        traced = [r for r in records if r["traced"]]
        for record in traced:
            if record["leftover_wrappers"]:
                raise BenchError("wrappers left installed: "
                                 + ", ".join(record["leftover_wrappers"]))
        untraced_wall = sum(
            statistics.median(r["timed_s"] for r in records
                              if r["index"] == t["index"] and not r["traced"])
            for t in traced)
        values = layer_metrics([r["layers"] for r in traced], untraced_wall)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in METRIC_UNITS.items()}
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}",
                  file=out)
    else:
        cells = sum(r["findings"]["cells"] for r in firsts)
        ref_s = sum(statistics.mean(reference_seconds(r) for r in records
                                    if r["index"] == index)
                    for index in distinct)
        wall_s = sum(statistics.mean(r["timed_s"] for r in records
                                     if r["index"] == index)
                     for index in distinct)
        metrics = {"cells_per_ref_s": {
            "value": cells / ref_s,
            "unit": END_TO_END_UNITS["cells_per_ref_s"]}}
        print(f"cells_per_ref_s = {cells / ref_s:.4f} cells/ref_s ({cells} "
              f"cells of n={len(firsts)} campaigns in {ref_s:.3f} ref_s, "
              f"{len(records)} runs)", file=out)
        print(f"cells_per_s = {cells / wall_s:.4f} cells/s (the same "
              f"campaigns by the wall clock, {wall_s:.3f} s; not bounded)",
              file=out)
        for name in ("peak_rss_mb", "setup_s"):
            samples = [r[name] for r in records]
            value = statistics.median(samples)
            low, high = quartiles(samples)
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.4f} {unit} (median of n={len(samples)} "
                  f"runs, quartiles {low:.4f}..{high:.4f})", file=out)
    return {"correct": hard == 0, "attempted": max(checked, 1),
            "failed": wrong, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            records = measure_traced(runner, args.seconds)
        else:
            records = measure(runner, args.seconds)
        result = summarize(records, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.close()
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
