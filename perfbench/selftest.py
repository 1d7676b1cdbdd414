"""Self-test of the benchmark harness at toy scale.

Usage: ``python3 perfbench/selftest.py`` (under a minute; exit code 0 when
every check passes).

Checks that:

* every metric prints by name with its unit, and ``BENCHMARK.json`` lists
  exactly the metrics the harness reports;
* per-layer self times plus ``unattributed_s`` equal the traced wall;
* no wrapper stays installed after a traced run;
* the ground-truth verdict checks flag planted wrong verdicts, and pass on
  toy campaigns of every workload at :data:`SELFTEST_SEED`, a workload seed
  not used while the benchmark was tuned;
* the benchmark exits non-zero, printing no result, when the program's
  sources are missing.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import verdicts  # noqa: E402

SELFTEST_SEED = 424242

TOY = {
    "fuzz": run.Workload("fuzz", {"num_seeds": 1, "max_programs_per_type": 1,
                                  "opt_levels": ["-O0", "-O2"]}),
    "markers": run.Workload("markers", {"num_seeds": 1}),
    "resurvey": run.Workload("resurvey", {"num_seeds": 1,
                                          "max_programs_per_type": 1,
                                          "compilers": ["gcc"],
                                          "opt_levels": ["-O0"]}),
}

#: Per-layer metrics a traced toy run must see move: proof that the
#: wrappers sit where the program looks the entry points up.
TRACED_EXPECT = {
    "fuzz": ("seedgen.calls", "ubgen.programs", "compilers.compile.calls",
             "optim.runs", "cdsl.clone.self_s", "cdsl.sema.self_s",
             "sanitizers.instrument.calls", "vm.closure_compile.calls",
             "vm.executions", "oracle.self_s", "triage.calls",
             "corpusdb.write.calls", "orchestrator.checkpoint.bytes"),
    "markers": ("markers.plant.self_s", "markers.liveness.self_s",
                "markers.survey.self_s", "optim.runs"),
}


def _printed(text: str, name: str, unit: str) -> bool:
    pattern = rf"^{re.escape(name)} = [-+0-9.e]+(?:inf|nan)? {re.escape(unit)}\b"
    return re.search(pattern, text, re.MULTILINE) is not None


def _summarize(records, trace: bool):
    out = io.StringIO()
    result = run.summarize(records, trace, out=out)
    return result, out.getvalue()


def check_metrics_print_with_units(results) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == run.END_TO_END_UNITS, declared
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == layers.METRIC_UNITS, declared
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
    for (result, text), units in results:
        assert set(result["metrics"]) == set(units), result["metrics"].keys()
        for name, unit in units.items():
            assert result["metrics"][name]["unit"] == unit, name
            assert _printed(text, name, unit), f"{name} not printed in {unit}"
        assert re.search(r"^wrong_verdict_share = [0-9.]+ share", text,
                         re.MULTILINE)
        if units is run.END_TO_END_UNITS:
            assert _printed(text, "cells_per_s", "cells/s"), text


def check_self_times_add_up(metrics: dict) -> None:
    self_total = sum(value for name, value in metrics.items()
                     if name.endswith(".self_s"))
    total = self_total + metrics["unattributed_s"]
    assert abs(total - metrics["traced_wall_s"]) <= 1e-9 * max(1.0, total), \
        (self_total, metrics["unattributed_s"], metrics["traced_wall_s"])
    assert metrics["unattributed_s"] >= 0.0


def check_tracer_in_process() -> None:
    """Trace a toy marker campaign here; spans nest and wrappers go away."""
    from repro import MarkerCampaignConfig, MarkerEngine
    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr, _layer in layers.entry_points()}
    engine = MarkerEngine(MarkerCampaignConfig(num_seeds=1,
                                               rng_seed=SELFTEST_SEED))
    tracer = layers.LayerTracer()
    with tracer:
        assert tracer.patched(), "wrappers were not installed"
        engine.run()
    assert not tracer.patched(), tracer.patched()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    assert tracer.spans and all(end >= start
                                for _l, _p, start, end in tracer.spans)
    for _layer, parent, start, end in tracer.spans:
        if parent is not None:
            _pl, _pp, pstart, pend = tracer.spans[parent]
            assert pstart <= start and end <= pend, "child outside parent"
    self_total = sum(tracer.self_times().values())
    assert abs(self_total - tracer.root_time()) <= 1e-9 * max(1.0, self_total)
    check_self_times_add_up(layers.metrics([tracer.raw()]))


def check_planted_wrong_verdicts() -> None:
    from repro.sanitizers.defects import default_defects
    from repro.triage.events import (OPTIMIZER_DEFECT_INTRODUCED,
                                     release_timeline)
    defect = default_defects()[0]
    status = "fixed" if defect.fixed_version is not None else "confirmed"
    good = {"bug_id": defect.defect_id, "status": status,
            "compiler": defect.compiler, "sanitizer": defect.sanitizer}
    reports = [good,
               {**good, "bug_id": "unexplained-gcc-asan-x",
                "status": "invalid"},
               {**good, "bug_id": "no-such-defect", "status": "confirmed"},
               {**good, "compiler": "other"}]
    verdict = verdicts.check_fuzz({"reports": reports})
    assert (verdict["checked"], verdict["wrong"], verdict["hard"]) == (4, 3, 2)

    event = next(e for compiler in ("gcc", "llvm")
                 for e in release_timeline(compiler)
                 if e.kind == OPTIMIZER_DEFECT_INTRODUCED)
    regression = {"kind": "regression", "compiler": event.compiler,
                  "version": event.version, "pass": event.subject,
                  "opt_level": event.payload.opt_levels[0], "site": "s"}
    buckets = [regression, {**regression, "version": event.version + 100},
               {**regression, "kind": "unsound-elimination"},
               {**regression, "kind": "missed-optimization"}]
    verdict = verdicts.check_markers({"buckets": buckets})
    assert (verdict["checked"], verdict["wrong"]) == (3, 2), verdict

    clean = {"surveyed": 0, "skipped": 40, "new_buckets": 0}
    assert verdicts.check_resurvey(clean, 40)["wrong"] == 0
    assert verdicts.check_resurvey({**clean, "surveyed": 3}, 40)["wrong"] == 3
    assert verdicts.check_resurvey(clean, 41)["wrong"] == 1


def check_missing_sources_fail() -> None:
    scratch = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "markers",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(run.WORK_ROOT)
        except OSError:
            pass
    assert proc.returncode != 0, proc.returncode
    assert "{" not in proc.stdout, proc.stdout


def main() -> int:
    check_planted_wrong_verdicts()
    print("ok: planted wrong verdicts are flagged")
    check_tracer_in_process()
    print("ok: in-process trace nests, adds up and restores every wrapper")
    results = []
    for name, workload in TOY.items():
        runner = run.Runner(name, SELFTEST_SEED, workload=workload)
        try:
            records = run.measure(runner, 0)
            result, text = _summarize(records, trace=False)
            assert result["correct"], text
            results.append(((result, text), run.END_TO_END_UNITS))
            print(f"ok: {name} verdicts at seed {SELFTEST_SEED}: "
                  f"{result['failed']} wrong of {result['attempted']}")
            if name in TRACED_EXPECT:
                records = run.measure_traced(runner, 0)
                result, text = _summarize(records, trace=True)
                assert result["correct"], text
                assert all(not r["leftover_wrappers"]
                           for r in records if r["traced"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                check_self_times_add_up(metrics)
                for metric in TRACED_EXPECT[name]:
                    assert metrics[metric] > 0, f"{name}: {metric} is 0"
                results.append(((result, text), layers.METRIC_UNITS))
                print(f"ok: traced {name} run adds up, no wrapper left "
                      f"installed")
        finally:
            runner.close()
    check_metrics_print_with_units(results)
    print("ok: every metric prints with its unit and matches BENCHMARK.json")
    check_missing_sources_fail()
    print("ok: exits non-zero without a result when src/ is missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
