"""Run one benchmark campaign in this (fresh) process and print its record.

Usage: ``python3 perfbench/campaign.py '<spec json>'``

The spec names the workload kind, the campaign config, a fresh work
directory, whether to trace, and the wall-clock time (``time.time()``) at
which the parent spawned this process.  Everything before the timed
``OrchestratedCampaign.run()`` — interpreter start, imports, directories,
campaign construction — is set-up; the run itself is timed alone, with
:func:`reference_s` timed right before and right after it
(:func:`probe_s`).  The verdict check runs after the timer stops.  The
record is one JSON line on standard output.

Kinds:

* ``fuzz`` — a fuzzing campaign with ``--corpus``, ``--db`` and
  ``--checkpoint`` in the work directory;
* ``populate`` — the same campaign without triage, to pre-populate the
  findings database a later ``resurvey`` campaign reads;
* ``resurvey`` — the fuzzing campaign again with ``resurvey=True`` against
  a copy (``template_db``) of the populated database;
* ``markers`` — a marker campaign into a fresh ``--db``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import resource
import sqlite3
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import verdicts  # noqa: E402
from layers import LayerTracer  # noqa: E402


def _build(spec: dict):
    from repro import (CampaignConfig, MarkerCampaignConfig,
                       OrchestratedCampaign, UBType)
    kind, work, config = spec["kind"], spec["workdir"], dict(spec["config"])
    if "ub_types" in config:
        config["ub_types"] = tuple(UBType(v) for v in config["ub_types"])
    db_path = os.path.join(work, "findings.sqlite")
    if kind == "markers":
        return OrchestratedCampaign(MarkerCampaignConfig(**config),
                                    workers=1, db_path=db_path)
    corpus = os.path.join(work, f"corpus-{kind}")
    if kind == "populate":
        return OrchestratedCampaign(CampaignConfig(**config, triage=False),
                                    workers=1, corpus=corpus, db_path=db_path)
    return OrchestratedCampaign(
        CampaignConfig(**config), workers=1, corpus=corpus, db_path=db_path,
        checkpoint_path=os.path.join(work, f"checkpoint-{kind}.json"),
        resurvey=(kind == "resurvey"))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def step(self, x: int) -> "_Pair":
        return _Pair(self.b, self.a + x)


class _Node:
    __slots__ = ("value", "next", "attrs")


#: Nodes of the reference mix's pointer walk: about 15 MB, past the caches.
WALK_NODES = 60_000


def reference_s() -> float:
    """Wall time of a fixed pure-Python mix that no program code runs.

    Integer arithmetic, dict and string churn, small objects, sorts and a
    walk over a heap of linked objects past the caches: the kinds of work a
    campaign does.  Its time right next to a campaign's measures how fast
    the host runs Python at that moment, which moves by up to 1.8x between
    phases seconds to minutes long.  The collector is off while it runs, as
    in ``timeit``, so the size of the campaign's heap does not change its
    time."""
    gc.disable()
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    counts: dict = {}
    rows: list = []
    for i in range(15_000):
        key = str(i % 997)
        counts[key] = counts.get(key, 0) + i
        rows.append((i, key, [i]))
        if len(rows) > 5000:
            rows.clear()
    pair, records = _Pair(0, 1), []
    for i in range(15_000):
        pair = pair.step(i & 7)
        if i % 3 == 0:
            records.append({"k": pair.a, "v": [pair.b]})
        if len(records) > 3000:
            records = sorted(records, key=lambda r: r["k"])[:100]
    nodes = [_Node() for _ in range(WALK_NODES)]
    order = list(range(WALK_NODES))
    random.Random(0).shuffle(order)
    for i, node in enumerate(nodes):
        node.value, node.next, node.attrs = i, nodes[order[i]], {"k": i}
    node = nodes[0]
    for _ in range(2 * WALK_NODES):
        total += node.value + node.attrs["k"]
        node = node.next
    del nodes, node
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed


def _pin_to_current_cpu() -> None:
    """Keep this process, and the copies :func:`probe_s` forks, on the CPU
    it runs on now: each vCPU's speed moves on its own."""
    with open("/proc/self/stat", encoding="ascii") as stat:
        cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def probe_s() -> float:
    """:func:`reference_s` in a forked copy of this process, so neither the
    mix's objects nor its peak memory stay in the campaign's process."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        os.write(write_fd, repr(reference_s()).encode("ascii"))
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="ascii") as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"reference probe failed (wait status {status})")
    return float(text)


def _copy_db(source: str, target: str) -> None:
    """Copy a findings database (consistently, whatever its journal mode)."""
    with sqlite3.connect(source) as src, sqlite3.connect(target) as dst:
        src.backup(dst)
    src.close()
    dst.close()


def main(argv) -> int:
    spec = json.loads(argv[1])
    _pin_to_current_cpu()
    os.makedirs(spec["workdir"], exist_ok=True)
    if "template_db" in spec:
        _copy_db(spec["template_db"],
                 os.path.join(spec["workdir"], "findings.sqlite"))
    orchestrated = _build(spec)
    tracer = LayerTracer() if spec.get("trace") else None
    setup_done = time.time()
    reference = [probe_s()]
    with tracer if tracer is not None else contextlib.nullcontext():
        started = time.perf_counter()
        result = orchestrated.run()
        timed_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference.append(probe_s())
    findings = verdicts.findings_of(spec["kind"], orchestrated, result)
    record = {
        "setup_s": setup_done - spec["spawned_at"],
        "timed_s": timed_s,
        "reference_s": reference,
        "peak_rss_mb": peak_rss_mb,
        "findings": findings,
        "digest": verdicts.digest(findings),
        "verdict": verdicts.check(spec["kind"], findings,
                                  spec.get("recorded_cells")),
    }
    if tracer is not None:
        record["layers"] = tracer.raw()
        record["leftover_wrappers"] = tracer.patched()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
