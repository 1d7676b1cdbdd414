"""Ground-truth verdict checks for the benchmark's campaigns.

The pipeline never computes the ground truth used here; it comes from the
seeded registries the simulated toolchain is built from:

* ``fuzz`` — every bug report must name a defect of
  ``repro.sanitizers.defects.default_defects()`` on the report's own
  compiler and sanitizer, with status ``confirmed`` (``fixed`` exactly when
  the defect has a fix version).  ``unexplained-*`` and ``wrong-report-*``
  reports are crash-site oracle false positives: they count as wrong but
  not as *hard* errors, because triage itself already marks them
  unexplained.  Any other wrong report is a hard error.
* ``markers`` — every ``regression`` bucket must match an
  ``optimizer-defect-introduced`` event of
  ``repro.triage.events.release_timeline`` on (compiler, version, pass,
  opt level); every ``unsound-elimination`` bucket is wrong.
* ``resurvey`` — no cell surveyed, exactly the cells the set-up campaign
  recorded skipped, and no new crash bucket.

:func:`findings_of` reduces a finished campaign to plain JSON;
:func:`check` and :func:`digest` work on that JSON alone, so they can be
exercised without running a campaign.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional


#: Bug-id prefixes triage gives reports no seeded defect explains.
FALSE_POSITIVE = ("unexplained-", "wrong-report-")


def findings_of(kind: str, orchestrated, result) -> dict:
    """The verdict-relevant output of one finished campaign, as JSON."""
    if kind == "markers":
        return {
            "cells": result.stats.configs_surveyed,
            "buckets": [
                {"kind": b.representative.kind,
                 "compiler": b.representative.compiler,
                 "version": b.representative.version,
                 "prev_version": b.representative.prev_version,
                 "pass": b.representative.responsible_pass,
                 "opt_level": b.representative.opt_level,
                 "site": b.representative.marker.signature,
                 "count": b.count}
                for b in result.buckets.values()],
        }
    corpus = orchestrated.corpus.summary()
    return {
        "cells": (orchestrated.skipped_cells if kind == "resurvey"
                  else orchestrated.surveyed_cells),
        "surveyed": orchestrated.surveyed_cells,
        "skipped": orchestrated.skipped_cells,
        "new_buckets": corpus["new_buckets"],
        "buckets": [[b["ub_type"], b["crash_site"], b["sanitizer"],
                     b["count"]] for b in corpus["buckets"]],
        "reports": [
            {"bug_id": r.bug_id, "status": r.status,
             "compiler": r.compiler, "sanitizer": r.sanitizer,
             "ub_type": r.ub_type.value,
             "opt_levels": list(r.affected_opt_levels),
             "versions": list(r.affected_versions)}
            for r in result.bug_reports],
    }


def digest(findings: dict) -> str:
    """Content digest of a campaign's findings (identical reruns agree)."""
    text = json.dumps(findings, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _verdict(checked: int, notes: list, wrong: Optional[int] = None,
             hard: Optional[int] = None) -> dict:
    """``checked`` verdicts, ``wrong`` of them wrong, ``hard`` of those
    errors that make the run incorrect (default: every wrong verdict)."""
    wrong = len(notes) if wrong is None else wrong
    return {"checked": checked, "wrong": wrong,
            "hard": wrong if hard is None else hard, "notes": notes}


def check_fuzz(findings: dict, defects=None) -> dict:
    """Every report must name a seeded defect of its compiler/sanitizer."""
    if defects is None:
        from repro.sanitizers.defects import default_defects
        defects = default_defects()
    by_id = {d.defect_id: d for d in defects}
    notes, hard = [], 0
    for report in findings["reports"]:
        defect = by_id.get(report["bug_id"])
        if defect is not None \
                and report["status"] == _expected_status(defect) \
                and defect.compiler == report["compiler"] \
                and defect.sanitizer == report["sanitizer"]:
            continue
        false_positive = (defect is None
                          and report["status"] not in ("confirmed", "fixed")
                          and report["bug_id"].startswith(FALSE_POSITIVE))
        hard += not false_positive
        notes.append(f"{'false positive' if false_positive else 'wrong'} "
                     f"report {report['bug_id']} ({report['status']})")
    return _verdict(len(findings["reports"]), notes, hard=hard)


def _expected_status(defect) -> str:
    return "fixed" if defect.fixed_version is not None else "confirmed"


def check_markers(findings: dict, timeline=None) -> dict:
    """Regressions must be seeded optimizer defects; nothing unsound."""
    from repro.markers.engine import REGRESSION, UNSOUND_ELIMINATION
    from repro.triage.events import OPTIMIZER_DEFECT_INTRODUCED
    if timeline is None:
        from repro.triage.events import release_timeline
        timeline = release_timeline
    notes, checked = [], 0
    for bucket in findings["buckets"]:
        if bucket["kind"] == UNSOUND_ELIMINATION:
            checked += 1
            notes.append(f"unsound elimination {bucket['site']}")
        elif bucket["kind"] == REGRESSION:
            checked += 1
            explained = any(
                event.kind == OPTIMIZER_DEFECT_INTRODUCED
                and event.version == bucket["version"]
                and event.subject == bucket["pass"]
                and bucket["opt_level"] in event.payload.opt_levels
                for event in timeline(bucket["compiler"]))
            if not explained:
                notes.append(f"regression {bucket['compiler']}-"
                             f"{bucket['version']} {bucket['pass']} "
                             f"{bucket['opt_level']} unexplained")
    return _verdict(checked, notes)


def check_resurvey(findings: dict, recorded_cells: int) -> dict:
    """Skip exactly the recorded cells, survey none, find nothing new."""
    notes = []
    if findings["surveyed"]:
        notes.append(f"{findings['surveyed']} cell(s) surveyed again")
    if findings["skipped"] != recorded_cells:
        notes.append(f"skipped {findings['skipped']} of {recorded_cells} "
                     f"recorded cell(s)")
    if findings["new_buckets"]:
        notes.append(f"{findings['new_buckets']} new bucket(s)")
    wrong = (findings["surveyed"] + abs(findings["skipped"] - recorded_cells)
             + findings["new_buckets"])
    return _verdict(max(recorded_cells, 1), notes, wrong=wrong)


def check(kind: str, findings: dict,
          recorded_cells: Optional[int] = None) -> dict:
    """``{"checked", "wrong", "notes"}`` for one campaign's findings."""
    if kind == "fuzz":
        return check_fuzz(findings)
    if kind == "markers":
        return check_markers(findings)
    if kind == "resurvey":
        return check_resurvey(findings, recorded_cells or 0)
    return _verdict(0, [])
