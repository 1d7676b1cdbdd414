"""Tiered execution: interpret first, compile a closure key once it has paid.

A closure compile (:func:`repro.vm.compile.compile_program`) costs far more
than one run of a typical fuzz binary, and differential testing runs nearly
every binary exactly once.  So ``vm="compiled"`` is a *tiered* policy: a
binary runs on the AST interpreter, and its closure key is promoted to the
compiled executor only once the key has paid for its compile.

The rule is rent-or-buy in deterministic units.  Every interpreted run of a
key charges its step count to the key's ledger entry; the key is promoted
when its accumulated steps reach :data:`TIER_UP_STEPS_PER_NODE` times the
node count of the unit it would compile.  ``scripts/calibrate_tiering.py``
measures the constant: over about a hundred instrumented fuzz binaries
(median 700-800 nodes, under 300 steps a run) on a 2-vCPU Intel Xeon under
CPython 3.11, a compile costs 13.6-14.5 µs per node (9-10 ms median) and the
closure executor saves 2.8-3.1 µs per step over the interpreter, so the
compile pays for itself after 4.5-5.2 interpreted steps per node (a median
fuzz binary breaks even after 10-12 runs).  Steps and nodes are pure
functions of the program, never of the wall clock, so serial and parallel
campaigns take identical tier decisions.  The first run of a key is always
interpreted, and a key's node count is only computed when the key comes
back, so the common run-once key never pays for a walk of its unit.

Both executors produce bit-identical results, so a tier decision changes
only how fast a run goes, never what it observes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from repro.cdsl.visitor import walk
from repro.telemetry import runtime as telemetry
from repro.vm.errors import ExecutionResult

#: Interpreted steps per unit node after which a closure key is promoted:
#: compile cost per node over the executor's saving per step.
TIER_UP_STEPS_PER_NODE = 5


def node_count(unit) -> int:
    """Number of AST nodes in *unit* (the size a closure compile pays for)."""
    return sum(1 for _ in walk(unit))


class TierLedger:
    """Bounded LRU of interpreted steps per closure key.

    An entry is ``[steps, nodes]``; ``nodes`` stays None until the key is
    looked up a second time.  Thread-safe.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

    def promoted(self, key: Hashable, nodes: Callable[[], int]) -> bool:
        """Whether *key*'s interpreted steps have paid for its compile.

        *nodes* returns the node count of the key's unit; it is called at
        most once per entry, and never for a key seen for the first time.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            self._entries.move_to_end(key)
            if entry[1] is not None:
                return entry[0] >= TIER_UP_STEPS_PER_NODE * entry[1]
        size = nodes()
        with self._lock:
            entry[1] = size
            return entry[0] >= TIER_UP_STEPS_PER_NODE * size

    def charge(self, key: Hashable, steps: int) -> None:
        """Record one interpreted run of *key* that took *steps* steps."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = [steps, None]
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
            else:
                entry[0] += steps
                self._entries.move_to_end(key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def run_tiered(ledger: TierLedger, key: Hashable, *,
               interpret: Callable[[], ExecutionResult],
               compiled: Callable[[], ExecutionResult],
               nodes: Callable[[], int]) -> ExecutionResult:
    """Run one execution of closure key *key* under the tiering policy.

    ``compiled()`` runs the key's closure program (compiling it on first
    use); ``interpret()`` runs the AST interpreter and is charged to the
    ledger.  Counts the run as ``vm.tier.promoted`` or
    ``vm.tier.interpreted``.
    """
    if ledger.promoted(key, nodes):
        telemetry.inc("vm.tier.promoted")
        return compiled()
    telemetry.inc("vm.tier.interpreted")
    result = interpret()
    ledger.charge(key, result.steps)
    return result
