"""The tier ledger: the rent-or-buy rule behind ``vm="compiled"``."""

from __future__ import annotations

import sys
import threading

from repro.compilers import CompilationCache, make_compiler
from repro.vm.tier import TIER_UP_STEPS_PER_NODE, TierLedger

NODES = 100
PAID = TIER_UP_STEPS_PER_NODE * NODES


def _counting_nodes():
    calls = []

    def nodes():
        calls.append(True)
        return NODES
    return nodes, calls


def test_key_promotes_once_its_steps_pay_for_the_compile():
    ledger = TierLedger(8)
    nodes, calls = _counting_nodes()
    assert not ledger.promoted("k", nodes)
    assert calls == [], "a first-seen key must not walk its unit"
    ledger.charge("k", PAID - 1)
    assert not ledger.promoted("k", nodes)
    ledger.charge("k", 1)
    assert ledger.promoted("k", nodes)
    assert ledger.promoted("k", nodes)
    assert len(calls) == 1, "the node count is computed once per entry"


def test_ledger_is_bounded_lru():
    ledger = TierLedger(2)
    nodes, _ = _counting_nodes()
    ledger.charge("a", PAID)
    ledger.charge("b", PAID)
    assert ledger.promoted("a", nodes)      # refreshes "a"
    ledger.charge("c", 1)                   # evicts "b", the oldest
    assert len(ledger) == 2
    assert ledger.promoted("a", nodes)
    assert not ledger.promoted("b", nodes)


def test_ledger_is_cleared_with_the_cache():
    cache = CompilationCache()
    binary = make_compiler("gcc", cache=cache).compile(
        "int main() { return 0; }")
    binary.run()
    assert len(cache.tiers) == 1
    cache.clear()
    assert len(cache.tiers) == 0


def test_concurrent_charges_are_not_lost():
    ledger = TierLedger(8)
    threads_n, charges = 8, 250 * TIER_UP_STEPS_PER_NODE
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: [ledger.charge("k", 1) for _ in range(charges)])
            for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    # The threshold equals the total charged, so one lost update would
    # leave the key unpromoted.
    total = threads_n * charges
    assert ledger.promoted("k", lambda: total // TIER_UP_STEPS_PER_NODE)
