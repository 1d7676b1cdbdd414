"""Golden output and walk budget of UB generation (Algorithm 1).

* **Golden digest.**  A sha256 over every generated program's
  ``(ub_type, source, description, metadata)`` for a few fixed seeds pins
  the generator's output byte for byte: performance work on matching,
  profiling, cloning, lexing or parsing must leave it unchanged.  The
  ``match_node`` metadata is a process-global node id, so it is pinned
  relative to the node counter right before generation (which also pins
  the parser's node construction order).
* **Walk budget.**  The number of nodes :func:`repro.cdsl.visitor.walk`
  yields during one ``generate_all`` must stay linear in the seed's size
  per UB type and per generated program, never per match: a return to
  whole-tree walks per matched expression or per profiling hook fails it.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.cdsl import ast_nodes as ast
from repro.cdsl import parse_program, visitor
from repro.core.ub_types import ALL_UB_TYPES
from repro.core.ubgen import UBGenerator
from repro.seedgen import CsmithGenerator, GeneratorConfig

#: (CsmithGenerator seed, max_programs_per_type) -> expected digest.
GOLDEN = {
    (1, 1):
        "b38943675e56d97c1d9ad2b4b7117b1ffad5a1bd8b884345a7c01eceafd4d96f",
    (2, 1):
        "bb70fbf76dbddd9a29fce07917926dde25d24ceb5c7a3a4719a5a3e58ea9cb22",
    (4, 1):
        "beb740bfe7561fcd1ade28f3cdb5d0318848ce49ec84c449f3bb1f7fddae2957",
    (9, None):
        "c3887e696c4e480a165817659f84728f667ce92be7802fa2b79c0ae8c1c47c2a",
    # Has hooked matches whose statement runs while the expression does
    # not; they are not live, so 144 programs, not 150.
    (2, None):
        "c5913047d37f089e6b113a2e5e8473d76122e7426c7fd52719c63703146311b0",
}

#: Walked nodes allowed per seed node per (UB type + generated program).
#: Linear generation walks 1.6-2.0 on CsmithGenerator seeds 0-11 (matching
#: walks each function body per UB type, insertion walks the clone per
#: program); one parent map per match already walks 3.3-11.6.
WALK_BUDGET_PER_NODE = 3


def _seed(config_seed: int):
    return CsmithGenerator(GeneratorConfig(seed=config_seed)).generate(0)


def generation_digest(config_seed: int, cap) -> tuple:
    """``(sha256 hex digest, program count)`` of one ``generate_all`` run."""
    seed = _seed(config_seed)
    base = next(ast._node_counter)
    programs = UBGenerator(seed=1, max_programs_per_type=cap).generate_all(seed)
    digest = hashlib.sha256()
    count = 0
    for ub_type in ALL_UB_TYPES:
        for program in programs[ub_type]:
            metadata = dict(program.metadata)
            metadata["match_node"] -= base
            digest.update(json.dumps(
                [program.ub_type.value, program.source, program.description,
                 metadata], sort_keys=True).encode())
            count += 1
    return digest.hexdigest(), count


@pytest.mark.parametrize("config_seed,cap", sorted(GOLDEN, key=str))
def test_generated_programs_match_golden_digest(config_seed, cap):
    digest, count = generation_digest(config_seed, cap)
    assert count > 0
    assert digest == GOLDEN[(config_seed, cap)]


@pytest.mark.parametrize("config_seed", [2, 5])
def test_generation_walks_are_linear_in_seed_size(monkeypatch, config_seed):
    seed = _seed(config_seed)
    seed_nodes = visitor.count_nodes(parse_program(seed.source))
    original = visitor.walk
    walked = 0

    def counting_walk(node):
        nonlocal walked
        for child in original(node):
            walked += 1
            yield child

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "walk", None) is original:
            monkeypatch.setattr(module, "walk", counting_walk)
    programs = UBGenerator(seed=1, max_programs_per_type=1).generate_all(seed)
    generated = sum(len(found) for found in programs.values())
    assert generated > 0
    budget = WALK_BUDGET_PER_NODE * seed_nodes * (len(ALL_UB_TYPES) + generated)
    assert walked <= budget, (
        f"walked {walked} nodes for a {seed_nodes}-node seed and "
        f"{generated} programs (budget {budget})")
