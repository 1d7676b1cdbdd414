"""Tests for execution profiling (dprof), shadow synthesis and insertion."""

import pytest

from repro.cdsl import analyze, ast_nodes as ast, parse_program
from repro.core.insertion import apply_mutation
from repro.core.matching import get_matched_exprs
from repro.core.profile import Profiler
from repro.core.synthesis import synthesize
from repro.core.ub_types import UBType
from repro.utils.rng import RandomSource

PROFILE_SOURCE = """
int arr[6] = {1, 2, 3, 4, 5, 6};
int g = 10;
int *p = &g;
int main() {
  int i = 2;
  int v = arr[i];
  int *hp = malloc(8);
  hp[1] = 5;
  int q = v * g;
  int r = v / g;
  q = q << 1;
  g = *p + r;
  if (q > r) { g = q; }
  free(hp);
  return g;
}
"""


@pytest.fixture(scope="module")
def profiled():
    unit = parse_program(PROFILE_SOURCE)
    analyze(unit)
    matches = {}
    all_matches = []
    for ub in UBType:
        found = get_matched_exprs(unit, ub)
        matches[ub] = found
        all_matches.extend(found)
    profile = Profiler().profile(unit, all_matches)
    return unit, matches, profile


def test_profile_records_liveness(profiled):
    _unit, matches, profile = profiled
    array_match = matches[UBType.BUFFER_OVERFLOW_ARRAY][0]
    assert profile.q_liv(array_match)


def test_profile_q_val_returns_observed_index(profiled):
    _unit, matches, profile = profiled
    array_match = matches[UBType.BUFFER_OVERFLOW_ARRAY][0]
    assert profile.q_val(array_match, "index") == 2


def test_profile_q_mem_identifies_heap_buffer(profiled):
    _unit, matches, profile = profiled
    heap_matches = [m for m in matches[UBType.USE_AFTER_FREE]
                    if isinstance(m.operands["pointer"], ast.Identifier)
                    and m.operands["pointer"].name == "hp"]
    assert heap_matches
    buffer = profile.q_mem(heap_matches[0], "pointer")
    assert buffer is not None and buffer.kind == "heap" and buffer.size == 8


def test_profile_scope_order_queries(profiled):
    _unit, matches, profile = profiled
    first = matches[UBType.BUFFER_OVERFLOW_ARRAY][0]
    assert profile.q_scp_executed(first.stmt)
    assert profile.q_scp_order(first.stmt) is not None


def test_profile_missing_key_gives_none(profiled):
    _unit, matches, profile = profiled
    match = matches[UBType.BUFFER_OVERFLOW_ARRAY][0]
    assert profile.q_val(match, "nonexistent-role") is None


# -- synthesis ------------------------------------------------------------------------

def _synth(profiled, ub_type, index=0):
    unit, matches, profile = profiled
    match = matches[ub_type][index]
    return unit, match, synthesize(match, profile, RandomSource(3),
                                   function_body=match.function.body)


def test_synthesize_array_overflow_targets_red_zone(profiled):
    unit, match, mutation = _synth(profiled, UBType.BUFFER_OVERFLOW_ARRAY)
    assert mutation is not None
    assert mutation.augment[0][0] == "index"
    # The auxiliary delta pushes the index to [length, length + redzone).
    decl = mutation.new_stmts[0].decls[0]
    length = match.operands["length"]
    observed = 2
    from repro.cdsl.printer import print_expr
    delta_text = print_expr(decl.init) if not hasattr(decl.init, "value") else str(decl.init.value)
    delta = int(delta_text.strip("()").replace("-", "-"))
    assert length <= observed + delta < length + 8


def test_synthesize_divide_by_zero_makes_divisor_zero(profiled):
    unit, match, mutation = _synth(profiled, UBType.DIVIDE_BY_ZERO)
    assert mutation is not None
    assert ("rhs", mutation.new_stmts[0].decls[0].name) in mutation.augment


def test_synthesize_integer_overflow_produces_two_aux_vars(profiled):
    unit, match, mutation = _synth(profiled, UBType.INTEGER_OVERFLOW)
    assert mutation is not None
    assert len(mutation.new_stmts) == 2
    assert {field for field, _ in mutation.augment} == {"lhs", "rhs"}


def test_synthesize_use_after_free_inserts_free(profiled):
    unit, matches, profile = profiled
    heap_matches = [m for m in matches[UBType.USE_AFTER_FREE]
                    if m.operands["pointer"].name == "hp"]
    mutation = synthesize(heap_matches[0], profile, RandomSource(1),
                          function_body=heap_matches[0].function.body)
    assert mutation is not None
    call = mutation.new_stmts[0].expr
    assert isinstance(call, ast.Call) and call.name == "free"


def test_synthesize_null_deref_assigns_null(profiled):
    unit, matches, profile = profiled
    null_matches = [m for m in matches[UBType.NULL_POINTER_DEREF]
                    if m.operands["pointer"].name == "p"]
    mutation = synthesize(null_matches[0], profile, RandomSource(1),
                          function_body=null_matches[0].function.body)
    assert mutation is not None
    assign = mutation.new_stmts[0].expr
    assert isinstance(assign, ast.Assignment)
    assert isinstance(assign.value, ast.Cast)


def test_synthesize_uninit_use_declares_uninitialized_aux(profiled):
    unit, match, mutation = _synth(profiled, UBType.USE_OF_UNINIT_MEMORY)
    assert mutation is not None
    decl = mutation.new_stmts[0].decls[0]
    assert decl.init is None
    assert mutation.augment[0][0] == "__self__"


def test_synthesize_returns_none_for_dead_code():
    source = """
int arr[3];
int main() {
  int on = 0;
  if (on) { arr[1] = 2; }
  return 0;
}
"""
    unit = parse_program(source)
    analyze(unit)
    matches = get_matched_exprs(unit, UBType.BUFFER_OVERFLOW_ARRAY)
    profile = Profiler().profile(unit, matches)
    assert all(synthesize(m, profile, RandomSource(0), m.function.body) is None
               for m in matches)


# -- insertion -------------------------------------------------------------------------

def test_apply_mutation_produces_valid_distinct_program(profiled):
    unit, match, mutation = _synth(profiled, UBType.BUFFER_OVERFLOW_ARRAY)
    program = apply_mutation(unit, mutation, seed_index=7)
    assert program.seed_index == 7
    assert program.source != PROFILE_SOURCE
    assert "__ub_hat_" in program.source
    # The mutated program must still be statically valid.
    analyze(parse_program(program.source))


def test_apply_mutation_does_not_modify_the_seed(profiled):
    unit, match, mutation = _synth(profiled, UBType.DIVIDE_BY_ZERO)
    from repro.cdsl.printer import print_program
    before = print_program(unit)
    apply_mutation(unit, mutation)
    assert print_program(unit) == before


def test_ub_program_metadata(profiled):
    unit, match, mutation = _synth(profiled, UBType.SHIFT_OVERFLOW)
    program = apply_mutation(unit, mutation)
    assert program.ub_type == UBType.SHIFT_OVERFLOW
    assert program.target_sanitizers == ("ubsan",)
    assert program.parse() is not None


# -- liveness of expressions whose statement runs ----------------------------

UNEVALUATED_SOURCE = """
int g = 7;
int main() {
  int *p = &g;
  int c = 0;
  int x = c ? *p : 2;
  int y = c && *p;
  int z = *p;
  return x + y + z;
}
"""


@pytest.fixture(scope="module")
def unevaluated():
    unit = parse_program(UNEVALUATED_SOURCE)
    analyze(unit)
    matches = get_matched_exprs(unit, UBType.NULL_POINTER_DEREF)
    return unit, matches, Profiler().profile(unit, matches)


def test_q_liv_is_false_for_unevaluated_expression_in_executed_statement(unevaluated):
    _unit, matches, profile = unevaluated
    lines = {match.expr.loc.line: match for match in matches}
    assert sorted(lines) == [6, 7, 8]
    for line in (6, 7):  # the untaken "?:" arm, the short-circuited "&&"
        match = lines[line]
        assert profile.q_scp_executed(match.stmt)
        assert not profile.q_liv(match)
        assert synthesize(match, profile, RandomSource(1),
                          function_body=match.function.body) is None
    assert profile.q_liv(lines[8])


def test_generator_skips_unevaluated_matches(unevaluated):
    unit, matches, _profile = unevaluated
    from repro.core.ubgen import UBGenerator
    programs, stats = UBGenerator(seed=1).generate_with_stats(
        unit, [UBType.NULL_POINTER_DEREF])
    assert stats.live_matches[UBType.NULL_POINTER_DEREF] == 1
    assert [p.metadata["match_node"] for p in programs[UBType.NULL_POINTER_DEREF]] \
        == [m.expr.node_id for m in matches if m.expr.loc.line == 8]


def test_q_liv_falls_back_to_the_statement_without_hooks(unevaluated):
    _unit, matches, profile = unevaluated
    from dataclasses import replace
    untaken = min(matches, key=lambda m: m.expr.loc.line)
    unhooked = replace(untaken, expr=ast.Deref(untaken.expr.pointer,
                                                loc=untaken.expr.loc),
                       operands={})
    assert profile.q_liv(unhooked)  # its statement ran
