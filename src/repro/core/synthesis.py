"""Shadow statement synthesis — ``SynShadowStmt`` of Algorithm 1 (§3.2.3).

For each matched expression, consult the execution profile and build a
:class:`ShadowMutation`: the statements to insert before the expression's
enclosing statement (auxiliary variable definitions, ``free(p)``,
``p = (void*)0`` ...), plus a description of how the matched expression
itself is rewritten (``a[x]`` → ``a[x + hat]`` etc.), following the
instantiation column of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.visitor import parent_map, walk
from repro.core.matching import MatchedExpr
from repro.core.profile import ExecutionProfile
from repro.core.ub_types import UBType
from repro.sanitizers.base import ASAN_REDZONE
from repro.utils.rng import RandomSource


@dataclass
class ShadowMutation:
    """Everything the inserter needs to turn one match into a UB program.

    * ``new_stmts`` — shadow statements (self-contained ASTs referring to
      variables by name) inserted immediately before the matched
      expression's enclosing statement;
    * ``augment`` — (field, aux_name) pairs: rewrite the given child field of
      the matched expression to ``<field> + aux_name`` ("__self__" augments
      the matched expression itself, used for branch conditions);
    * ``append_to_block`` — (block_node_id, stmts) for mutations that must be
      placed inside another block (use-after-scope).
    """

    match: MatchedExpr
    ub_type: UBType
    description: str
    new_stmts: List[ast.Stmt] = field(default_factory=list)
    augment: List[Tuple[str, str]] = field(default_factory=list)
    append_to_block: Optional[Tuple[int, List[ast.Stmt]]] = None


def _aux_name(index: int = 0) -> str:
    """Name of the index-th auxiliary ("hat") variable of one mutation.

    Each generated program carries a single mutation, and a mutation uses at
    most two auxiliary variables, so fixed names keep the output fully
    deterministic (the seed programs never use this reserved prefix).
    """
    return f"__ub_hat_{index}"


def _decl(name: str, ctype: ct.CType, value: Optional[int]) -> ast.DeclStmt:
    init = None if value is None else _signed_literal(value)
    return ast.DeclStmt([ast.VarDecl(name, ctype, init)])


def _signed_literal(value: int) -> ast.Expr:
    if value < 0:
        return ast.UnaryOp("-", ast.IntLiteral(-value))
    return ast.IntLiteral(value)


def synthesize(match: MatchedExpr, profile: ExecutionProfile,
               rng: RandomSource,
               function_body: Optional[ast.CompoundStmt] = None) -> Optional[ShadowMutation]:
    """Synthesize a shadow mutation for *match*, or None if impossible.

    Returns None when the match is not in the live region, when the profile
    lacks the needed observations, or when no valid shadow statement exists
    (e.g. no out-of-scope variable of the right type for use-after-scope).
    """
    if not profile.q_liv(match):
        return None
    handler = _HANDLERS.get(match.ub_type)
    if handler is None:
        return None
    return handler(match, profile, rng, function_body)


# ---------------------------------------------------------------------------
# Per-UB-type synthesizers (Table 1, last column)
# ---------------------------------------------------------------------------

def _synth_array_overflow(match: MatchedExpr, profile: ExecutionProfile,
                          rng: RandomSource, _body) -> Optional[ShadowMutation]:
    index_value = profile.q_val(match, "index")
    if index_value is None:
        return None
    length = match.operands.get("length", 0)
    elem_size = max(1, match.operands.get("element_size", 4))
    if length <= 0:
        return None
    # ASan only detects overflows within its red zone (32 bytes), so pick a
    # target index just past the end of the array (paper §2.1).
    slack_elems = max(1, ASAN_REDZONE // elem_size)
    target = length + rng.randint(0, slack_elems - 1)
    delta = target - index_value
    aux = _aux_name()
    return ShadowMutation(
        match=match, ub_type=match.ub_type,
        description=f"index {index_value} -> {target} (length {length})",
        new_stmts=[_decl(aux, ct.LONG, delta)],
        augment=[("index", aux)])


def _synth_pointer_overflow(match: MatchedExpr, profile: ExecutionProfile,
                            rng: RandomSource, _body) -> Optional[ShadowMutation]:
    pointer_value = profile.q_val(match, "pointer")
    buffer = profile.q_mem(match, "pointer")
    if pointer_value is None or buffer is None or buffer.freed or buffer.dead:
        return None
    elem_size = max(1, match.operands.get("element_size", 4))
    if pointer_value < buffer.base or pointer_value >= buffer.end:
        return None
    # First element boundary at or past the end of the buffer, staying
    # within the detectable red zone.
    to_end = buffer.end - pointer_value
    base_elems = (to_end + elem_size - 1) // elem_size
    extra = rng.randint(0, max(0, ASAN_REDZONE // elem_size - 1))
    delta_elems = base_elems + extra
    if delta_elems <= 0:
        delta_elems = 1
    aux = _aux_name()
    field_name = "index" if isinstance(match.expr, ast.ArraySubscript) else "pointer"
    return ShadowMutation(
        match=match, ub_type=match.ub_type,
        description=f"pointer +{delta_elems} elements past {buffer.name}",
        new_stmts=[_decl(aux, ct.LONG, delta_elems)],
        augment=[(field_name, aux)])


def _synth_use_after_free(match: MatchedExpr, profile: ExecutionProfile,
                          rng: RandomSource, _body) -> Optional[ShadowMutation]:
    pointer = match.operands.get("pointer")
    if not isinstance(pointer, ast.Identifier):
        return None
    pointer_value = profile.q_val(match, "pointer")
    buffer = profile.q_mem(match, "pointer")
    if pointer_value is None or buffer is None:
        return None
    if buffer.kind != "heap" or buffer.freed:
        return None
    if pointer_value != buffer.base:
        # free() must receive the allocation's base pointer to be a
        # use-after-free (anything else would be an invalid-free instead).
        return None
    free_stmt = ast.ExprStmt(ast.Call("free", [ast.Identifier(pointer.name)]))
    return ShadowMutation(
        match=match, ub_type=match.ub_type,
        description=f"free({pointer.name}) before the access",
        new_stmts=[free_stmt])


def _synth_use_after_scope(match: MatchedExpr, profile: ExecutionProfile,
                           rng: RandomSource,
                           body: Optional[ast.CompoundStmt]) -> Optional[ShadowMutation]:
    pointer = match.operands.get("pointer")
    if not isinstance(pointer, ast.Identifier) or pointer.symbol is None or body is None:
        return None
    pointee = ct.decay(pointer.symbol.ctype)
    if not isinstance(pointee, ct.PointerType):
        return None
    target_type = pointee.pointee
    anchor_order = profile.q_scp_order(match.stmt) if match.stmt is not None else None
    if anchor_order is None:
        return None

    parents = match.parents if match.parents is not None else parent_map(body)
    enclosing = set()  # ids of match.stmt and every node above it
    node: Optional[ast.Node] = match.stmt
    while node is not None:
        enclosing.add(id(node))
        node = parents.get(node.node_id)
    candidates = []
    for block in walk(body):
        if not isinstance(block, ast.CompoundStmt) or block is body:
            continue
        if id(block) in enclosing:
            continue  # the block encloses the dereference: not out of scope
        for stmt in block.stmts:
            if not isinstance(stmt, ast.DeclStmt):
                continue
            for decl in stmt.decls:
                if decl.ctype != target_type:
                    continue
                order = profile.q_scp_order(stmt)
                if order is None or order >= anchor_order:
                    continue
                candidates.append((block, decl))
    if not candidates:
        return None
    block, decl = rng.choice(candidates)
    # The program keeps indexing through the redirected pointer with the
    # offsets that were valid for the *original* buffer, so the dead slot
    # must cover that whole range: declare a shadow array spanning the
    # pointed-to object inside the chosen block and retarget the pointer to
    # it (Table 1: "{ T tmp[n]; p = tmp; }").  Retargeting to an existing
    # scalar would put later accesses past the dead slot's shadow granule,
    # where ASan correctly reports a buffer overflow instead — a false
    # negative for the use-after-scope oracle.
    buffer = profile.q_mem(match, "pointer")
    elem_size = max(1, target_type.sizeof())
    span = buffer.size if buffer is not None else elem_size
    length = max(1, -(-span // elem_size))
    aux = _aux_name()
    shadow_decl = ast.DeclStmt([ast.VarDecl(aux, ct.ArrayType(target_type, length))])
    assign = ast.ExprStmt(ast.Assignment(
        "=", ast.Identifier(pointer.name),
        ast.AddressOf(ast.ArraySubscript(ast.Identifier(aux),
                                         ast.IntLiteral(0)))))
    return ShadowMutation(
        match=match, ub_type=match.ub_type,
        description=(f"{pointer.name} = &{aux}[0] "
                     f"({target_type} [{length}] in the scope of {decl.name})"),
        append_to_block=(block.node_id, [shadow_decl, assign]))


def _synth_null_deref(match: MatchedExpr, profile: ExecutionProfile,
                      rng: RandomSource, _body) -> Optional[ShadowMutation]:
    pointer = match.operands.get("pointer")
    if not isinstance(pointer, ast.Identifier) or pointer.symbol is None:
        return None
    if pointer.symbol.storage == "param":
        return None  # assigning a parameter is fine, but keep mutations local
    null_assign = ast.ExprStmt(ast.Assignment(
        "=", ast.Identifier(pointer.name),
        ast.Cast(ct.PointerType(ct.VOID), ast.IntLiteral(0))))
    return ShadowMutation(
        match=match, ub_type=match.ub_type,
        description=f"{pointer.name} = (void*)0 before the dereference",
        new_stmts=[null_assign])


def _synth_integer_overflow(match: MatchedExpr, profile: ExecutionProfile,
                            rng: RandomSource, _body) -> Optional[ShadowMutation]:
    lhs_value = profile.q_val(match, "lhs")
    rhs_value = profile.q_val(match, "rhs")
    if lhs_value is None or rhs_value is None:
        return None
    op = match.operands.get("op", "+")
    bits = match.operands.get("bits", 32)
    int_type = ct.INT if bits <= 32 else ct.LONG
    sample = _sample_overflowing_operands(op, lhs_value, rhs_value, int_type, rng)
    if sample is None:
        return None
    v0, v1 = sample
    aux_lhs, aux_rhs = _aux_name(0), _aux_name(1)
    return ShadowMutation(
        match=match, ub_type=match.ub_type,
        description=f"operands -> ({v0}, {v1}) so {op} overflows {int_type}",
        new_stmts=[_decl(aux_lhs, int_type, v0 - lhs_value),
                   _decl(aux_rhs, int_type, v1 - rhs_value)],
        augment=[("lhs", aux_lhs), ("rhs", aux_rhs)])


def _sample_overflowing_operands(op: str, lhs: int, rhs: int,
                                 int_type: ct.IntType,
                                 rng: RandomSource) -> Optional[tuple[int, int]]:
    """Monte-Carlo sampling of target operand values (paper §3.2.3).

    The returned (v0, v1) satisfy: both deltas ``v - observed`` fit in the
    operand type (so the auxiliary additions do not themselves overflow) and
    ``v0 op v1`` falls outside the type's range.
    """
    low, high = int_type.min_value, int_type.max_value

    def fits(delta: int) -> bool:
        return low <= delta <= high

    for _ in range(400):
        v0 = rng.randint(low, high)
        v1 = rng.randint(low, high)
        if not fits(v0 - lhs) or not fits(v1 - rhs):
            continue
        exact = {"+": v0 + v1, "-": v0 - v1, "*": v0 * v1}[op]
        if not int_type.contains(exact):
            return v0, v1
    # Deterministic fall-backs for the common cases.
    fallbacks = {
        "+": (high, high // 2),
        "-": (low, high // 2),
        "*": (high, 3),
    }
    v0, v1 = fallbacks[op]
    if fits(v0 - lhs) and fits(v1 - rhs) \
            and not int_type.contains({"+": v0 + v1, "-": v0 - v1, "*": v0 * v1}[op]):
        return v0, v1
    return None


def _synth_shift_overflow(match: MatchedExpr, profile: ExecutionProfile,
                          rng: RandomSource, _body) -> Optional[ShadowMutation]:
    rhs_value = profile.q_val(match, "rhs")
    if rhs_value is None:
        return None
    bits = match.operands.get("bits", 32)
    if rng.flip(0.8):
        target = rng.randint(bits, bits + 24)
    else:
        target = -rng.randint(1, 16)
    delta = target - rhs_value
    if not ct.INT.contains(delta):
        return None
    aux = _aux_name()
    return ShadowMutation(
        match=match, ub_type=match.ub_type,
        description=f"shift amount {rhs_value} -> {target} ({bits}-bit lhs)",
        new_stmts=[_decl(aux, ct.INT, delta)],
        augment=[("rhs", aux)])


def _synth_divide_by_zero(match: MatchedExpr, profile: ExecutionProfile,
                          rng: RandomSource, _body) -> Optional[ShadowMutation]:
    rhs_value = profile.q_val(match, "rhs")
    if rhs_value is None:
        return None
    delta = -rhs_value
    if not ct.LONG.contains(delta):
        return None
    aux_type = ct.INT if ct.INT.contains(delta) else ct.LONG
    aux = _aux_name()
    return ShadowMutation(
        match=match, ub_type=match.ub_type,
        description=f"divisor {rhs_value} -> 0",
        new_stmts=[_decl(aux, aux_type, delta)],
        augment=[("rhs", aux)])


def _synth_uninit_use(match: MatchedExpr, profile: ExecutionProfile,
                      rng: RandomSource, _body) -> Optional[ShadowMutation]:
    aux = _aux_name()
    # "int hat;" with no initializer: adding it to the condition makes the
    # branch depend on uninitialized memory (Table 1, last row).
    return ShadowMutation(
        match=match, ub_type=match.ub_type,
        description="condition mixed with an uninitialized variable",
        new_stmts=[_decl(aux, ct.INT, None)],
        augment=[("__self__", aux)])


_HANDLERS = {
    UBType.BUFFER_OVERFLOW_ARRAY: _synth_array_overflow,
    UBType.BUFFER_OVERFLOW_POINTER: _synth_pointer_overflow,
    UBType.USE_AFTER_FREE: _synth_use_after_free,
    UBType.USE_AFTER_SCOPE: _synth_use_after_scope,
    UBType.NULL_POINTER_DEREF: _synth_null_deref,
    UBType.INTEGER_OVERFLOW: _synth_integer_overflow,
    UBType.SHIFT_OVERFLOW: _synth_shift_overflow,
    UBType.DIVIDE_BY_ZERO: _synth_divide_by_zero,
    UBType.USE_OF_UNINIT_MEMORY: _synth_uninit_use,
}
