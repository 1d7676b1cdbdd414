"""Closure-bytecode compilation of CDSL programs.

:func:`compile_program` lowers an analysed translation unit into per-function
flat lists of Python closures ("ops", with branch targets resolved to list
indices) plus nested closure trees for expressions.  Every per-node decision
the AST-walking interpreter makes on each visit — dispatch-table lookups,
type tests, operator selection, pointer-scaling factors, read/write widths —
is made once at compile time; what remains at run time is the minimal
sequence of state updates the interpreter would have performed, in exactly
the same order.

Equivalence contract (enforced by
``tests/properties/test_vm_compile_equivalence.py`` and the pinned parity
suites): for any program and any sanitizer runtime, the compiled executor
produces an :class:`~repro.vm.errors.ExecutionResult` bit-identical to
``Interpreter.run()`` — same status, exit code, stdout, report, crash site,
step count, site trace, truncation flag and executed-site set — and drives
the same hook sequences (``site_callback``, ``profile_collector``,
``call_hook``, sanitizer runtime callbacks) in the same order.  The step
counter is the load-bearing detail: timeouts must fire at the same tick so
partial traces and stdout match.

Instrumentation stays on nullable fast paths, mirroring the telemetry
layer's rule: ``site_callback``, ``profile_collector`` and ``call_hook``
cost one ``is not None`` test when disabled, and telemetry is touched once
per run, never per tick.

A compiled program holds no mutable run state (each :meth:`CompiledProgram.run`
builds a fresh ``_State``), so one program can be cached and shared across
every execution of the same instrumented unit — the closure layer of
:class:`~repro.compilers.cache.CompilationCache` does exactly that.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.sema import SemanticInfo
from repro.telemetry import runtime as telemetry
from repro.vm.errors import (
    BreakSignal,
    ContinueSignal,
    ExecutionResult,
    ExecutionTimeout,
    ExitSignal,
    SanitizerAbort,
    VMFault,
)
from repro.vm.interpreter import (
    DEFAULT_MAX_STEPS,
    Frame,
    Interpreter,
    NullRuntime,
    SanitizerRuntime,
    _COMPARE_OPS,
    _INT_BINOPS,
    _MAX_CALL_DEPTH,
    _MAX_TRACE_LEN,
    _bits_of,
    _format_printf,
    _operand_type,
    _pointee_size,
    _pointee_type,
)
from repro.vm.memory import Memory
from repro.vm.values import RuntimeValue

# Small untainted results are served from a shared pool: RuntimeValue is a
# frozen dataclass, and building one costs ~20x a dict hit.  Sharing is safe
# because instances are immutable and nothing compares them by identity.
_RV_POOL = {v: RuntimeValue(v) for v in range(-1024, 16385)}
_RV_GET = _RV_POOL.get
_ZERO = _RV_POOL[0]
_RV_FALSE = _RV_POOL[0]
_RV_TRUE = _RV_POOL[1]


def _site(loc) -> Optional[tuple[int, int]]:
    """Precompute the trace site of a node (None for unknown locations)."""
    return (loc.line, loc.col) if loc.line > 0 else None


class _State:
    """Mutable state of one compiled execution (the interpreter's fields)."""

    __slots__ = (
        "memory", "runtime", "globals", "frames", "scope_stack", "strings",
        "string_keys", "stdout", "steps", "max_steps", "executed_sites",
        "site_trace", "trace_truncated", "last_site", "site_callback",
        "profile_collector", "call_hook", "max_trace_len", "retval",
        "fuse_progress", "fused_seen",
    )

    def __init__(self, runtime, max_steps, profile_collector, site_callback,
                 max_trace_len, call_hook, n_fused=0):
        memory = Memory()
        self.memory = memory
        self.runtime = runtime
        # Same order as Interpreter.__init__: the sanitizer runtime attaches
        # (and registers its hooks) before any profile-collector hooks.
        runtime.attach(memory)
        self.globals = {}
        self.frames = []
        self.scope_stack = []
        self.strings = {}
        self.string_keys = {}
        self.stdout = []
        self.steps = 0
        self.max_steps = max_steps
        self.executed_sites = set()
        self.site_trace = []
        self.trace_truncated = False
        self.last_site = None
        self.site_callback = site_callback
        self.profile_collector = profile_collector
        self.call_hook = call_hook
        self.max_trace_len = max_trace_len
        self.retval = None
        self.fuse_progress = 0
        # One flag per fused op: set after its first complete execution, at
        # which point its sites are all in executed_sites (adds are
        # monotonic) and the per-op set.update can be skipped.
        self.fused_seen = bytearray(n_fused)
        if profile_collector is not None:
            memory.alloc_hooks.append(profile_collector.on_alloc)
            memory.free_hooks.append(profile_collector.on_free)


def _tick(st: _State, site: Optional[tuple[int, int]]) -> None:
    """One interpreter step: count, time out, trace.  Must stay bit-identical
    to ``Interpreter._tick`` — timeout parity decides where partial traces
    and stdout end."""
    steps = st.steps + 1
    st.steps = steps
    if steps > st.max_steps:
        raise ExecutionTimeout(st.max_steps)
    if site is not None:
        st.last_site = site
        st.executed_sites.add(site)
        trace = st.site_trace
        if len(trace) < st.max_trace_len:
            trace.append(site)
        else:
            st.trace_truncated = True
        if st.site_callback is not None:
            st.site_callback(site)


def _local_slot_addr(st: _State, uid: int, symbol) -> int:
    """Slow path of a local-identifier lvalue: references that resolve in an
    outer frame, and reads before the DeclStmt executed (code motion), which
    allocate the slot lazily exactly like the interpreter."""
    for frame in reversed(st.frames):
        obj = frame.slots.get(uid)
        if obj is not None:
            return obj.base
    frames = st.frames
    if not frames:
        raise VMFault("no active frame")
    frame = frames[-1]
    memory = st.memory
    obj = memory.allocate(symbol.ctype.sizeof(), "stack", symbol.name,
                          symbol.ctype, scope_id=symbol.scope.scope_id,
                          frame_id=frame.frame_id)
    st.runtime.on_alloc(memory, obj)
    frame.slots[uid] = obj
    return obj.base


def _exit_scope(st: _State) -> None:
    """Pop the innermost scope: mark its objects dead in declaration order."""
    memory = st.memory
    runtime = st.runtime
    for obj in st.scope_stack.pop():
        memory.mark_scope_dead(obj)
        runtime.on_scope_exit(memory, obj)


class _Label:
    """A forward branch target; ``pc`` is patched once emission reaches it."""

    __slots__ = ("pc",)

    def __init__(self):
        self.pc = -1


class _FunctionCode:
    """Compiled form of one function: a flat op list plus parameter setup."""

    __slots__ = ("decl", "ops", "n_ops", "param_setup")

    def __init__(self, decl: ast.FunctionDecl):
        self.decl = decl
        self.ops: tuple = ()
        self.n_ops = 0
        self.param_setup = None


def _call(st: _State, code: _FunctionCode, args: List[RuntimeValue]) -> RuntimeValue:
    """Invoke a compiled function (the interpreter's ``_call_function``)."""
    frames = st.frames
    if len(frames) >= _MAX_CALL_DEPTH:
        raise VMFault("call depth limit exceeded")
    frame = Frame(code.decl)
    frames.append(frame)
    try:
        setup = code.param_setup
        if setup is not None:
            setup(st, frame, args)
        ops = code.ops
        n = code.n_ops
        st.retval = None
        pc = 0
        while pc < n:
            pc = ops[pc](st)
        value = st.retval
        st.retval = None
        return value if value is not None else _ZERO
    finally:
        frames.pop()


# ---------------------------------------------------------------------------
# static helpers (read/write/coerce specialisation)
# ---------------------------------------------------------------------------


def _make_reader(ctype):
    """Specialised ``Interpreter._read_value`` for a compile-time ctype.

    The in-object fast path folds ``Memory.read_int``'s lookup, slice and
    taint test into the closure; any access not wholly inside one object
    (the UB substrate) falls back to the generic method, which produces
    identical bytes and taint.
    """
    if isinstance(ctype, (ct.ArrayType, ct.StructType)):
        # Arrays decay to their address; struct rvalues are their address.
        return lambda st, addr: RuntimeValue(addr, False)
    size = ctype.sizeof()
    signed = isinstance(ctype, ct.IntType) and ctype.signed
    def read(st, addr):
        memory = st.memory
        obj = memory.object_at(addr)
        if obj is not None and addr + size <= obj.end:
            offset = addr - obj.base
            end = offset + size
            raw = int.from_bytes(obj.data[offset:end], "little", signed=signed)
            if obj.initialized.count(0, offset, end):
                return RuntimeValue(raw, True)
        else:
            raw, tainted = memory.read_int(addr, size, signed)
            if tainted:
                return RuntimeValue(raw, True)
        value = _RV_GET(raw)
        return value if value is not None else RuntimeValue(raw)
    return read


def _make_writer(ctype):
    """Specialised ``Interpreter._write_value`` for a compile-time ctype.

    The fast path writes data and initialized-shadow slices directly — the
    net effect of ``write_int`` + ``mark_initialized`` with one object
    lookup instead of two; partial/spill writes take the generic methods.
    """
    size = 8 if isinstance(ctype, ct.ArrayType) else ctype.sizeof()
    mask = (1 << (8 * size)) - 1
    init_shadow = b"\x01" * size
    taint_shadow = b"\x00" * size
    def write(st, addr, value):
        memory = st.memory
        obj = memory.object_at(addr)
        if obj is not None and addr + size <= obj.end:
            offset = addr - obj.base
            end = offset + size
            obj.data[offset:end] = (value.value & mask).to_bytes(size, "little")
            obj.initialized[offset:end] = taint_shadow if value.tainted \
                else init_shadow
            return
        memory.write_int(addr, size, value.value)
        memory.mark_initialized(addr, size, initialized=not value.tainted)
    return write


def _make_zero_writer(ctype):
    writer = _make_writer(ctype)
    return lambda st, addr: writer(st, addr, _ZERO)


def _make_coercer(ctype):
    """Specialised ``values.coerce`` for a compile-time ctype.

    ``IntType.wrap`` is inlined (mask + signedness reinterpret) and clean
    results come from the small-int pool, mirroring :func:`_make_binary`.
    """
    if isinstance(ctype, ct.IntType):
        w_mask = (1 << ctype.bits) - 1
        w_half = 1 << (ctype.bits - 1) if ctype.signed else None
        w_full = 1 << ctype.bits
        def co(v):
            raw = v.value & w_mask
            if w_half is not None and raw >= w_half:
                raw -= w_full
            if v.tainted:
                return RuntimeValue(raw, True)
            value = _RV_GET(raw)
            return value if value is not None else RuntimeValue(raw)
        return co
    if isinstance(ctype, (ct.PointerType, ct.ArrayType, ct.FunctionType)):
        return lambda v: RuntimeValue(v.value & 0xFFFF_FFFF_FFFF_FFFF, v.tainted)
    return lambda v: v


def _make_binary(expr, op):
    """Specialised ``Interpreter._apply_binary`` as ``fn(lhs, rhs)``.

    All type tests (pointer-arith selection, scaling factors, result wrap)
    happen here, once; the returned closure is pure value arithmetic.
    *expr* may be a BinaryOp or — for compound assignment — the Assignment
    node itself, which has no ``lhs``/``rhs`` attributes, so both operand
    types resolve to None and no pointer scaling applies (the interpreter
    behaves identically; the property suite pins it).
    """
    lhs_type = _operand_type(expr, "lhs")
    rhs_type = _operand_type(expr, "rhs")
    result_type = expr.ctype if isinstance(expr.ctype, ct.IntType) else ct.INT

    if isinstance(lhs_type, (ct.PointerType, ct.ArrayType)) and op in ("+", "-"):
        elem = _pointee_size(lhs_type)
        if isinstance(rhs_type, (ct.PointerType, ct.ArrayType)) and op == "-":
            div = max(1, elem)
            return lambda l, r: RuntimeValue((l.value - r.value) // div,
                                             l.tainted or r.tainted)
        if op == "+":
            return lambda l, r: RuntimeValue(l.value + r.value * elem,
                                             l.tainted or r.tainted)
        return lambda l, r: RuntimeValue(l.value - r.value * elem,
                                         l.tainted or r.tainted)
    if isinstance(rhs_type, (ct.PointerType, ct.ArrayType)) and op == "+":
        elem = _pointee_size(rhs_type)
        return lambda l, r: RuntimeValue(r.value + l.value * elem,
                                         l.tainted or r.tainted)

    wrap = result_type.wrap
    # IntType.wrap inlined: mask to the type's bits, reinterpret signedness.
    w_mask = (1 << result_type.bits) - 1
    w_half = 1 << (result_type.bits - 1) if result_type.signed else None
    w_full = 1 << result_type.bits
    func = _INT_BINOPS.get(op)
    if func is not None:
        def apply(l, r):
            raw = func(l.value, r.value) & w_mask
            if w_half is not None and raw >= w_half:
                raw -= w_full
            if l.tainted or r.tainted:
                return RuntimeValue(raw, True)
            value = _RV_GET(raw)
            return value if value is not None else RuntimeValue(raw)
        return apply
    if op == "<<" or op == ">>":
        bits = max(1, _bits_of(result_type))
        left = op == "<<"
        def apply(l, r):
            a, b = l.value, r.value
            if b >= 0:
                raw = a << (b % bits) if left else a >> (b % bits)
            else:
                raw = a  # negative shift counts pass through (benign UB)
            return RuntimeValue(wrap(raw), l.tainted or r.tainted)
        return apply
    cmp = _COMPARE_OPS.get(op)
    if cmp is not None:
        def apply(l, r):
            if l.tainted or r.tainted:
                return RuntimeValue(int(cmp(l.value, r.value)), True)
            return _RV_TRUE if cmp(l.value, r.value) else _RV_FALSE
        return apply
    def bad(l, r):
        raise VMFault(f"unsupported binary operator {op!r}")
    return bad


# ---------------------------------------------------------------------------
# straight-line tick fusion
# ---------------------------------------------------------------------------
#
# A *fusable* subtree has a statically known tick sequence: no short-circuit
# operators, no conditionals, no calls, no profile hooks.  A statement op
# over such a subtree can then account ALL of its K ticks with three bulk
# operations — one steps addition, one ``list.extend`` of the trace, one
# ``set.update`` of the executed sites — and evaluate a tick-free "work"
# closure tree, instead of running one inlined tick per node.  Exactness is
# preserved by construction:
#
# * the fast path only runs when the whole op fits under the step budget and
#   either fits under the trace cap or the trace is already full, and no
#   ``site_callback`` is attached; every boundary case (a timeout or the
#   trace cap landing *inside* the op, or a per-site callback) falls back to
#   the unfused op, which performs the canonical per-tick sequence;
# * work closures store ``st.fuse_progress`` — the number of ticks
#   semantically fired so far, as a compile-time absolute constant — before
#   every operation that can raise, so a sanitizer abort or VM fault
#   escaping mid-statement repairs steps, trace, executed sites and
#   ``last_site`` to exactly the per-tick state before propagating.
#   Operations that cannot raise skip the store entirely (the constants are
#   absolute, not increments, so skipped stores never accumulate error).


def _no_work(st):
    """Placeholder work for buffered entries that only tick (loop entries)."""


def _fuse_repair(st, steps_before, ticks, room):
    """Rebuild the exact per-tick state after an exception escaped a fused
    op: ``st.fuse_progress`` ticks fired before the raising operation."""
    fired = st.fuse_progress
    st.steps = steps_before + fired
    sites = [s for s in ticks[:fired] if s is not None]
    if sites:
        if room:
            st.site_trace.extend(sites)
        else:
            st.trace_truncated = True
        st.executed_sites.update(sites)
        st.last_site = sites[-1]


def _make_fused_stmt_op(work, ticks, slow_op, nxt, idx):
    """A statement op executing *work* with bulk tick accounting; *slow_op*
    is the unfused op taking over at every semantic boundary.  *idx* is the
    op's slot in ``st.fused_seen``: after the op's first complete execution
    its sites are all in ``executed_sites`` (adds are monotonic), so loop
    iterations skip the set update and pay one bytearray probe instead."""
    ticks = tuple(ticks)
    k = len(ticks)
    sites = tuple(s for s in ticks if s is not None)
    f_sites = frozenset(sites)   # set-to-set union reuses stored hashes
    n_sites = len(sites)
    last = sites[-1] if sites else None
    def op(st):
        steps = st.steps
        nsteps = steps + k
        if nsteps > st.max_steps or st.site_callback is not None:
            return slow_op(st)
        trace = st.site_trace
        room = len(trace) + n_sites <= st.max_trace_len
        if not room and len(trace) < st.max_trace_len:
            return slow_op(st)      # the cap lands inside this op
        st.fuse_progress = 0
        try:
            work(st)
        except BaseException:
            _fuse_repair(st, steps, ticks, room)
            raise
        st.steps = nsteps
        if n_sites:
            if room:
                trace.extend(sites)
            else:
                st.trace_truncated = True
            seen = st.fused_seen
            if not seen[idx]:
                seen[idx] = 1
                st.executed_sites.update(f_sites)
            st.last_site = last
        return nxt
    return op


def _make_fused_branch_op(work, ticks, slow_op, then_pc, els, idx):
    """Like :func:`_make_fused_stmt_op` but *work* yields the condition
    value: returns *then_pc* when truthy, the *els* label's pc otherwise."""
    ticks = tuple(ticks)
    k = len(ticks)
    sites = tuple(s for s in ticks if s is not None)
    f_sites = frozenset(sites)
    n_sites = len(sites)
    last = sites[-1] if sites else None
    def op(st):
        steps = st.steps
        nsteps = steps + k
        if nsteps > st.max_steps or st.site_callback is not None:
            return slow_op(st)
        trace = st.site_trace
        room = len(trace) + n_sites <= st.max_trace_len
        if not room and len(trace) < st.max_trace_len:
            return slow_op(st)
        st.fuse_progress = 0
        try:
            value = work(st)
        except BaseException:
            _fuse_repair(st, steps, ticks, room)
            raise
        st.steps = nsteps
        if n_sites:
            if room:
                trace.extend(sites)
            else:
                st.trace_truncated = True
            seen = st.fused_seen
            if not seen[idx]:
                seen[idx] = 1
                st.executed_sites.update(f_sites)
            st.last_site = last
        return then_pc if value.value != 0 else els.pc
    return op


def _make_fused_label_op(work, ticks, slow_op, label, idx):
    """Like :func:`_make_fused_stmt_op` but the op jumps to *label* (a
    ``_Label`` patched after emission) — the shape of a fused region whose
    last statement is a ``return``/``break``/``continue``."""
    ticks = tuple(ticks)
    k = len(ticks)
    sites = tuple(s for s in ticks if s is not None)
    f_sites = frozenset(sites)
    n_sites = len(sites)
    last = sites[-1] if sites else None
    def op(st):
        steps = st.steps
        nsteps = steps + k
        if nsteps > st.max_steps or st.site_callback is not None:
            return slow_op(st)
        trace = st.site_trace
        room = len(trace) + n_sites <= st.max_trace_len
        if not room and len(trace) < st.max_trace_len:
            return slow_op(st)
        st.fuse_progress = 0
        try:
            work(st)
        except BaseException:
            _fuse_repair(st, steps, ticks, room)
            raise
        st.steps = nsteps
        if n_sites:
            if room:
                trace.extend(sites)
            else:
                st.trace_truncated = True
            seen = st.fused_seen
            if not seen[idx]:
                seen[idx] = 1
                st.executed_sites.update(f_sites)
            st.last_site = last
        return label.pc
    return op


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class _Compiler:
    """Compiles one translation unit to a :class:`CompiledProgram`."""

    def __init__(self, unit: ast.TranslationUnit, sema: SemanticInfo):
        self.unit = unit
        self.sema = sema
        self._codes: Dict[int, _FunctionCode] = {}
        self._pending: List[tuple] = []
        self._n_fused = 0

    def _fused_index(self) -> int:
        """Allocate this fused op's slot in the per-run ``fused_seen`` map."""
        idx = self._n_fused
        self._n_fused = idx + 1
        return idx

    # -- top level -----------------------------------------------------------

    def compile(self) -> "CompiledProgram":
        global_setup = self._compile_globals()
        main = self.unit.function_named("main")
        main_code = None
        if main is not None and main.body is not None:
            main_code = self._code_for(main)
        # Functions compile lazily from call sites (reachability); drain
        # until no new call targets appear.
        while self._pending:
            fn, code = self._pending.pop()
            self._compile_function(fn, code)
        return CompiledProgram(self.unit, self.sema, global_setup, main_code,
                               self._n_fused)

    def _code_for(self, fn: ast.FunctionDecl) -> _FunctionCode:
        code = self._codes.get(fn.node_id)
        if code is None:
            code = _FunctionCode(fn)
            self._codes[fn.node_id] = code
            self._pending.append((fn, code))
        return code

    def _compile_globals(self):
        allocs = []
        inits = []
        broken = False
        for decl in self.unit.globals:
            symbol = decl.symbol
            if symbol is None:
                # The interpreter faults at the first unanalysed global,
                # mid-allocation phase; later declarations never run.
                allocs.append((None, decl.name, None, 0))
                broken = True
                break
            allocs.append((symbol.uid, decl.name, symbol.ctype,
                           symbol.ctype.sizeof()))
        if not broken:
            for decl in self.unit.globals:
                if decl.init is not None:
                    inits.append((decl.symbol.uid, self.compile_store_init(
                        decl.symbol.ctype, decl.init)))

        def global_setup(st):
            memory = st.memory
            runtime = st.runtime
            g = st.globals
            for uid, name, ctype, size in allocs:
                if uid is None:
                    raise VMFault(f"global {name!r} was not analysed")
                obj = memory.allocate(size, "global", name, ctype,
                                      zero_init=True)
                g[uid] = obj
                runtime.on_alloc(memory, obj)
            for uid, fn in inits:
                fn(st, g[uid].base)
        return global_setup

    def _compile_function(self, fn: ast.FunctionDecl, code: _FunctionCode) -> None:
        specs = []
        for param in fn.params:
            symbol = param.symbol
            specs.append((symbol.uid, param.name, symbol.ctype,
                          symbol.ctype.sizeof(), _make_writer(symbol.ctype)))
        if specs:
            def param_setup(st, frame, args):
                memory = st.memory
                runtime = st.runtime
                slots = frame.slots
                fid = frame.frame_id
                nargs = len(args)
                for i, (uid, name, ctype, size, writer) in enumerate(specs):
                    obj = memory.allocate(size, "stack", name, ctype,
                                          frame_id=fid)
                    runtime.on_alloc(memory, obj)
                    slots[uid] = obj
                    writer(st, obj.base, args[i] if i < nargs else _ZERO)
            code.param_setup = param_setup
        fc = _FnCompiler(self, fn.return_type)
        fc.compile_stmt(fn.body)
        fc.flush()
        fc.end.pc = len(fc.ops)
        code.ops = tuple(fc.ops)
        code.n_ops = len(code.ops)

    # -- declarations / initializers ----------------------------------------

    def compile_decl(self, decl: ast.VarDecl):
        """Compile one local VarDecl to ``fn(st)`` (``_exec_decl``)."""
        symbol = decl.symbol
        if symbol is None:
            name = decl.name
            def run(st):
                raise VMFault(f"local {name!r} was not analysed")
            return run
        node_id = decl.node_id
        uid = symbol.uid
        name = decl.name
        sctype = symbol.ctype
        size = sctype.sizeof()
        scope_id = symbol.scope.scope_id
        init_fn = None
        if decl.init is not None:
            init_fn = self.compile_store_init(sctype, decl.init)

        def run(st):
            frames = st.frames
            if not frames:
                raise VMFault("no active frame")
            frame = frames[-1]
            memory = st.memory
            obj = frame.decl_slots.get(node_id)
            if obj is not None:
                # Loop re-entry reuses the slot (C's fixed stack layout).
                memory.revive_for_scope(obj)
                st.runtime.on_scope_enter(memory, obj)
            else:
                obj = memory.allocate(size, "stack", name, sctype,
                                      scope_id=scope_id,
                                      frame_id=frame.frame_id)
                st.runtime.on_alloc(memory, obj)
                frame.decl_slots[node_id] = obj
            frame.slots[uid] = obj
            scopes = st.scope_stack
            if scopes:
                scopes[-1].append(obj)
            if init_fn is not None:
                init_fn(st, obj.base)
        return run

    def compile_store_init(self, ctype, init):
        """Compile an initializer to ``fn(st, addr)`` (``_store_initializer``)."""
        if isinstance(init, ast.InitList):
            if isinstance(ctype, ct.ArrayType):
                elem = ctype.element
                elem_size = elem.sizeof()
                subs = []
                for i in range(ctype.length):
                    off = i * elem_size
                    if i < len(init.items):
                        subs.append((off, self.compile_store_init(
                            elem, init.items[i])))
                    else:
                        subs.append((off, _make_zero_writer(elem)))
                def fn(st, addr):
                    for off, sub in subs:
                        sub(st, addr + off)
                return fn
            if isinstance(ctype, ct.StructType):
                subs = []
                for i, field in enumerate(ctype.fields):
                    if i < len(init.items):
                        subs.append((field.offset, self.compile_store_init(
                            field.ctype, init.items[i])))
                    else:
                        subs.append((field.offset,
                                     _make_zero_writer(field.ctype)))
                def fn(st, addr):
                    for off, sub in subs:
                        sub(st, addr + off)
                return fn
            # Braced scalar: first item, stored *without* coercion (the
            # interpreter writes the raw evaluated value here).
            writer = _make_writer(ctype)
            if init.items:
                ev = self.compile_expr(init.items[0])
                def fn(st, addr):
                    writer(st, addr, ev(st))
            else:
                def fn(st, addr):
                    writer(st, addr, _ZERO)
            return fn
        ev = self.compile_expr(init)
        co = _make_coercer(ctype)
        writer = _make_writer(ctype)
        def fn(st, addr):
            writer(st, addr, co(ev(st)))
        return fn

    # -- expressions ---------------------------------------------------------

    def compile_expr(self, expr: ast.Expr):
        """Compile an expression to a closure ``ev(st) -> RuntimeValue``."""
        maker = _EXPR_MAKERS.get(expr.__class__)
        if maker is None:
            site = _site(expr.loc)
            name = type(expr).__name__
            def ev(st):
                _tick(st, site)
                raise VMFault(f"cannot evaluate {name}")
            return ev
        return maker(self, expr)

    def compile_lvalue(self, expr: ast.Expr):
        """Compile an lvalue to ``(lv(st) -> addr, static ctype)``.

        Every interpreter lvalue handler returns a compile-time-determined
        ctype (provable by induction over the handlers), so only the address
        is computed at run time.
        """
        maker = _LV_MAKERS.get(expr.__class__)
        if maker is None:
            site = _site(expr.loc)
            name = type(expr).__name__
            def lv(st):
                _tick(st, site)
                raise VMFault(f"expression {name} is not an lvalue")
            return lv, ct.INT
        return maker(self, expr)

    def _lvalue_read(self, expr):
        """eval-of-lvalue: the double tick (eval entry + lvalue entry) is
        intentional — the lvalue closure ticks again on the same node."""
        site = _site(expr.loc)
        symbol = getattr(expr, "symbol", None)
        if (expr.__class__ is ast.Identifier and site is not None
                and symbol is not None and not symbol.is_global
                and not isinstance(symbol.ctype, (ct.ArrayType, ct.StructType))):
            # The hottest expression by far: a local scalar read.  Both ticks,
            # the current-frame slot lookup and the in-object memory read are
            # inlined; every rare case falls back to the generic helpers.
            uid = symbol.uid
            ctype = symbol.ctype
            size = ctype.sizeof()
            signed = isinstance(ctype, ct.IntType) and ctype.signed
            def ev(st):
                # tick 1 (eval entry) — inlined _tick with a known site
                steps = st.steps + 1
                st.steps = steps
                if steps > st.max_steps:
                    raise ExecutionTimeout(st.max_steps)
                st.last_site = site
                st.executed_sites.add(site)
                trace = st.site_trace
                if len(trace) < st.max_trace_len:
                    trace.append(site)
                else:
                    st.trace_truncated = True
                cb = st.site_callback
                if cb is not None:
                    cb(site)
                # tick 2 (lvalue entry, same node → same site)
                steps = st.steps + 1
                st.steps = steps
                if steps > st.max_steps:
                    raise ExecutionTimeout(st.max_steps)
                st.last_site = site
                st.executed_sites.add(site)
                trace = st.site_trace
                if len(trace) < st.max_trace_len:
                    trace.append(site)
                else:
                    st.trace_truncated = True
                cb = st.site_callback
                if cb is not None:
                    cb(site)
                frames = st.frames
                obj = frames[-1].slots.get(uid) if frames else None
                if obj is not None:
                    # The slot IS the memory object, and the slot was sized
                    # from this very ctype, so the read is always in-bounds:
                    # no object_at lookup, no containment test.
                    raw = int.from_bytes(obj.data[:size], "little",
                                         signed=signed)
                    if obj.initialized.count(0, 0, size):
                        return RuntimeValue(raw, True)
                else:
                    addr = _local_slot_addr(st, uid, symbol)
                    raw, tainted = st.memory.read_int(addr, size, signed)
                    if tainted:
                        return RuntimeValue(raw, True)
                value = _RV_GET(raw)
                return value if value is not None else RuntimeValue(raw)
            return ev
        lv, ctype = self.compile_lvalue(expr)
        reader = _make_reader(ctype)
        def ev(st):
            _tick(st, site)
            addr = lv(st)
            return reader(st, addr)
        return ev

    def _expr_IntLiteral(self, expr):
        site = _site(expr.loc)
        cached = _RV_GET(expr.value)
        value = cached if cached is not None else RuntimeValue(expr.value)
        if site is None:
            def ev(st):
                _tick(st, site)
                return value
            return ev
        def ev(st):
            steps = st.steps + 1
            st.steps = steps
            if steps > st.max_steps:
                raise ExecutionTimeout(st.max_steps)
            st.last_site = site
            st.executed_sites.add(site)
            trace = st.site_trace
            if len(trace) < st.max_trace_len:
                trace.append(site)
            else:
                st.trace_truncated = True
            cb = st.site_callback
            if cb is not None:
                cb(site)
            return value
        return ev

    def _expr_StringLiteral(self, expr):
        site = _site(expr.loc)
        text = expr.value
        def ev(st):
            _tick(st, site)
            addr = st.string_keys.get(text)
            if addr is None:
                addr = 0x7000_0000 + len(st.strings) * 0x100
                st.strings[addr] = text
                st.string_keys[text] = addr
            return RuntimeValue(addr)
        return ev

    def _expr_Identifier(self, expr):
        return self._lvalue_read(expr)

    def _expr_ArraySubscript(self, expr):
        return self._lvalue_read(expr)

    def _expr_Deref(self, expr):
        return self._lvalue_read(expr)

    def _expr_MemberAccess(self, expr):
        return self._lvalue_read(expr)

    def _expr_BinaryOp(self, expr):
        site = _site(expr.loc)
        op = expr.op
        lhs_ev = self.compile_expr(expr.lhs)
        rhs_ev = self.compile_expr(expr.rhs)
        if op == "&&":
            def ev(st):
                _tick(st, site)
                lhs = lhs_ev(st)
                if lhs.value == 0:
                    return RuntimeValue(0, lhs.tainted)
                rhs = rhs_ev(st)
                return RuntimeValue(1 if rhs.value != 0 else 0,
                                    lhs.tainted or rhs.tainted)
            return ev
        if op == "||":
            def ev(st):
                _tick(st, site)
                lhs = lhs_ev(st)
                if lhs.value != 0:
                    return RuntimeValue(1, lhs.tainted)
                rhs = rhs_ev(st)
                return RuntimeValue(1 if rhs.value != 0 else 0,
                                    lhs.tainted or rhs.tainted)
            return ev
        lhs_type = _operand_type(expr, "lhs")
        rhs_type = _operand_type(expr, "rhs")
        func = _INT_BINOPS.get(op)
        if (func is not None and site is not None
                and not isinstance(lhs_type, (ct.PointerType, ct.ArrayType))
                and not isinstance(rhs_type, (ct.PointerType, ct.ArrayType))):
            # Integer arithmetic is the second-hottest expression: the tick,
            # the operator and the result wrap are all inlined.
            result_type = expr.ctype if isinstance(expr.ctype, ct.IntType) \
                else ct.INT
            w_mask = (1 << result_type.bits) - 1
            w_half = (1 << (result_type.bits - 1)) if result_type.signed \
                else None
            w_full = 1 << result_type.bits
            def ev(st):
                steps = st.steps + 1
                st.steps = steps
                if steps > st.max_steps:
                    raise ExecutionTimeout(st.max_steps)
                st.last_site = site
                st.executed_sites.add(site)
                trace = st.site_trace
                if len(trace) < st.max_trace_len:
                    trace.append(site)
                else:
                    st.trace_truncated = True
                cb = st.site_callback
                if cb is not None:
                    cb(site)
                lhs = lhs_ev(st)
                rhs = rhs_ev(st)
                raw = func(lhs.value, rhs.value) & w_mask
                if w_half is not None and raw >= w_half:
                    raw -= w_full
                if lhs.tainted or rhs.tainted:
                    return RuntimeValue(raw, True)
                value = _RV_GET(raw)
                return value if value is not None else RuntimeValue(raw)
            return ev
        cmp = _COMPARE_OPS.get(op)
        if cmp is not None and site is not None:
            # Comparisons (loop conditions) are as hot as the arithmetic.
            def ev(st):
                steps = st.steps + 1
                st.steps = steps
                if steps > st.max_steps:
                    raise ExecutionTimeout(st.max_steps)
                st.last_site = site
                st.executed_sites.add(site)
                trace = st.site_trace
                if len(trace) < st.max_trace_len:
                    trace.append(site)
                else:
                    st.trace_truncated = True
                cb = st.site_callback
                if cb is not None:
                    cb(site)
                lhs = lhs_ev(st)
                rhs = rhs_ev(st)
                if lhs.tainted or rhs.tainted:
                    return RuntimeValue(int(cmp(lhs.value, rhs.value)), True)
                return _RV_TRUE if cmp(lhs.value, rhs.value) else _RV_FALSE
            return ev
        apply = _make_binary(expr, op)
        def ev(st):
            _tick(st, site)
            lhs = lhs_ev(st)
            rhs = rhs_ev(st)
            return apply(lhs, rhs)
        return ev

    def _expr_UnaryOp(self, expr):
        site = _site(expr.loc)
        operand_ev = self.compile_expr(expr.operand)
        result_type = expr.ctype if isinstance(expr.ctype, ct.IntType) else ct.INT
        wrap = result_type.wrap
        op = expr.op
        if op == "-":
            def ev(st):
                _tick(st, site)
                v = operand_ev(st)
                return RuntimeValue(wrap(-v.value), v.tainted)
        elif op == "+":
            def ev(st):
                _tick(st, site)
                v = operand_ev(st)
                return RuntimeValue(wrap(v.value), v.tainted)
        elif op == "!":
            def ev(st):
                _tick(st, site)
                v = operand_ev(st)
                return RuntimeValue(0 if v.value != 0 else 1, v.tainted)
        elif op == "~":
            def ev(st):
                _tick(st, site)
                v = operand_ev(st)
                return RuntimeValue(wrap(~v.value), v.tainted)
        else:
            def ev(st):
                _tick(st, site)
                operand_ev(st)  # operand side effects happen first
                raise VMFault(f"unsupported unary operator {op!r}")
        return ev

    def _expr_IncDec(self, expr):
        site = _site(expr.loc)
        lv, ctype = self.compile_lvalue(expr.operand)
        reader = _make_reader(ctype)
        writer = _make_writer(ctype)
        co = _make_coercer(ctype)
        delta = 1
        if isinstance(ctype, ct.PointerType):
            delta = max(1, ctype.pointee.sizeof())
        if expr.op != "++":
            delta = -delta
        prefix = expr.is_prefix
        def ev(st):
            _tick(st, site)
            addr = lv(st)
            old = reader(st, addr)
            new = co(RuntimeValue(old.value + delta, old.tainted))
            writer(st, addr, new)
            return new if prefix else old
        return ev

    def _expr_Assignment(self, expr):
        site = _site(expr.loc)
        target_type = expr.target.ctype or ct.INT
        if isinstance(target_type, ct.StructType):
            dst_lv, dst_type = self.compile_lvalue(expr.target)
            src_lv, _src_type = self.compile_lvalue(expr.value)
            size = dst_type.sizeof()
            def ev(st):
                _tick(st, site)
                dst = dst_lv(st)
                src = src_lv(st)
                memory = st.memory
                data, tainted = memory.read_bytes(src, size)
                memory.write_bytes(dst, data)
                if tainted:
                    memory.mark_initialized(dst, size, initialized=False)
                return RuntimeValue(dst)
            return ev
        if expr.op == "=":
            value_ev = self.compile_expr(expr.value)
            target = expr.target
            tsym = getattr(target, "symbol", None)
            tsite = _site(target.loc)
            if (target.__class__ is ast.Identifier and tsym is not None
                    and not tsym.is_global and site is not None
                    and tsite is not None
                    and isinstance(tsym.ctype, ct.IntType)):
                # Store to a local integer slot: assignment tick, RHS, the
                # target's own lvalue tick, wrap and slot write — all inline.
                uid = tsym.uid
                t_ctype = tsym.ctype
                size = t_ctype.sizeof()
                w_mask = (1 << t_ctype.bits) - 1
                w_half = (1 << (t_ctype.bits - 1)) if t_ctype.signed else None
                w_full = 1 << t_ctype.bits
                b_mask = (1 << (8 * size)) - 1
                init_shadow = b"\x01" * size
                taint_shadow = b"\x00" * size
                writer = _make_writer(t_ctype)
                def ev(st):
                    steps = st.steps + 1       # the assignment's own tick
                    st.steps = steps
                    if steps > st.max_steps:
                        raise ExecutionTimeout(st.max_steps)
                    st.last_site = site
                    st.executed_sites.add(site)
                    trace = st.site_trace
                    if len(trace) < st.max_trace_len:
                        trace.append(site)
                    else:
                        st.trace_truncated = True
                    cb = st.site_callback
                    if cb is not None:
                        cb(site)
                    value = value_ev(st)  # RHS before the target lvalue
                    steps = st.steps + 1       # the target lvalue's tick
                    st.steps = steps
                    if steps > st.max_steps:
                        raise ExecutionTimeout(st.max_steps)
                    st.last_site = tsite
                    st.executed_sites.add(tsite)
                    trace = st.site_trace
                    if len(trace) < st.max_trace_len:
                        trace.append(tsite)
                    else:
                        st.trace_truncated = True
                    cb = st.site_callback
                    if cb is not None:
                        cb(tsite)
                    raw = value.value & w_mask
                    if w_half is not None and raw >= w_half:
                        raw -= w_full
                    tainted = value.tainted
                    if tainted:
                        value = RuntimeValue(raw, True)
                    else:
                        value = _RV_GET(raw)
                        if value is None:
                            value = RuntimeValue(raw)
                    frames = st.frames
                    obj = frames[-1].slots.get(uid) if frames else None
                    if obj is not None:
                        obj.data[:size] = (raw & b_mask).to_bytes(size,
                                                                  "little")
                        obj.initialized[:size] = taint_shadow if tainted \
                            else init_shadow
                    else:
                        addr = _local_slot_addr(st, uid, tsym)
                        writer(st, addr, value)
                    return value
                return ev
            target_lv, t_ctype = self.compile_lvalue(target)
            co = _make_coercer(t_ctype)
            writer = _make_writer(t_ctype)
            def ev(st):
                _tick(st, site)
                value = value_ev(st)  # RHS evaluates before the target lvalue
                addr = target_lv(st)
                value = co(value)
                writer(st, addr, value)
                return value
            return ev
        # Compound assignment: read-modify-write, target lvalue first.
        target_lv, t_ctype = self.compile_lvalue(expr.target)
        reader = _make_reader(t_ctype)
        apply = _make_binary(expr, expr.op[:-1])
        rhs_ev = self.compile_expr(expr.value)
        co = _make_coercer(t_ctype)
        writer = _make_writer(t_ctype)
        def ev(st):
            _tick(st, site)
            addr = target_lv(st)
            current = reader(st, addr)
            rhs = rhs_ev(st)
            value = co(apply(current, rhs))
            writer(st, addr, value)
            return value
        return ev

    def _expr_AddressOf(self, expr):
        site = _site(expr.loc)
        lv, _ctype = self.compile_lvalue(expr.operand)
        def ev(st):
            _tick(st, site)
            return RuntimeValue(lv(st))
        return ev

    def _expr_Cast(self, expr):
        site = _site(expr.loc)
        operand_ev = self.compile_expr(expr.operand)
        co = _make_coercer(expr.target_type)
        def ev(st):
            _tick(st, site)
            return co(operand_ev(st))
        return ev

    def _expr_Conditional(self, expr):
        site = _site(expr.loc)
        cond_ev = self.compile_expr(expr.cond)
        then_ev = self.compile_expr(expr.then)
        else_ev = self.compile_expr(expr.otherwise)
        def ev(st):
            _tick(st, site)
            if cond_ev(st).value != 0:
                return then_ev(st)
            return else_ev(st)
        return ev

    def _expr_CommaExpr(self, expr):
        site = _site(expr.loc)
        part_evs = [self.compile_expr(p) for p in expr.parts]
        def ev(st):
            _tick(st, site)
            value = _ZERO
            for part in part_evs:
                value = part(st)
            return value
        return ev

    def _expr_SizeofExpr(self, expr):
        site = _site(expr.loc)
        if expr.target_type is not None:
            n = expr.target_type.sizeof()
        else:
            ctype = expr.operand.ctype if expr.operand is not None else None
            n = ctype.sizeof() if ctype is not None else 1
        value = RuntimeValue(n)
        def ev(st):
            _tick(st, site)
            return value
        return ev

    def _expr_ProfileHook(self, expr):
        site = _site(expr.loc)
        key = expr.key
        inner_node = expr.inner
        inner_ev = self.compile_expr(expr.inner)
        def ev(st):
            _tick(st, site)
            value = inner_ev(st)
            collector = st.profile_collector
            if collector is not None:
                collector.record_value(key, inner_node, value, st.memory)
            return value
        return ev

    def _make_check(self, expr: ast.SanitizerCheck):
        """Compile the check-and-maybe-abort step (``_run_check``)."""
        kind = expr.kind
        detail = expr.detail
        loc = expr.loc if expr.loc.is_known else expr.inner.loc
        def run_check(st, operands):
            report = st.runtime.check(kind, detail, operands, st.memory, loc)
            if report is not None:
                raise SanitizerAbort(report)
        return run_check

    def _expr_SanitizerCheck(self, expr):
        site = _site(expr.loc)
        kind = expr.kind
        if kind.startswith("asan_access") or kind in ("ubsan_null",
                                                      "ubsan_bounds"):
            # The lvalue path runs the check, then the value is read.
            return self._lvalue_read(expr)
        if kind in ("ubsan_arith", "ubsan_shift", "ubsan_div"):
            inner = expr.inner
            if not isinstance(inner, ast.BinaryOp):
                inner_ev = self.compile_expr(inner)
                def ev(st):
                    _tick(st, site)
                    return inner_ev(st)
                return ev
            lhs_ev = self.compile_expr(inner.lhs)
            rhs_ev = self.compile_expr(inner.rhs)
            apply = _make_binary(inner, inner.op)
            run_check = self._make_check(expr)
            op = inner.op
            inner_ctype = inner.ctype
            def ev(st):
                _tick(st, site)
                lhs = lhs_ev(st)
                rhs = rhs_ev(st)
                run_check(st, {"lhs": lhs.value, "rhs": rhs.value, "op": op,
                               "ctype": inner_ctype})
                return apply(lhs, rhs)
            return ev
        if kind == "msan_use":
            inner_ev = self.compile_expr(expr.inner)
            run_check = self._make_check(expr)
            def ev(st):
                _tick(st, site)
                value = inner_ev(st)
                run_check(st, {"tainted": value.tainted, "value": value.value})
                return value
            return ev
        # Unknown check kinds are transparent.
        inner_ev = self.compile_expr(expr.inner)
        def ev(st):
            _tick(st, site)
            return inner_ev(st)
        return ev

    def _expr_Call(self, expr):
        site = _site(expr.loc)
        fn = self.unit.function_named(expr.name)
        if fn is not None and fn.body is not None:
            code = self._code_for(fn)
            arg_evs = [self.compile_expr(a) for a in expr.args]
            coercers = [_make_coercer(p.ctype) for p in fn.params]
            nparams = len(coercers)
            def ev(st):
                _tick(st, site)
                vals = [e(st) for e in arg_evs]
                n = len(vals)
                args = [coercers[i](vals[i] if i < n else _ZERO)
                        for i in range(nparams)]
                return _call(st, code, args)
            return ev
        return self._make_builtin(expr, site)

    # -- lvalues -------------------------------------------------------------

    def _lv_Identifier(self, expr):
        site = _site(expr.loc)
        symbol = expr.symbol
        if symbol is None:
            name = expr.name
            def lv(st):
                _tick(st, site)
                raise VMFault(f"unresolved identifier {name!r}")
            return lv, ct.INT
        uid = symbol.uid
        if symbol.is_global:
            name = symbol.name
            def lv(st):
                _tick(st, site)
                obj = st.globals.get(uid)
                if obj is None:
                    raise VMFault(f"global {name!r} has no storage")
                return obj.base
        elif site is None:
            def lv(st):
                _tick(st, site)
                frames = st.frames
                if frames:
                    obj = frames[-1].slots.get(uid)
                    if obj is not None:
                        return obj.base
                return _local_slot_addr(st, uid, symbol)
        else:
            def lv(st):
                steps = st.steps + 1
                st.steps = steps
                if steps > st.max_steps:
                    raise ExecutionTimeout(st.max_steps)
                st.last_site = site
                st.executed_sites.add(site)
                trace = st.site_trace
                if len(trace) < st.max_trace_len:
                    trace.append(site)
                else:
                    st.trace_truncated = True
                cb = st.site_callback
                if cb is not None:
                    cb(site)
                frames = st.frames
                if frames:
                    # Most references resolve in the current frame, which is
                    # also the first frame the reversed scan would check.
                    obj = frames[-1].slots.get(uid)
                    if obj is not None:
                        return obj.base
                return _local_slot_addr(st, uid, symbol)
        return lv, symbol.ctype

    def _lv_Deref(self, expr):
        site = _site(expr.loc)
        pointer_ev = self.compile_expr(expr.pointer)
        ctype = expr.ctype or _pointee_type(expr.pointer) or ct.INT
        def lv(st):
            _tick(st, site)
            return pointer_ev(st).value
        return lv, ctype

    def _lv_ArraySubscript(self, expr):
        site = _site(expr.loc)
        base_type = ct.decay(expr.base.ctype) if expr.base.ctype else None
        base_ev = self.compile_expr(expr.base)
        index_ev = self.compile_expr(expr.index)
        if isinstance(base_type, ct.PointerType):
            elem = base_type.pointee
        else:
            elem = expr.ctype or ct.INT
        scale = max(1, elem.sizeof())
        def lv(st):
            _tick(st, site)
            base = base_ev(st)
            index = index_ev(st)
            return base.value + index.value * scale
        return lv, elem

    def _lv_MemberAccess(self, expr):
        site = _site(expr.loc)
        if expr.arrow:
            base_ev = self.compile_expr(expr.base)
            struct_type = None
            if expr.base.ctype:
                decayed = ct.decay(expr.base.ctype)
                if decayed.is_pointer:
                    struct_type = decayed.pointee
        else:
            base_lv, struct_type = self.compile_lvalue(expr.base)
        if not isinstance(struct_type, ct.StructType):
            struct_type = None
        field_type = expr.ctype or ct.INT
        offset = 0
        if isinstance(struct_type, ct.StructType):
            field = struct_type.field_named(expr.field)
            if field is not None:
                offset = field.offset
                field_type = field.ctype
        if expr.arrow:
            def lv(st):
                _tick(st, site)
                return base_ev(st).value + offset
        else:
            def lv(st):
                _tick(st, site)
                return base_lv(st) + offset
        return lv, field_type

    def _lv_SanitizerCheck(self, expr):
        site = _site(expr.loc)
        inner_lv, ctype = self.compile_lvalue(expr.inner)
        size = expr.detail.get("size") or (ctype.sizeof() if ctype else 1)
        is_write = expr.detail.get("is_write", False)
        run_check = self._make_check(expr)
        if expr.kind == "ubsan_bounds" and isinstance(expr.inner,
                                                      ast.ArraySubscript):
            # The bounds check re-evaluates the index expression — extra
            # ticks and side effects the interpreter also produces.
            index_ev = self.compile_expr(expr.inner.index)
            length = expr.detail.get("length")
            def lv(st):
                _tick(st, site)
                addr = inner_lv(st)
                operands = {"addr": addr, "size": size, "is_write": is_write,
                            "index": index_ev(st).value, "length": length}
                run_check(st, operands)
                return addr
        else:
            def lv(st):
                _tick(st, site)
                addr = inner_lv(st)
                run_check(st, {"addr": addr, "size": size,
                               "is_write": is_write})
                return addr
        return lv, ctype

    def _lv_ProfileHook(self, expr):
        site = _site(expr.loc)
        key = expr.key
        inner_node = expr.inner
        inner_lv, ctype = self.compile_lvalue(expr.inner)
        def lv(st):
            _tick(st, site)
            addr = inner_lv(st)
            collector = st.profile_collector
            if collector is not None:
                collector.record_lvalue(key, inner_node, addr, ctype,
                                        st.memory)
            return addr
        return lv, ctype

    def _lv_Cast(self, expr):
        site = _site(expr.loc)
        inner_lv, ctype = self.compile_lvalue(expr.operand)
        def lv(st):
            _tick(st, site)
            return inner_lv(st)
        return lv, ctype

    def _lv_CommaExpr(self, expr):
        site = _site(expr.loc)
        if not expr.parts:
            def lv(st):
                _tick(st, site)
                raise VMFault("expression CommaExpr is not an lvalue")
            return lv, ct.INT
        part_evs = [self.compile_expr(p) for p in expr.parts[:-1]]
        last_lv, ctype = self.compile_lvalue(expr.parts[-1])
        def lv(st):
            _tick(st, site)
            for part in part_evs:
                part(st)
            return last_lv(st)
        return lv, ctype

    # -- straight-line fusion ------------------------------------------------
    #
    # ``_fuse_expr``/``_fuse_lv`` compile a subtree to a tick-free work
    # closure plus the subtree's static tick sequence, or None when any node
    # is unfusable (calls, short-circuits, conditionals, profile hooks,
    # comma chains).  *base* is the number of ticks fired before this node's
    # first tick within the enclosing fused region; it anchors the absolute
    # ``st.fuse_progress`` constants stored before raising operations (the
    # repair protocol of ``_fuse_repair``).  Each maker mirrors its ticked
    # counterpart above with the tick blocks lifted out; the tick *order*
    # ([own ticks] + child ticks, in evaluation order) must stay identical.

    def _fuse_expr(self, expr, base):
        maker = _FX_MAKERS.get(expr.__class__)
        if maker is None:
            return None
        return maker(self, expr, base)

    def _fuse_lv(self, expr, base):
        maker = _FLV_MAKERS.get(expr.__class__)
        if maker is None:
            return None
        return maker(self, expr, base)

    def _fuse_lvalue_read(self, expr, base):
        site = _site(expr.loc)
        symbol = getattr(expr, "symbol", None)
        if (expr.__class__ is ast.Identifier and symbol is not None
                and not symbol.is_global
                and not isinstance(symbol.ctype, (ct.ArrayType, ct.StructType))):
            uid = symbol.uid
            ctype = symbol.ctype
            size = ctype.sizeof()
            signed = isinstance(ctype, ct.IntType) and ctype.signed
            progress = base + 2    # both ticks fire before the slot resolves
            def work(st):
                frames = st.frames
                obj = frames[-1].slots.get(uid) if frames else None
                if obj is not None:
                    raw = int.from_bytes(obj.data[:size], "little",
                                         signed=signed)
                    if obj.initialized.count(0, 0, size):
                        return RuntimeValue(raw, True)
                else:
                    st.fuse_progress = progress
                    addr = _local_slot_addr(st, uid, symbol)
                    raw, tainted = st.memory.read_int(addr, size, signed)
                    if tainted:
                        return RuntimeValue(raw, True)
                value = _RV_GET(raw)
                return value if value is not None else RuntimeValue(raw)
            return work, [site, site]
        fused = self._fuse_lv(expr, base + 1)
        if fused is None:
            return None
        lv_work, lv_ticks, ctype = fused
        reader = _make_reader(ctype)
        ticks = [site] + lv_ticks
        progress = base + len(ticks)
        def work(st):
            addr = lv_work(st)
            st.fuse_progress = progress
            return reader(st, addr)
        return work, ticks

    def _fx_IntLiteral(self, expr, base):
        cached = _RV_GET(expr.value)
        value = cached if cached is not None else RuntimeValue(expr.value)
        return (lambda st: value), [_site(expr.loc)]

    def _fx_SizeofExpr(self, expr, base):
        if expr.target_type is not None:
            n = expr.target_type.sizeof()
        else:
            ctype = expr.operand.ctype if expr.operand is not None else None
            n = ctype.sizeof() if ctype is not None else 1
        value = RuntimeValue(n)
        return (lambda st: value), [_site(expr.loc)]

    def _fx_StringLiteral(self, expr, base):
        text = expr.value
        def work(st):
            addr = st.string_keys.get(text)
            if addr is None:
                addr = 0x7000_0000 + len(st.strings) * 0x100
                st.strings[addr] = text
                st.string_keys[text] = addr
            return RuntimeValue(addr)
        return work, [_site(expr.loc)]

    def _fx_Identifier(self, expr, base):
        return self._fuse_lvalue_read(expr, base)

    def _fx_ArraySubscript(self, expr, base):
        return self._fuse_lvalue_read(expr, base)

    def _fx_Deref(self, expr, base):
        return self._fuse_lvalue_read(expr, base)

    def _fx_MemberAccess(self, expr, base):
        return self._fuse_lvalue_read(expr, base)

    def _fx_BinaryOp(self, expr, base):
        op = expr.op
        if op == "&&" or op == "||":
            return None
        fl = self._fuse_expr(expr.lhs, base + 1)
        if fl is None:
            return None
        lhs_work, lhs_ticks = fl
        fr = self._fuse_expr(expr.rhs, base + 1 + len(lhs_ticks))
        if fr is None:
            return None
        rhs_work, rhs_ticks = fr
        apply = _make_binary(expr, op)
        def work(st):
            return apply(lhs_work(st), rhs_work(st))
        return work, [_site(expr.loc)] + lhs_ticks + rhs_ticks

    def _fx_UnaryOp(self, expr, base):
        op = expr.op
        if op not in ("-", "+", "!", "~"):
            return None
        f = self._fuse_expr(expr.operand, base + 1)
        if f is None:
            return None
        operand_work, operand_ticks = f
        result_type = expr.ctype if isinstance(expr.ctype, ct.IntType) else ct.INT
        wrap = result_type.wrap
        if op == "-":
            def work(st):
                v = operand_work(st)
                return RuntimeValue(wrap(-v.value), v.tainted)
        elif op == "+":
            def work(st):
                v = operand_work(st)
                return RuntimeValue(wrap(v.value), v.tainted)
        elif op == "!":
            def work(st):
                v = operand_work(st)
                return RuntimeValue(0 if v.value != 0 else 1, v.tainted)
        else:
            def work(st):
                v = operand_work(st)
                return RuntimeValue(wrap(~v.value), v.tainted)
        return work, [_site(expr.loc)] + operand_ticks

    def _fx_Cast(self, expr, base):
        f = self._fuse_expr(expr.operand, base + 1)
        if f is None:
            return None
        operand_work, operand_ticks = f
        co = _make_coercer(expr.target_type)
        def work(st):
            return co(operand_work(st))
        return work, [_site(expr.loc)] + operand_ticks

    def _fx_AddressOf(self, expr, base):
        f = self._fuse_lv(expr.operand, base + 1)
        if f is None:
            return None
        lv_work, lv_ticks, _ctype = f
        def work(st):
            return RuntimeValue(lv_work(st))
        return work, [_site(expr.loc)] + lv_ticks

    def _fx_IncDec(self, expr, base):
        f = self._fuse_lv(expr.operand, base + 1)
        if f is None:
            return None
        lv_work, lv_ticks, ctype = f
        reader = _make_reader(ctype)
        writer = _make_writer(ctype)
        co = _make_coercer(ctype)
        delta = 1
        if isinstance(ctype, ct.PointerType):
            delta = max(1, ctype.pointee.sizeof())
        if expr.op != "++":
            delta = -delta
        prefix = expr.is_prefix
        ticks = [_site(expr.loc)] + lv_ticks
        progress = base + len(ticks)
        def work(st):
            addr = lv_work(st)
            st.fuse_progress = progress
            old = reader(st, addr)
            new = co(RuntimeValue(old.value + delta, old.tainted))
            writer(st, addr, new)
            return new if prefix else old
        return work, ticks

    def _fx_Assignment(self, expr, base):
        site = _site(expr.loc)
        target_type = expr.target.ctype or ct.INT
        if isinstance(target_type, ct.StructType):
            fd = self._fuse_lv(expr.target, base + 1)
            if fd is None:
                return None
            dst_work, dst_ticks, dst_type = fd
            fs = self._fuse_lv(expr.value, base + 1 + len(dst_ticks))
            if fs is None:
                return None
            src_work, src_ticks, _src_type = fs
            size = dst_type.sizeof()
            ticks = [site] + dst_ticks + src_ticks
            progress = base + len(ticks)
            def work(st):
                dst = dst_work(st)
                src = src_work(st)
                st.fuse_progress = progress
                memory = st.memory
                data, tainted = memory.read_bytes(src, size)
                memory.write_bytes(dst, data)
                if tainted:
                    memory.mark_initialized(dst, size, initialized=False)
                return RuntimeValue(dst)
            return work, ticks
        if expr.op == "=":
            fv = self._fuse_expr(expr.value, base + 1)
            if fv is None:
                return None
            value_work, value_ticks = fv
            target = expr.target
            tsym = getattr(target, "symbol", None)
            if (target.__class__ is ast.Identifier and tsym is not None
                    and not tsym.is_global
                    and isinstance(tsym.ctype, ct.IntType)):
                uid = tsym.uid
                t_ctype = tsym.ctype
                size = t_ctype.sizeof()
                w_mask = (1 << t_ctype.bits) - 1
                w_half = (1 << (t_ctype.bits - 1)) if t_ctype.signed else None
                w_full = 1 << t_ctype.bits
                b_mask = (1 << (8 * size)) - 1
                init_shadow = b"\x01" * size
                taint_shadow = b"\x00" * size
                writer = _make_writer(t_ctype)
                ticks = [site] + value_ticks + [_site(target.loc)]
                progress = base + len(ticks)
                def work(st):
                    value = value_work(st)  # RHS before the target lvalue
                    raw = value.value & w_mask
                    if w_half is not None and raw >= w_half:
                        raw -= w_full
                    tainted = value.tainted
                    if tainted:
                        value = RuntimeValue(raw, True)
                    else:
                        value = _RV_GET(raw)
                        if value is None:
                            value = RuntimeValue(raw)
                    frames = st.frames
                    obj = frames[-1].slots.get(uid) if frames else None
                    if obj is not None:
                        obj.data[:size] = (raw & b_mask).to_bytes(size,
                                                                  "little")
                        obj.initialized[:size] = taint_shadow if tainted \
                            else init_shadow
                    else:
                        st.fuse_progress = progress
                        addr = _local_slot_addr(st, uid, tsym)
                        writer(st, addr, value)
                    return value
                return work, ticks
            ft = self._fuse_lv(target, base + 1 + len(value_ticks))
            if ft is None:
                return None
            target_work, target_ticks, t_ctype = ft
            co = _make_coercer(t_ctype)
            writer = _make_writer(t_ctype)
            ticks = [site] + value_ticks + target_ticks
            progress = base + len(ticks)
            def work(st):
                value = value_work(st)  # RHS before the target lvalue
                addr = target_work(st)
                value = co(value)
                st.fuse_progress = progress
                writer(st, addr, value)
                return value
            return work, ticks
        # Compound assignment: read-modify-write, target lvalue first.
        ft = self._fuse_lv(expr.target, base + 1)
        if ft is None:
            return None
        target_work, target_ticks, t_ctype = ft
        fv = self._fuse_expr(expr.value, base + 1 + len(target_ticks))
        if fv is None:
            return None
        rhs_work, rhs_ticks = fv
        reader = _make_reader(t_ctype)
        apply = _make_binary(expr, expr.op[:-1])
        co = _make_coercer(t_ctype)
        writer = _make_writer(t_ctype)
        ticks = [site] + target_ticks + rhs_ticks
        p_read = base + 1 + len(target_ticks)
        progress = base + len(ticks)
        def work(st):
            addr = target_work(st)
            st.fuse_progress = p_read
            current = reader(st, addr)
            rhs = rhs_work(st)
            value = co(apply(current, rhs))
            st.fuse_progress = progress
            writer(st, addr, value)
            return value
        return work, ticks

    def _fx_SanitizerCheck(self, expr, base):
        kind = expr.kind
        site = _site(expr.loc)
        if kind.startswith("asan_access") or kind in ("ubsan_null",
                                                      "ubsan_bounds"):
            return self._fuse_lvalue_read(expr, base)
        if kind in ("ubsan_arith", "ubsan_shift", "ubsan_div"):
            inner = expr.inner
            if not isinstance(inner, ast.BinaryOp):
                f = self._fuse_expr(inner, base + 1)
                if f is None:
                    return None
                inner_work, inner_ticks = f
                return (lambda st: inner_work(st)), [site] + inner_ticks
            fl = self._fuse_expr(inner.lhs, base + 1)
            if fl is None:
                return None
            lhs_work, lhs_ticks = fl
            fr = self._fuse_expr(inner.rhs, base + 1 + len(lhs_ticks))
            if fr is None:
                return None
            rhs_work, rhs_ticks = fr
            apply = _make_binary(inner, inner.op)
            run_check = self._make_check(expr)
            op = inner.op
            inner_ctype = inner.ctype
            ticks = [site] + lhs_ticks + rhs_ticks
            progress = base + len(ticks)
            def work(st):
                lhs = lhs_work(st)
                rhs = rhs_work(st)
                st.fuse_progress = progress
                run_check(st, {"lhs": lhs.value, "rhs": rhs.value, "op": op,
                               "ctype": inner_ctype})
                return apply(lhs, rhs)
            return work, ticks
        if kind == "msan_use":
            f = self._fuse_expr(expr.inner, base + 1)
            if f is None:
                return None
            inner_work, inner_ticks = f
            run_check = self._make_check(expr)
            ticks = [site] + inner_ticks
            progress = base + len(ticks)
            def work(st):
                value = inner_work(st)
                st.fuse_progress = progress
                run_check(st, {"tainted": value.tainted, "value": value.value})
                return value
            return work, ticks
        # Unknown check kinds are transparent.
        f = self._fuse_expr(expr.inner, base + 1)
        if f is None:
            return None
        inner_work, inner_ticks = f
        return (lambda st: inner_work(st)), [site] + inner_ticks

    def _flv_Identifier(self, expr, base):
        symbol = expr.symbol
        if symbol is None:
            return None
        site = _site(expr.loc)
        uid = symbol.uid
        progress = base + 1
        if symbol.is_global:
            name = symbol.name
            def lv_work(st):
                obj = st.globals.get(uid)
                if obj is None:
                    st.fuse_progress = progress
                    raise VMFault(f"global {name!r} has no storage")
                return obj.base
        else:
            def lv_work(st):
                frames = st.frames
                if frames:
                    obj = frames[-1].slots.get(uid)
                    if obj is not None:
                        return obj.base
                st.fuse_progress = progress
                return _local_slot_addr(st, uid, symbol)
        return lv_work, [site], symbol.ctype

    def _flv_Deref(self, expr, base):
        f = self._fuse_expr(expr.pointer, base + 1)
        if f is None:
            return None
        pointer_work, pointer_ticks = f
        ctype = expr.ctype or _pointee_type(expr.pointer) or ct.INT
        def lv_work(st):
            return pointer_work(st).value
        return lv_work, [_site(expr.loc)] + pointer_ticks, ctype

    def _flv_ArraySubscript(self, expr, base):
        base_type = ct.decay(expr.base.ctype) if expr.base.ctype else None
        fb = self._fuse_expr(expr.base, base + 1)
        if fb is None:
            return None
        base_work, base_ticks = fb
        fi = self._fuse_expr(expr.index, base + 1 + len(base_ticks))
        if fi is None:
            return None
        index_work, index_ticks = fi
        if isinstance(base_type, ct.PointerType):
            elem = base_type.pointee
        else:
            elem = expr.ctype or ct.INT
        scale = max(1, elem.sizeof())
        def lv_work(st):
            b = base_work(st)
            i = index_work(st)
            return b.value + i.value * scale
        return lv_work, [_site(expr.loc)] + base_ticks + index_ticks, elem

    def _flv_MemberAccess(self, expr, base):
        if expr.arrow:
            fb = self._fuse_expr(expr.base, base + 1)
            if fb is None:
                return None
            base_work, base_ticks = fb
            struct_type = None
            if expr.base.ctype:
                decayed = ct.decay(expr.base.ctype)
                if decayed.is_pointer:
                    struct_type = decayed.pointee
        else:
            fb = self._fuse_lv(expr.base, base + 1)
            if fb is None:
                return None
            base_work, base_ticks, struct_type = fb
        if not isinstance(struct_type, ct.StructType):
            struct_type = None
        field_type = expr.ctype or ct.INT
        offset = 0
        if isinstance(struct_type, ct.StructType):
            field = struct_type.field_named(expr.field)
            if field is not None:
                offset = field.offset
                field_type = field.ctype
        if expr.arrow:
            def lv_work(st):
                return base_work(st).value + offset
        else:
            def lv_work(st):
                return base_work(st) + offset
        return lv_work, [_site(expr.loc)] + base_ticks, field_type

    def _flv_SanitizerCheck(self, expr, base):
        site = _site(expr.loc)
        f = self._fuse_lv(expr.inner, base + 1)
        if f is None:
            return None
        inner_work, inner_ticks, ctype = f
        size = expr.detail.get("size") or (ctype.sizeof() if ctype else 1)
        is_write = expr.detail.get("is_write", False)
        run_check = self._make_check(expr)
        if expr.kind == "ubsan_bounds" and isinstance(expr.inner,
                                                      ast.ArraySubscript):
            # The bounds check re-evaluates the index (extra ticks).
            fi = self._fuse_expr(expr.inner.index,
                                 base + 1 + len(inner_ticks))
            if fi is None:
                return None
            index_work, index_ticks = fi
            length = expr.detail.get("length")
            ticks = [site] + inner_ticks + index_ticks
            progress = base + len(ticks)
            def lv_work(st):
                addr = inner_work(st)
                index = index_work(st).value
                st.fuse_progress = progress
                run_check(st, {"addr": addr, "size": size,
                               "is_write": is_write, "index": index,
                               "length": length})
                return addr
        else:
            ticks = [site] + inner_ticks
            progress = base + len(ticks)
            def lv_work(st):
                addr = inner_work(st)
                st.fuse_progress = progress
                run_check(st, {"addr": addr, "size": size,
                               "is_write": is_write})
                return addr
        return lv_work, ticks, ctype

    def _flv_Cast(self, expr, base):
        f = self._fuse_lv(expr.operand, base + 1)
        if f is None:
            return None
        inner_work, inner_ticks, ctype = f
        def lv_work(st):
            return inner_work(st)
        return lv_work, [_site(expr.loc)] + inner_ticks, ctype

    def _fuse_decl(self, decl, base):
        """Fused ``compile_decl`` for a single analysed scalar declaration
        with a plain (non-InitList) initializer.  Returns ticks for the
        *initializer only* — the declaration itself does not tick; *base*
        counts the enclosing DeclStmt's statement tick."""
        symbol = decl.symbol
        if symbol is None or decl.init is None \
                or isinstance(decl.init, ast.InitList):
            return None
        f = self._fuse_expr(decl.init, base)
        if f is None:
            return None
        init_work, init_ticks = f
        node_id = decl.node_id
        uid = symbol.uid
        name = decl.name
        sctype = symbol.ctype
        size = sctype.sizeof()
        scope_id = symbol.scope.scope_id
        co = _make_coercer(sctype)
        writer = _make_writer(sctype)
        entry = base
        progress = base + len(init_ticks)
        def work(st):
            st.fuse_progress = entry
            frames = st.frames
            if not frames:
                raise VMFault("no active frame")
            frame = frames[-1]
            memory = st.memory
            obj = frame.decl_slots.get(node_id)
            if obj is not None:
                # Loop re-entry reuses the slot (C's fixed stack layout).
                memory.revive_for_scope(obj)
                st.runtime.on_scope_enter(memory, obj)
            else:
                obj = memory.allocate(size, "stack", name, sctype,
                                      scope_id=scope_id,
                                      frame_id=frame.frame_id)
                st.runtime.on_alloc(memory, obj)
                frame.decl_slots[node_id] = obj
            frame.slots[uid] = obj
            scopes = st.scope_stack
            if scopes:
                scopes[-1].append(obj)
            value = co(init_work(st))
            st.fuse_progress = progress
            writer(st, obj.base, value)
        return work, init_ticks

    # -- builtins ------------------------------------------------------------

    def _make_builtin(self, expr: ast.Call, site):
        name = expr.name
        args = expr.args
        if name in ("printf", "__builtin_printf"):
            if not args:
                def ev(st):
                    _tick(st, site)
                    return _ZERO
                return ev
            fmt_ev = self.compile_expr(args[0])
            rest_evs = [self.compile_expr(a) for a in args[1:]]
            def ev(st):
                _tick(st, site)
                fmt_value = fmt_ev(st)
                fmt = st.strings.get(fmt_value.value, "")
                values = [e(st).value for e in rest_evs]
                text = _format_printf(fmt, values)
                st.stdout.append(text)
                return RuntimeValue(len(text))
            return ev
        if name == "malloc":
            size_ev = self.compile_expr(args[0]) if args else None
            def ev(st):
                _tick(st, site)
                size = size_ev(st).value if size_ev is not None else 0
                obj = st.memory.allocate(max(1, size), "heap", "malloc", None)
                st.runtime.on_alloc(st.memory, obj)
                return RuntimeValue(obj.base)
            return ev
        if name == "calloc":
            count_ev = self.compile_expr(args[0]) if args else None
            size_ev = self.compile_expr(args[1]) if len(args) > 1 else None
            def ev(st):
                _tick(st, site)
                count = count_ev(st).value if count_ev is not None else 0
                size = size_ev(st).value if size_ev is not None else 1
                obj = st.memory.allocate(max(1, count * size), "heap",
                                         "calloc", None, zero_init=True)
                st.runtime.on_alloc(st.memory, obj)
                return RuntimeValue(obj.base)
            return ev
        if name == "free":
            addr_ev = self.compile_expr(args[0]) if args else None
            def ev(st):
                _tick(st, site)
                addr = addr_ev(st).value if addr_ev is not None else 0
                obj = st.memory.free(addr)
                if obj is not None:
                    st.runtime.on_free(st.memory, obj)
                return _ZERO
            return ev
        if name == "memset":
            if len(args) >= 3:
                addr_ev = self.compile_expr(args[0])
                byte_ev = self.compile_expr(args[1])
                count_ev = self.compile_expr(args[2])
                def ev(st):
                    _tick(st, site)
                    addr = addr_ev(st).value
                    byte = byte_ev(st).value & 0xFF
                    count = count_ev(st).value
                    st.memory.write_bytes(addr, bytes([byte]) * max(0, count))
                    return RuntimeValue(addr)
            else:
                def ev(st):
                    _tick(st, site)
                    return _ZERO
            return ev
        if name == "abort":
            def ev(st):
                _tick(st, site)
                raise ExitSignal(134)
            return ev
        if name == "exit":
            code_ev = self.compile_expr(args[0]) if args else None
            def ev(st):
                _tick(st, site)
                code = code_ev(st).value if code_ev is not None else 0
                raise ExitSignal(code)
            return ev
        # Unknown external: evaluate arguments for side effects, notify the
        # call hook (marker liveness rides on this), return 0.
        arg_evs = [self.compile_expr(a) for a in args]
        def ev(st):
            _tick(st, site)
            for e in arg_evs:
                e(st)
            hook = st.call_hook
            if hook is not None:
                hook(name)
            return _ZERO
        return ev


class _FnCompiler:
    """Emits the flat op list of one function body.

    Every op is ``op(st) -> next_pc``.  Branch targets are ``_Label``s whose
    ``pc`` is patched once emission reaches them; ``break``/``continue``/
    ``return`` pop their statically known number of open scopes before
    jumping, which reproduces the interpreter's try/finally unwinding.
    """

    #: Flush the statement-fusion buffer once a merged region reaches this
    #: many ticks: bounds the slow-path window around the trace cap and the
    #: step budget (the whole region falls back when either lands inside it).
    MAX_REGION_TICKS = 64

    def __init__(self, compiler: _Compiler, return_type):
        self.c = compiler
        # ``return`` converts to the declared return type, as if by
        # assignment (C11 6.8.6.4p3).
        self.ret_co = _make_coercer(return_type)
        self.ops: List[Callable] = []
        self.depth = 0          # scopes currently open in this function
        self.loops: List[tuple] = []   # (break_label, continue_label, depth)
        self.end = _Label()     # function epilogue (pc == len(ops))
        # Basic-block fusion buffer: consecutive fusable ExprStmt/DeclStmt
        # merge into ONE op (one guard, one bulk tick accounting for the
        # whole run of statements).  Entries are (work, ticks, slow_body)
        # where slow_body(st) performs the statement's canonical per-tick
        # sequence.  fbuf_ticks is the region's running tick count — the
        # base for the next statement's absolute fuse_progress constants.
        self.fbuf: List[tuple] = []
        self.fbuf_ticks = 0

    def compile_stmt(self, stmt: ast.Stmt) -> None:
        maker = _STMT_MAKERS.get(stmt.__class__)
        if maker is None:
            self.flush()
            site = _site(stmt.loc)
            name = type(stmt).__name__
            def op(st):
                _tick(st, site)
                raise VMFault(f"cannot execute statement {name}")
            self.ops.append(op)
            return
        cls = stmt.__class__
        if cls not in _BUFFER_AWARE_STMTS:
            # Statements outside the set emit ops (and may patch labels)
            # without managing the fusion buffer, so the pending region must
            # land first.  Buffer-aware makers flush (or merge) themselves.
            self.flush()
        maker(self, stmt)

    def flush(self, jump_to: Optional[int] = None,
              jump_label: Optional[_Label] = None) -> None:
        """Emit the pending fused region as one op (no-op when empty).

        The merged op's successor is the following op, or *jump_to* when the
        region absorbs a trailing back-jump (``emit_jump_pc``), or the
        runtime pc of *jump_label* when it absorbs a ``return``/``break``/
        ``continue`` (the label is patched after emission)."""
        buf = self.fbuf
        if not buf:
            return
        self.fbuf = []
        self.fbuf_ticks = 0
        ticks = [t for _, ts, _ in buf for t in ts]
        if jump_label is not None:
            def slow_op(st):
                for _, _, s in buf:
                    s(st)
                return jump_label.pc
            works = tuple(w for w, _, _ in buf if w is not None)
            if len(works) == 1:
                work = works[0]
            else:
                def work(st):
                    for w in works:
                        w(st)
            self.ops.append(_make_fused_label_op(work, ticks, slow_op,
                                                 jump_label,
                                                 self.c._fused_index()))
            return
        nxt = len(self.ops) + 1 if jump_to is None else jump_to
        if len(buf) == 1:
            work = buf[0][0] or _no_work
            slow_body = buf[0][2]
            def slow_op(st):
                slow_body(st)
                return nxt
        else:
            works = tuple(w for w, _, _ in buf if w is not None)
            slows = tuple(s for _, _, s in buf)
            if len(works) == 1:
                work = works[0]
            elif len(works) == 2:
                w0, w1 = works
                def work(st):
                    w0(st)
                    w1(st)
            elif len(works) == 3:
                w0, w1, w2 = works
                def work(st):
                    w0(st)
                    w1(st)
                    w2(st)
            else:
                def work(st):
                    for w in works:
                        w(st)
            def slow_op(st):
                for s in slows:
                    s(st)
                return nxt
        self.ops.append(_make_fused_stmt_op(work, ticks, slow_op, nxt,
                                            self.c._fused_index()))

    def buffer_fused(self, work, ticks, slow_body) -> None:
        self.fbuf.append((work, ticks, slow_body))
        self.fbuf_ticks += len(ticks)

    def emit_jump(self, label: _Label) -> None:
        self.flush()
        def op(st):
            return label.pc
        self.ops.append(op)

    def emit_jump_pc(self, pc: int) -> None:
        if self.fbuf:
            self.flush(jump_to=pc)   # the region absorbs the back-jump
            return
        def op(st):
            return pc
        self.ops.append(op)

    # -- statement makers ----------------------------------------------------

    def _st_CompoundStmt(self, stmt):
        site = _site(stmt.loc)
        if self.fbuf_ticks >= self.MAX_REGION_TICKS:
            self.flush()
        def enter_work(st):
            st.scope_stack.append([])
        def enter_slow(st):
            _tick(st, site)
            st.scope_stack.append([])
        self.buffer_fused(enter_work, [site], enter_slow)
        self.depth += 1
        for inner in stmt.stmts:
            self.compile_stmt(inner)
        if self.fbuf:
            # The scope exit rides along in the pending region (zero ticks).
            self.buffer_fused(_exit_scope, [], _exit_scope)
        else:
            nxt2 = len(self.ops) + 1
            def leave(st):
                _exit_scope(st)
                return nxt2
            self.ops.append(leave)
        self.depth -= 1

    def _st_DeclStmt(self, stmt):
        site = _site(stmt.loc)
        decl_fns = [self.c.compile_decl(d) for d in stmt.decls]
        if len(decl_fns) == 1:
            decl_fn = decl_fns[0]
            if self.fbuf_ticks >= self.MAX_REGION_TICKS:
                self.flush()
            fused = self.c._fuse_decl(stmt.decls[0], self.fbuf_ticks + 1)
            if fused is not None:
                work, init_ticks = fused
                def slow_body(st):
                    _tick(st, site)
                    decl_fn(st)
                self.buffer_fused(work, [site] + init_ticks, slow_body)
                return
            self.flush()
            nxt = len(self.ops) + 1
            def op(st):
                steps = st.steps + 1           # inlined _tick
                st.steps = steps
                if steps > st.max_steps:
                    raise ExecutionTimeout(st.max_steps)
                if site is not None:
                    st.last_site = site
                    st.executed_sites.add(site)
                    trace = st.site_trace
                    if len(trace) < st.max_trace_len:
                        trace.append(site)
                    else:
                        st.trace_truncated = True
                    cb = st.site_callback
                    if cb is not None:
                        cb(site)
                decl_fn(st)
                return nxt
        else:
            self.flush()
            nxt = len(self.ops) + 1
            def op(st):
                _tick(st, site)
                for fn in decl_fns:
                    fn(st)
                return nxt
        self.ops.append(op)

    def _st_ExprStmt(self, stmt):
        site = _site(stmt.loc)
        if self.fbuf_ticks >= self.MAX_REGION_TICKS:
            self.flush()
        fused = self.c._fuse_expr(stmt.expr, self.fbuf_ticks + 1)
        ev = self.c.compile_expr(stmt.expr)
        if fused is not None:
            work, ticks = fused
            def slow_body(st):
                _tick(st, site)
                ev(st)
            self.buffer_fused(work, [site] + ticks, slow_body)
            return
        self.flush()
        nxt = len(self.ops) + 1
        def op(st):
            steps = st.steps + 1               # inlined _tick
            st.steps = steps
            if steps > st.max_steps:
                raise ExecutionTimeout(st.max_steps)
            if site is not None:
                st.last_site = site
                st.executed_sites.add(site)
                trace = st.site_trace
                if len(trace) < st.max_trace_len:
                    trace.append(site)
                else:
                    st.trace_truncated = True
                cb = st.site_callback
                if cb is not None:
                    cb(site)
            ev(st)
            return nxt
        self.ops.append(op)

    def _st_IfStmt(self, stmt):
        site = _site(stmt.loc)
        cond_ev = self.c.compile_expr(stmt.cond)
        els = _Label()
        nxt = len(self.ops) + 1
        def branch(st):
            steps = st.steps + 1               # inlined _tick
            st.steps = steps
            if steps > st.max_steps:
                raise ExecutionTimeout(st.max_steps)
            if site is not None:
                st.last_site = site
                st.executed_sites.add(site)
                trace = st.site_trace
                if len(trace) < st.max_trace_len:
                    trace.append(site)
                else:
                    st.trace_truncated = True
                cb = st.site_callback
                if cb is not None:
                    cb(site)
            if cond_ev(st).value != 0:
                return nxt
            return els.pc
        fused = self.c._fuse_expr(stmt.cond, 1)
        if fused is not None:
            work, ticks = fused
            branch = _make_fused_branch_op(work, [site] + ticks, branch,
                                           nxt, els, self.c._fused_index())
        self.ops.append(branch)
        self.compile_stmt(stmt.then)
        if stmt.otherwise is not None:
            end = _Label()
            self.emit_jump(end)
            els.pc = len(self.ops)
            self.compile_stmt(stmt.otherwise)
            self.flush()
            end.pc = len(self.ops)
        else:
            self.flush()
            els.pc = len(self.ops)

    def _st_WhileStmt(self, stmt):
        site = _site(stmt.loc)
        cond_ev = self.c.compile_expr(stmt.cond)
        def entry_slow(st):     # the _exec_stmt tick for the while itself
            _tick(st, site)
        self.buffer_fused(None, [site], entry_slow)
        self.flush()            # the loop head label must land next
        top = len(self.ops)
        brk = _Label()
        cont = _Label()
        cont.pc = top
        nxt2 = len(self.ops) + 1
        def head(st):           # per-iteration tick + condition, tick inlined
            steps = st.steps + 1
            st.steps = steps
            if steps > st.max_steps:
                raise ExecutionTimeout(st.max_steps)
            if site is not None:
                st.last_site = site
                st.executed_sites.add(site)
                trace = st.site_trace
                if len(trace) < st.max_trace_len:
                    trace.append(site)
                else:
                    st.trace_truncated = True
                cb = st.site_callback
                if cb is not None:
                    cb(site)
            if cond_ev(st).value != 0:
                return nxt2
            return brk.pc
        fused = self.c._fuse_expr(stmt.cond, 1)
        if fused is not None:
            work, ticks = fused
            head = _make_fused_branch_op(work, [site] + ticks, head,
                                         nxt2, brk, self.c._fused_index())
        self.ops.append(head)
        self.loops.append((brk, cont, self.depth))
        self.compile_stmt(stmt.body)
        self.emit_jump_pc(top)
        self.loops.pop()
        brk.pc = len(self.ops)

    def _st_ForStmt(self, stmt):
        site = _site(stmt.loc)
        if self.fbuf_ticks >= self.MAX_REGION_TICKS:
            self.flush()
        def enter_work(st):     # the for-init scope
            st.scope_stack.append([])
        def enter_slow(st):     # stmt tick + the for-init scope
            _tick(st, site)
            st.scope_stack.append([])
        self.buffer_fused(enter_work, [site], enter_slow)
        self.depth += 1
        init = stmt.init
        if isinstance(init, ast.Stmt):
            self.compile_stmt(init)
        elif isinstance(init, ast.Expr):
            init_ev = self.c.compile_expr(init)
            fused = self.c._fuse_expr(init, self.fbuf_ticks)
            if fused is not None:
                # Expression init: no statement tick; rides the region.
                work, ticks = fused
                self.buffer_fused(work, ticks, init_ev)
            else:
                self.flush()
                nxt2 = len(self.ops) + 1
                def init_op(st):
                    init_ev(st)
                    return nxt2
                self.ops.append(init_op)
        self.flush()
        cond_ev = self.c.compile_expr(stmt.cond) if stmt.cond is not None else None
        top = len(self.ops)
        brk = _Label()
        cont = _Label()
        nxt3 = len(self.ops) + 1
        if cond_ev is not None:
            def head(st):       # per-iteration tick + condition, tick inlined
                steps = st.steps + 1
                st.steps = steps
                if steps > st.max_steps:
                    raise ExecutionTimeout(st.max_steps)
                if site is not None:
                    st.last_site = site
                    st.executed_sites.add(site)
                    trace = st.site_trace
                    if len(trace) < st.max_trace_len:
                        trace.append(site)
                    else:
                        st.trace_truncated = True
                    cb = st.site_callback
                    if cb is not None:
                        cb(site)
                if cond_ev(st).value != 0:
                    return nxt3
                return brk.pc
            fused = self.c._fuse_expr(stmt.cond, 1)
            if fused is not None:
                work, ticks = fused
                head = _make_fused_branch_op(work, [site] + ticks, head,
                                             nxt3, brk,
                                             self.c._fused_index())
        else:
            def head(st):
                _tick(st, site)
                return nxt3
        self.ops.append(head)
        self.loops.append((brk, cont, self.depth))
        self.compile_stmt(stmt.body)
        self.flush()
        cont.pc = len(self.ops)
        if stmt.step is not None:
            step_ev = self.c.compile_expr(stmt.step)
            fused = self.c._fuse_expr(stmt.step, 0)
            if fused is not None:
                # Buffer the step so the back-jump is absorbed into it.
                work, ticks = fused
                self.buffer_fused(work, ticks, step_ev)
            else:
                nxt4 = len(self.ops) + 1
                def step_op(st):
                    step_ev(st)
                    return nxt4
                self.ops.append(step_op)
        self.emit_jump_pc(top)
        self.loops.pop()
        brk.pc = len(self.ops)
        # break and the cond-false exit both land on the pending region,
        # which starts with the for-init scope exit (zero ticks).
        self.buffer_fused(_exit_scope, [], _exit_scope)
        self.depth -= 1

    def _st_ReturnStmt(self, stmt):
        site = _site(stmt.loc)
        k = self.depth
        end = self.end
        if stmt.value is not None:
            ret_co = self.ret_co
            ev = self.c.compile_expr(stmt.value)
            if self.fbuf_ticks >= self.MAX_REGION_TICKS:
                self.flush()
            fused = self.c._fuse_expr(stmt.value, self.fbuf_ticks + 1)
            if fused is not None:
                vwork, ticks = fused
                def work(st):
                    value = ret_co(vwork(st))
                    for _ in range(k):
                        _exit_scope(st)
                    st.retval = value
                def slow_body(st):
                    _tick(st, site)
                    value = ret_co(ev(st))
                    for _ in range(k):
                        _exit_scope(st)
                    st.retval = value
                self.buffer_fused(work, [site] + ticks, slow_body)
                self.flush(jump_label=end)
                return
            self.flush()
            def op(st):
                _tick(st, site)
                value = ret_co(ev(st))
                for _ in range(k):
                    _exit_scope(st)
                st.retval = value
                return end.pc
        else:
            def work(st):
                for _ in range(k):
                    _exit_scope(st)
                st.retval = None
            def slow_body(st):
                _tick(st, site)
                for _ in range(k):
                    _exit_scope(st)
                st.retval = None
            self.buffer_fused(work, [site], slow_body)
            self.flush(jump_label=end)
            return
        self.ops.append(op)

    def _st_BreakStmt(self, stmt):
        site = _site(stmt.loc)
        if not self.loops:
            # Outside any loop: the interpreter lets the signal escape.
            self.flush()
            def op(st):
                _tick(st, site)
                raise BreakSignal()
            self.ops.append(op)
            return
        brk, _cont, loop_depth = self.loops[-1]
        self._buffer_scoped_jump(site, self.depth - loop_depth, brk)

    def _st_ContinueStmt(self, stmt):
        site = _site(stmt.loc)
        if not self.loops:
            self.flush()
            def op(st):
                _tick(st, site)
                raise ContinueSignal()
            self.ops.append(op)
            return
        _brk, cont, loop_depth = self.loops[-1]
        self._buffer_scoped_jump(site, self.depth - loop_depth, cont)

    def _buffer_scoped_jump(self, site, k: int, label: _Label) -> None:
        """break/continue: tick, pop *k* scopes, jump — as a region tail."""
        if k:
            def work(st):
                for _ in range(k):
                    _exit_scope(st)
            def slow_body(st):
                _tick(st, site)
                for _ in range(k):
                    _exit_scope(st)
        else:
            work = None
            def slow_body(st):
                _tick(st, site)
        self.buffer_fused(work, [site], slow_body)
        self.flush(jump_label=label)

    def _st_EmptyStmt(self, stmt):
        site = _site(stmt.loc)
        nxt = len(self.ops) + 1
        def op(st):
            _tick(st, site)
            return nxt
        self.ops.append(op)


_EXPR_MAKERS: Dict[type, Callable] = {
    getattr(ast, name[len("_expr_"):]): fn
    for name, fn in vars(_Compiler).items()
    if name.startswith("_expr_") and hasattr(ast, name[len("_expr_"):])
}

_LV_MAKERS: Dict[type, Callable] = {
    getattr(ast, name[len("_lv_"):]): fn
    for name, fn in vars(_Compiler).items()
    if name.startswith("_lv_") and hasattr(ast, name[len("_lv_"):])
}

_FX_MAKERS: Dict[type, Callable] = {
    getattr(ast, name[len("_fx_"):]): fn
    for name, fn in vars(_Compiler).items()
    if name.startswith("_fx_") and hasattr(ast, name[len("_fx_"):])
}

_FLV_MAKERS: Dict[type, Callable] = {
    getattr(ast, name[len("_flv_"):]): fn
    for name, fn in vars(_Compiler).items()
    if name.startswith("_flv_") and hasattr(ast, name[len("_flv_"):])
}

_STMT_MAKERS: Dict[type, Callable] = {
    getattr(ast, name[len("_st_"):]): fn
    for name, fn in vars(_FnCompiler).items()
    if name.startswith("_st_") and hasattr(ast, name[len("_st_"):])
}

#: Statement makers that manage the fusion buffer themselves — they may
#: merge into a pending region (or flush it at the right label boundary).
#: ``compile_stmt`` flushes before every other statement class.
_BUFFER_AWARE_STMTS = frozenset(
    cls for cls in (
        getattr(ast, name, None)
        for name in ("ExprStmt", "DeclStmt", "CompoundStmt", "WhileStmt",
                     "ForStmt", "ReturnStmt", "BreakStmt", "ContinueStmt")
    ) if cls is not None
)


# ---------------------------------------------------------------------------
# compiled program
# ---------------------------------------------------------------------------


def _finish(st: _State, status: str, exit_code=None, report=None,
            crash_site=None, error=None) -> ExecutionResult:
    # One telemetry touch per run, never per tick (same as Interpreter).
    registry = telemetry.metrics()
    if registry is not None:
        registry.inc("vm.runs")
        registry.inc("vm.steps", st.steps)
    return ExecutionResult(
        status=status, exit_code=exit_code, report=report,
        crash_site=crash_site,
        executed_sites=frozenset(st.executed_sites),
        site_trace=tuple(st.site_trace),
        trace_truncated=st.trace_truncated,
        stdout="".join(st.stdout), steps=st.steps, error=error)


class CompiledProgram:
    """An executable closure-bytecode program.

    Immutable after compilation: each :meth:`run` builds fresh run state, so
    one instance can be cached and shared across clones of the same unit
    (results are process-history independent — addresses come from per-run
    bump allocation, never from Python object identity).
    """

    __slots__ = ("unit", "sema", "_global_setup", "_main", "_n_fused")

    def __init__(self, unit, sema, global_setup, main_code, n_fused=0):
        self.unit = unit
        self.sema = sema
        self._global_setup = global_setup
        self._main = main_code
        self._n_fused = n_fused

    def run(self, runtime: Optional[SanitizerRuntime] = None,
            max_steps: int = DEFAULT_MAX_STEPS,
            profile_collector=None,
            site_callback: Optional[Callable[[tuple[int, int]], None]] = None,
            max_trace_len: int = _MAX_TRACE_LEN,
            call_hook: Optional[Callable[[str], None]] = None) -> ExecutionResult:
        """Execute the program; mirrors ``Interpreter.run`` bit for bit."""
        st = _State(runtime or NullRuntime(), max_steps, profile_collector,
                    site_callback, max_trace_len, call_hook, self._n_fused)
        try:
            self._global_setup(st)
            if self._main is None:
                raise VMFault("program has no main function")
            value = _call(st, self._main, [])
            return _finish(st, "ok", exit_code=value.value & 0xFFFFFFFF)
        except SanitizerAbort as abort:
            site = abort.report.location.site() \
                if abort.report.location.is_known else st.last_site
            return _finish(st, "sanitizer_report", report=abort.report,
                           crash_site=site)
        except ExitSignal as sig:
            return _finish(st, "ok", exit_code=sig.code)
        except ExecutionTimeout:
            return _finish(st, "timeout")
        except (VMFault, RecursionError) as fault:
            return _finish(st, "vm_error", error=str(fault))


class _InterpreterFallback:
    """Degenerate CompiledProgram: delegates to the AST interpreter.

    Used when closure compilation itself overflows the Python stack
    (pathologically nested expressions); results are identical by
    construction, just not faster.
    """

    __slots__ = ("unit", "sema")

    def __init__(self, unit, sema):
        self.unit = unit
        self.sema = sema

    def run(self, runtime=None, max_steps=DEFAULT_MAX_STEPS,
            profile_collector=None, site_callback=None,
            max_trace_len=_MAX_TRACE_LEN, call_hook=None) -> ExecutionResult:
        interp = Interpreter(self.unit, self.sema, runtime=runtime,
                             max_steps=max_steps,
                             profile_collector=profile_collector,
                             site_callback=site_callback,
                             max_trace_len=max_trace_len,
                             call_hook=call_hook)
        return interp.run()


def compile_program(unit: ast.TranslationUnit, sema: SemanticInfo) -> CompiledProgram:
    """Compile *unit* to closure bytecode (one-time cost, reusable runs)."""
    try:
        return _Compiler(unit, sema).compile()
    except RecursionError:
        return _InterpreterFallback(unit, sema)


def run_compiled(unit: ast.TranslationUnit, sema: SemanticInfo,
                 runtime: Optional[SanitizerRuntime] = None,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 profile_collector=None,
                 call_hook: Optional[Callable[[str], None]] = None
                 ) -> ExecutionResult:
    """Convenience wrapper mirroring ``run_program``: compile then run."""
    return compile_program(unit, sema).run(
        runtime=runtime, max_steps=max_steps,
        profile_collector=profile_collector, call_hook=call_hook)
