"""The output of a simulated compilation: a runnable "binary".

A :class:`CompiledBinary` bundles the optimized + instrumented AST, its
semantic information, the sanitizer runtime configuration and the debug
metadata (source line/offset information is carried on the AST nodes, which
is what ``-g`` provides in the real toolchain).  Calling :meth:`run`
executes it on the VM and returns an
:class:`~repro.vm.errors.ExecutionResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cdsl import ast_nodes as ast
from repro.cdsl.sema import SemanticInfo
from repro.compilers.options import CompileOptions
from repro.vm.compile import compile_program
from repro.vm.errors import ExecutionResult
from repro.vm.interpreter import DEFAULT_MAX_STEPS, Interpreter
from repro.vm.tier import TierLedger, node_count, run_tiered


@dataclass
class CompiledBinary:
    """A compiled program plus everything needed to execute it.

    Produced by ``SimulatedCompiler.compile``; ``run(max_steps=...)``
    executes the instrumented AST on the VM and returns an
    :class:`~repro.vm.errors.ExecutionResult` (exit code or sanitizer
    report plus execution trace).
    """

    unit: ast.TranslationUnit
    sema: SemanticInfo
    compiler: str
    version: int
    options: CompileOptions
    sanitizer_pass: Optional[object] = None       # SanitizerPass instance
    sanitizer_context: Optional[object] = None    # InstrumentationContext
    source: str = ""
    passes_run: tuple = ()
    metadata: dict = field(default_factory=dict)
    #: Closure-cache attachment (set by the compiler driver when the compile
    #: went through a :class:`~repro.compilers.cache.CompilationCache`):
    #: ``closure_key`` identifies this binary's instrumented-unit content, so
    #: sibling binaries of the same configuration share one compiled program.
    cache: Optional[object] = field(default=None, repr=False, compare=False)
    closure_key: Optional[tuple] = field(default=None, repr=False,
                                         compare=False)
    _program: Optional[object] = field(default=None, repr=False, compare=False)
    #: Private tier ledger of a binary compiled without a cache.
    _tiers: Optional[TierLedger] = field(default=None, repr=False,
                                         compare=False)

    @property
    def label(self) -> str:
        sanitizer = self.options.sanitizer or "nosan"
        return (f"{self.compiler}-{self.version} {self.options.opt_level} "
                f"{sanitizer}")

    def build_runtime(self):
        """Create a fresh sanitizer runtime for one execution."""
        if self.sanitizer_pass is None or self.sanitizer_context is None:
            return None
        return self.sanitizer_pass.build_runtime(self.sanitizer_context)

    def compiled_program(self):
        """The closure-compiled form of this binary (see
        :mod:`repro.vm.compile`), memoized per binary and — when the compile
        went through a :class:`~repro.compilers.cache.CompilationCache` —
        shared across every binary of the same configuration via the cache's
        closure layer.  Compiled programs hold no mutable run state, so
        sharing is safe."""
        program = self._program
        if program is None:
            if self.cache is not None and self.closure_key is not None:
                program = self.cache.closure(
                    self.closure_key,
                    lambda: compile_program(self.unit, self.sema))
            else:
                program = compile_program(self.unit, self.sema)
            self._program = program
        return program

    def run(self, max_steps: int = DEFAULT_MAX_STEPS,
            profile_collector=None, call_hook=None,
            vm: str = "compiled") -> ExecutionResult:
        """Execute the binary on the VM and return the result.

        ``call_hook`` (if given) receives the name of every stubbed external
        call the execution reaches — the marker oracle's liveness probe.
        ``vm`` selects the executor: ``"compiled"`` (the default) is the
        tiered policy of :mod:`repro.vm.tier` — the AST interpreter runs the
        binary until its closure key has paid for a compile, the
        closure-compiled program from then on — and ``"interp"`` is the
        AST-walking reference interpreter alone.  Both produce bit-identical
        results (the dual-executor property suite pins this).
        """
        def interpret():
            return Interpreter(self.unit, self.sema,
                               runtime=self.build_runtime(),
                               max_steps=max_steps,
                               profile_collector=profile_collector,
                               call_hook=call_hook).run()
        if vm != "compiled":
            return interpret()
        if self.cache is not None and self.closure_key is not None:
            ledger, key = self.cache.tiers, self.closure_key
        else:
            if self._tiers is None:
                self._tiers = TierLedger(1)
            ledger, key = self._tiers, None
        return run_tiered(
            ledger, key, interpret=interpret,
            compiled=lambda: self.compiled_program().run(
                runtime=self.build_runtime(), max_steps=max_steps,
                profile_collector=profile_collector, call_hook=call_hook),
            nodes=lambda: node_count(self.unit))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledBinary {self.label}>"
