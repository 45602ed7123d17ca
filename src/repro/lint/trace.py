"""Symbolic API-trace extraction from kernel source.

Kernels are plain Python generator functions whose only observable
behaviour (for protocol purposes) is the sequence of ``yield from
ctx.<api>(...)`` calls they make.  :func:`extract_trace` parses a
kernel with :mod:`ast` (via ``inspect.getsource``) and abstractly
interprets it into a tree of trace nodes:

* :class:`Call` — one ctx API call with symbolically-evaluated operands
* :class:`Loop` — a loop whose trip count is not statically known
  (loops over literal or constant tuples and small constant ``range()``s
  are unrolled instead, so per-iteration CB balance is checked exactly)
* :class:`Branch` — an ``if``/``try``; every arm is traced, none is
  pruned, so both sides of a runtime config flag are verified.  Only an
  ``if`` whose test is a constant (a literal, closure or global — the
  analogue of a compile-time kernel argument) traces just its taken arm
* :class:`Opaque` — a yield the analysis cannot see through

Operands are symbolic values: :class:`Const` for literals and values
reachable from closures/globals, :class:`CbPtr` for
``ctx.cb_read_ptr/cb_write_ptr`` results, :class:`ArgVal` for
``ctx.arg(name)``, :class:`NocAddrVal` for ``ctx.get_noc_addr`` /
``NocAddr`` results, :class:`ObjVal` for arbitrary host objects (e.g.
buffers captured in a closure) and the :data:`UNKNOWN` bottom.

Helper generators invoked with ``yield from`` — both nested ``def``s
and module-level helpers such as the streaming kernels' burst
routines — are inlined with their parameters bound, so the trace sees
through one level of abstraction the shipped kernels actually use.

Everything here is best-effort and fail-open: any construct the
interpreter does not model degrades to :data:`UNKNOWN` / an
:class:`Opaque` node, and rules are written to stay silent on unknowns.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "UNKNOWN", "CTX", "Const", "CbPtr", "ArgVal", "NocAddrVal", "ObjVal",
    "Call", "Opaque", "Loop", "Branch", "ArgRef", "KernelTrace",
    "extract_trace", "iter_calls", "const_value", "const_int", "same_value",
]

_MAX_UNROLL = 64          # max iterations for constant-range unrolling
_MAX_INLINE_DEPTH = 8     # max nesting of yield-from helper inlining
_NODE_BUDGET = 60_000     # hard cap on trace nodes per kernel


# --------------------------------------------------------------------------
# symbolic values
# --------------------------------------------------------------------------

class _Unknown:
    """Bottom value: statically unknowable."""

    __slots__ = ()

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = _Unknown()


class _Ctx:
    """Sentinel for the kernel's ``ctx`` parameter."""

    __slots__ = ()

    def __repr__(self):
        return "CTX"


CTX = _Ctx()


@dataclass(frozen=True)
class Const:
    """A statically-known literal (int/float/str/bool/bytes/None/tuple)."""

    value: object


@dataclass(frozen=True)
class CbPtr:
    """Result of ``ctx.cb_read_ptr`` / ``ctx.cb_write_ptr``."""

    cb: Optional[int]     #: CB id, or None when the id itself is unknown
    kind: str             #: "read" or "write"


@dataclass(frozen=True)
class ArgVal:
    """Result of ``ctx.arg(name)`` — resolved per-spec by program rules."""

    name: str


@dataclass(frozen=True)
class NocAddrVal:
    """A NoC address; ``addr`` is the symbolic DRAM byte address.

    ``bank`` is the symbolic DRAM bank id when statically known (e.g. a
    wrapped :class:`NocAddr` constant or an explicit ``NocAddr(bank, addr)``
    construction) and None otherwise.  An unknown bank keeps the address
    incomparable across banks, which is the fail-open direction for the
    cross-core race rules.
    """

    addr: object          #: SymVal
    bank: object = None   #: SymVal bank id, or None when unknown


@dataclass(eq=False, frozen=True)
class ObjVal:
    """A live host object reachable from a closure or module global."""

    obj: object


@dataclass(eq=False)
class _LocalFn:
    """A nested ``def`` helper, inlined at its yield-from call sites."""

    node: ast.FunctionDef
    scope: "_Scope"       #: defining scope (late-bound, like a closure)


_SIMPLE_CONST = (bool, int, float, str, bytes, type(None))


def _wrap(value):
    """Wrap a live Python value as a symbolic value."""
    if isinstance(value, _SIMPLE_CONST):
        return Const(value)
    try:
        from repro.ttmetal.kernel_api import NocAddr
        if isinstance(value, NocAddr):     # NamedTuple: test before tuple
            return NocAddrVal(Const(int(value.addr)),
                              Const(int(value.bank_id)))
    except Exception:           # pragma: no cover - defensive
        pass
    if isinstance(value, tuple):
        elems = [_wrap(v) for v in value]
        if all(isinstance(e, Const) for e in elems):
            return Const(tuple(e.value for e in elems))
        return UNKNOWN
    return ObjVal(value)


def same_value(a, b) -> bool:
    """Structural equality that is safe for arbitrary wrapped objects."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        try:
            return bool(a.value == b.value)
        except Exception:       # pragma: no cover - exotic __eq__
            return False
    if isinstance(a, ObjVal):
        return a.obj is b.obj
    if isinstance(a, NocAddrVal):
        if a.bank is None or b.bank is None:
            return same_value(a.addr, b.addr)
        return same_value(a.addr, b.addr) and same_value(a.bank, b.bank)
    if isinstance(a, (CbPtr, ArgVal)):
        return a == b
    return False


def const_value(v):
    """The concrete value of a :class:`Const`, else None."""
    return v.value if isinstance(v, Const) else None


def const_int(v) -> Optional[int]:
    """The concrete int of a :class:`Const` int (bools excluded)."""
    if isinstance(v, Const) and isinstance(v.value, int) \
            and not isinstance(v.value, bool):
        return v.value
    return None


# --------------------------------------------------------------------------
# kernel-API operand binding
# --------------------------------------------------------------------------

_POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY,
               inspect.Parameter.POSITIONAL_OR_KEYWORD)


@functools.lru_cache(maxsize=None)
def _api_params() -> Dict[str, Tuple[Tuple[str, ...], Dict[str, Const]]]:
    """``name -> (positional parameter names, constant defaults)`` of
    every public method of the kernel contexts.

    These signatures are the only record of operand layout the rules
    rely on.  Imported on first use: :mod:`repro.ttmetal` imports this
    package.
    """
    from repro.ttmetal.kernel_api import ComputeCtx, DataMoverCtx

    table = {}
    for cls in (DataMoverCtx, ComputeCtx):
        for name, fn in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            params = list(inspect.signature(fn).parameters.values())[1:]
            table[name] = (
                tuple(p.name for p in params if p.kind in _POSITIONAL),
                {p.name: Const(p.default) for p in params
                 if isinstance(p.default, _SIMPLE_CONST)})
    return table


def _bind(name: str, args, kwargs, star: bool) -> Dict[str, object]:
    """Bind one ``ctx.<name>(...)`` call's operands to parameter names.

    Constant defaults (``n=1``, ``sync=False``) fill what the call
    leaves out.  Under ``*args``/``**kwargs`` only the explicit keywords
    bind: a splat could supply any positional or defaulted parameter.
    """
    params = _api_params().get(name)
    if params is None or star:
        return dict(kwargs)
    positional, defaults = params
    operands = dict(defaults)
    operands.update(zip(positional, args))
    operands.update(kwargs)
    return operands


# --------------------------------------------------------------------------
# trace nodes
# --------------------------------------------------------------------------

@dataclass
class Call:
    """One ``yield from ctx.<name>(...)`` API call."""

    name: str
    operands: Dict[str, object]   #: kernel-API parameter name -> value
    lineno: int
    filename: str
    star: bool = False    #: call used *args/**kwargs; keywords bind only

    def operand(self, name: str):
        """The operand bound to parameter ``name``; None when absent."""
        return self.operands.get(name)


@dataclass
class Opaque:
    """A yield point the analysis cannot interpret."""

    lineno: int


@dataclass
class Loop:
    """A loop with statically-unknown trip count (body traced once)."""

    body: List[object]
    lineno: int


@dataclass
class Branch:
    """An ``if``/``try``: one traced arm per control path."""

    arms: List[List[object]]
    lineno: int


@dataclass(frozen=True)
class ArgRef:
    """One ``ctx.arg(...)`` site."""

    name: Optional[str]   #: None when the arg name is not a literal
    required: bool        #: True when no default was supplied
    lineno: int


@dataclass
class KernelTrace:
    """The extracted trace of one kernel function."""

    fn_name: str
    filename: str
    nodes: List[object] = field(default_factory=list)
    arg_refs: List[ArgRef] = field(default_factory=list)
    unavailable: bool = False   #: source could not be parsed at all
    truncated: bool = False     #: node budget hit; trace is a prefix


def iter_calls(nodes):
    """Yield every :class:`Call` in a node tree, depth-first."""
    for node in nodes:
        if isinstance(node, Call):
            yield node
        elif isinstance(node, Loop):
            yield from iter_calls(node.body)
        elif isinstance(node, Branch):
            for arm in node.arms:
                yield from iter_calls(arm)


def iter_calls_guarded(nodes, _guarded: bool = False):
    """Yield ``(call, guarded)`` pairs, depth-first.

    ``guarded`` is True when the call sits inside at least one
    :class:`Branch` arm — it may never execute at runtime (a feature
    guarded by a runtime-arg flag, say), so must-style rules such as
    P207 only act on unguarded calls.  Loops do not guard: an
    untraceable loop could still run zero times, but CB references in
    shipped kernels' loops are unconditional in practice and skipping
    them would blind the rule entirely.
    """
    for node in nodes:
        if isinstance(node, Call):
            yield node, _guarded
        elif isinstance(node, Loop):
            yield from iter_calls_guarded(node.body, _guarded)
        elif isinstance(node, Branch):
            for arm in node.arms:
                yield from iter_calls_guarded(arm, True)


# --------------------------------------------------------------------------
# scopes
# --------------------------------------------------------------------------

class _Scope:
    """Variable environment: locals over an (optional) enclosing scope
    over a closure map over globals."""

    def __init__(self, globals_dict, closure: Dict[str, object],
                 parent: "_Scope" = None):
        self.vars: Dict[str, object] = {}
        self.closure = closure
        self.globals = globals_dict or {}
        self.parent = parent

    def get(self, name: str):
        if name in self.vars:
            return self.vars[name]
        if self.parent is not None:
            return self.parent.get(name)
        if name in self.closure:
            return self.closure[name]
        if name in self.globals:
            return _wrap(self.globals[name])
        builtins = self.globals.get("__builtins__", None)
        if isinstance(builtins, dict):
            if name in builtins:
                return ObjVal(builtins[name])
        elif builtins is not None and hasattr(builtins, name):
            return ObjVal(getattr(builtins, name))
        return UNKNOWN

    def set(self, name: str, value):
        self.vars[name] = value


class _Budget(Exception):
    """Raised internally when the node budget is exhausted."""


# --------------------------------------------------------------------------
# the extractor
# --------------------------------------------------------------------------

def _fn_ast(fn) -> Tuple[ast.FunctionDef, int, str]:
    """Parse ``fn`` into (FunctionDef node, lineno offset, filename)."""
    source = textwrap.dedent(inspect.getsource(fn))
    module = ast.parse(source)
    node = module.body[0]
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise TypeError(f"not a function: {fn!r}")
    offset = fn.__code__.co_firstlineno - node.lineno
    filename = fn.__code__.co_filename
    return node, offset, filename


class _Extractor:
    def __init__(self, fn):
        self.fn = fn
        self.trace = KernelTrace(fn_name=getattr(fn, "__name__", "<kernel>"),
                                 filename="<unknown>")
        self.node_count = 0
        self.inline_stack: List[object] = []   # cycle guard (fn identities)
        self._ast_cache: Dict[object, Tuple] = {}

    # -- entry ------------------------------------------------------------

    def run(self) -> KernelTrace:
        try:
            node, offset, filename = _fn_ast(self.fn)
        except Exception:
            self.trace.unavailable = True
            return self.trace
        self.trace.filename = filename
        scope = _Scope(getattr(self.fn, "__globals__", {}),
                       self._closure_map(self.fn))
        params = node.args.posonlyargs + node.args.args
        if params:                      # first param is the kernel ctx
            scope.set(params[0].arg, CTX)
            for p in params[1:]:
                scope.set(p.arg, UNKNOWN)
        frame = _Frame(scope, offset, filename)
        try:
            self.trace.nodes = self._block(node.body, frame)
        except _Budget:
            self.trace.truncated = True
        except Exception:               # fail open: never break the host
            self.trace.unavailable = True
            self.trace.nodes = []
        return self.trace

    @staticmethod
    def _closure_map(fn) -> Dict[str, object]:
        names = fn.__code__.co_freevars
        cells = fn.__closure__ or ()
        out: Dict[str, object] = {}
        for name, cell in zip(names, cells):
            try:
                out[name] = _wrap(cell.cell_contents)
            except ValueError:          # empty cell
                out[name] = UNKNOWN
        return out

    def _tick(self):
        self.node_count += 1
        if self.node_count > _NODE_BUDGET:
            raise _Budget()

    # -- statements -------------------------------------------------------

    def _block(self, stmts, frame) -> List[object]:
        """Trace a statement list; stops at return/break/continue/raise."""
        nodes: List[object] = []
        for stmt in stmts:
            terminated = self._stmt(stmt, frame, nodes)
            if terminated:
                break
        return nodes

    def _stmt(self, stmt, frame, nodes) -> bool:
        self._tick()
        if isinstance(stmt, ast.Expr):
            self._expr_stmt(stmt.value, frame, nodes)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(stmt, frame, nodes)
        elif isinstance(stmt, ast.For):
            self._for(stmt, frame, nodes)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, frame)
            self._opaque_loop(stmt.body, frame, nodes, stmt.lineno)
        elif isinstance(stmt, ast.If):
            test = self._eval(stmt.test, frame)
            if isinstance(test, Const):
                arm = stmt.body if test.value else stmt.orelse
                return any(self._stmt(s, frame, nodes) for s in arm)
            self._branch([stmt.body, stmt.orelse or []], frame, nodes,
                         stmt.lineno)
        elif isinstance(stmt, ast.Try):
            arms = [stmt.body] + [h.body for h in stmt.handlers]
            self._branch(arms, frame, nodes, stmt.lineno)
            if stmt.finalbody:
                nodes.extend(self._block(stmt.finalbody, frame))
        elif isinstance(stmt, ast.FunctionDef):
            frame.scope.set(stmt.name, _LocalFn(stmt, frame.scope))
        elif isinstance(stmt, (ast.Return, ast.Break, ast.Continue,
                               ast.Raise)):
            return True
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, frame)
            nodes.extend(self._block(stmt.body, frame))
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, frame)
        elif isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    frame.scope.set(tgt.id, UNKNOWN)
        # Pass / Import / Global / Nonlocal / class defs: nothing to trace
        return False

    def _expr_stmt(self, value, frame, nodes):
        if isinstance(value, ast.YieldFrom):
            self._yield_from(value, frame, nodes)
        elif isinstance(value, ast.Yield):
            nodes.append(Opaque(self._line(value, frame)))
        else:
            self._eval(value, frame)

    def _assign(self, stmt, frame, nodes):
        value_expr = stmt.value
        if value_expr is None:          # bare annotation: ``x: int``
            return
        if isinstance(value_expr, ast.YieldFrom):
            self._yield_from(value_expr, frame, nodes)
            result = UNKNOWN
        elif isinstance(value_expr, ast.Yield):
            nodes.append(Opaque(self._line(value_expr, frame)))
            result = UNKNOWN
        else:
            result = self._eval(value_expr, frame)
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = frame.scope.get(stmt.target.id)
                frame.scope.set(stmt.target.id,
                                _binop(stmt.op, current, result))
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            self._bind_value(target, result, frame)

    def _bind_value(self, target, value, frame):
        """Bind an already-evaluated symbolic value to a target."""
        if isinstance(target, ast.Name):
            frame.scope.set(target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            parts = None
            cv = const_value(value)
            if isinstance(cv, tuple) and len(cv) == len(target.elts):
                parts = [Const(v) for v in cv]
            for i, elt in enumerate(target.elts):
                self._bind_value(elt, parts[i] if parts else UNKNOWN, frame)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self._eval(target.value, frame)   # side effects (ctx.arg(...))
        elif isinstance(target, ast.Starred):
            self._bind_value(target.value, UNKNOWN, frame)

    # -- loops ------------------------------------------------------------

    def _for(self, stmt, frame, nodes):
        unrolled = self._try_unroll(stmt, frame, nodes)
        if unrolled:
            return
        # havoc the loop targets, then trace the body once inside Loop
        for name_node in ast.walk(stmt.target):
            if isinstance(name_node, ast.Name):
                frame.scope.set(name_node.id, UNKNOWN)
        self._eval(stmt.iter, frame)
        self._opaque_loop(stmt.body, frame, nodes, stmt.lineno)
        if stmt.orelse:
            nodes.extend(self._block(stmt.orelse, frame))

    def _try_unroll(self, stmt, frame, nodes) -> bool:
        """Unroll ``for`` over a literal or constant tuple or a small
        const range."""
        it = stmt.iter
        if isinstance(it, ast.Tuple):
            if len(it.elts) > _MAX_UNROLL or \
                    any(isinstance(e, ast.Starred) for e in it.elts):
                return False
            for elt in it.elts:
                self._bind_expr(stmt.target, elt, frame)
                nodes.extend(self._block(stmt.body, frame))
            return True
        if isinstance(it, (ast.Name, ast.Subscript)):
            seq = const_value(self._eval(it, frame))
            if not isinstance(seq, tuple) or len(seq) > _MAX_UNROLL:
                return False
            for value in seq:
                self._bind_value(stmt.target, Const(value), frame)
                nodes.extend(self._block(stmt.body, frame))
            return True
        range_val = frame.scope.get("range") if isinstance(it, ast.Call) \
            else None
        range_is_builtin = range_val is UNKNOWN or (
            isinstance(range_val, ObjVal) and range_val.obj is range)
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "range" and not it.keywords \
                and range_is_builtin:
            bounds = [const_int(self._eval(a, frame)) for a in it.args]
            if any(b is None for b in bounds) or not 1 <= len(bounds) <= 3:
                return False
            try:
                seq = list(range(*bounds))
            except (TypeError, ValueError):
                return False
            if len(seq) > _MAX_UNROLL:
                return False
            for value in seq:
                self._bind_value(stmt.target, Const(value), frame)
                nodes.extend(self._block(stmt.body, frame))
            return True
        return False

    def _bind_expr(self, target, value_expr, frame):
        """Bind a target to an *AST* value, destructuring tuple literals."""
        if isinstance(target, (ast.Tuple, ast.List)) \
                and isinstance(value_expr, ast.Tuple) \
                and len(target.elts) == len(value_expr.elts):
            for t, v in zip(target.elts, value_expr.elts):
                self._bind_expr(t, v, frame)
        else:
            self._bind_value(target, self._eval(value_expr, frame), frame)

    def _opaque_loop(self, body, frame, nodes, lineno):
        """Trace an un-unrollable loop body once; havoc what it assigns."""
        before = dict(frame.scope.vars)
        loop_nodes = self._block(body, frame)
        after = frame.scope.vars
        for name, value in list(after.items()):
            if name not in before or not same_value(before[name], value):
                after[name] = UNKNOWN
        nodes.append(Loop(loop_nodes, lineno))

    def _branch(self, arm_stmts, frame, nodes, lineno):
        base = dict(frame.scope.vars)
        arm_nodes, arm_vars = [], []
        for stmts in arm_stmts:
            frame.scope.vars = dict(base)
            arm_nodes.append(self._block(stmts, frame))
            arm_vars.append(frame.scope.vars)
        merged: Dict[str, object] = {}
        names = set()
        for env in arm_vars:
            names.update(env)
        for name in names:
            vals = [env.get(name, base.get(name, UNKNOWN))
                    for env in arm_vars]
            first = vals[0]
            merged[name] = first if all(same_value(first, v)
                                        for v in vals[1:]) else UNKNOWN
        frame.scope.vars = merged
        nodes.append(Branch(arm_nodes, lineno))

    # -- yield from: API calls and helper inlining ------------------------

    def _yield_from(self, node, frame, nodes):
        call = node.value
        if not isinstance(call, ast.Call):
            self._eval(call, frame)
            nodes.append(Opaque(self._line(node, frame)))
            return
        func = call.func
        # direct ctx API call: ``yield from ctx.cb_push_back(...)``
        if isinstance(func, ast.Attribute) \
                and self._eval(func.value, frame) is CTX:
            if func.attr == "cb_set_rd_ptrs":
                # Batched pointer install: desugar to one cb_set_rd_ptr
                # Call per (cb_id, addr) pair so the K1xx alias rules see
                # exactly the unbatched protocol.
                self._desugar_set_rd_ptrs(call, frame, nodes)
                return
            nodes.append(self._api_call(func.attr, call, frame))
            return
        # helper generator: nested def or module-level function
        callee = self._eval(func, frame)
        inlined = self._inline(callee, call, frame, nodes)
        if not inlined:
            self._eval_call_operands(call, frame)
            nodes.append(Opaque(self._line(node, frame)))

    def _desugar_set_rd_ptrs(self, call, frame, nodes) -> None:
        self._tick()
        lineno = self._line(call, frame)
        for a in call.args:
            pairs = self._const_comprehension(a, frame) \
                if isinstance(a, ast.Starred) else None
            if pairs is not None:
                for args in pairs:
                    nodes.append(Call(
                        name="cb_set_rd_ptr",
                        operands=_bind("cb_set_rd_ptr", args, {}, False),
                        lineno=lineno, filename=frame.filename))
            elif isinstance(a, ast.Starred):
                self._eval(a.value, frame)
                nodes.append(Call(name="cb_set_rd_ptr", operands={},
                                  lineno=lineno, filename=frame.filename,
                                  star=True))
            elif isinstance(a, ast.Tuple) and len(a.elts) == 2:
                args = [self._eval(e, frame) for e in a.elts]
                nodes.append(Call(
                    name="cb_set_rd_ptr",
                    operands=_bind("cb_set_rd_ptr", args, {}, False),
                    lineno=lineno, filename=frame.filename))
            else:
                self._eval(a, frame)
                nodes.append(Call(name="cb_set_rd_ptr", operands={},
                                  lineno=lineno, filename=frame.filename,
                                  star=True))
        for kw in call.keywords:
            self._eval(kw.value, frame)

    def _const_comprehension(self, starred, frame):
        """Operand pairs of ``*[(a, b) for x in CONST]``, else None.

        A single-``for`` comprehension over a constant tuple expands to
        one ``(a, b)`` pair per element, evaluated in a child scope so
        the loop target does not leak into the kernel's variables.
        """
        comp = starred.value
        if not isinstance(comp, (ast.ListComp, ast.GeneratorExp)) \
                or len(comp.generators) != 1 \
                or not isinstance(comp.elt, ast.Tuple) \
                or len(comp.elt.elts) != 2:
            return None
        gen = comp.generators[0]
        seq = const_value(self._eval(gen.iter, frame))
        if gen.ifs or gen.is_async or not isinstance(seq, tuple) \
                or len(seq) > _MAX_UNROLL:
            return None
        inner = _Frame(_Scope(frame.scope.globals, {}, parent=frame.scope),
                       frame.offset, frame.filename)
        pairs = []
        for value in seq:
            self._bind_value(gen.target, Const(value), inner)
            pairs.append([self._eval(e, inner) for e in comp.elt.elts])
        return pairs

    def _api_call(self, name, call, frame) -> Call:
        self._tick()
        args, kwargs, star = self._eval_call_operands(call, frame)
        return Call(name=name, operands=_bind(name, args, kwargs, star),
                    lineno=self._line(call, frame),
                    filename=frame.filename, star=star)

    def _eval_call_operands(self, call, frame):
        args, star = [], False
        for a in call.args:
            if isinstance(a, ast.Starred):
                self._eval(a.value, frame)
                star = True
            else:
                args.append(self._eval(a, frame))
        kwargs = {}
        for kw in call.keywords:
            if kw.arg is None:          # **kwargs
                self._eval(kw.value, frame)
                star = True
            else:
                kwargs[kw.arg] = self._eval(kw.value, frame)
        if star:
            args = []
        return args, kwargs, star

    def _inline(self, callee, call, frame, nodes) -> bool:
        if len(self.inline_stack) >= _MAX_INLINE_DEPTH:
            return False
        if isinstance(callee, _LocalFn):
            # nested def: late-bound view of the enclosing scope
            key = callee.node
            fn_node, offset, filename = callee.node, frame.offset, \
                frame.filename
            scope = _Scope(frame.scope.globals, {}, parent=callee.scope)
        elif isinstance(callee, ObjVal) and inspect.isfunction(callee.obj) \
                and callee.obj.__code__.co_flags & inspect.CO_GENERATOR:
            key = callee.obj
            try:
                fn_node, offset, filename = self._parsed(callee.obj)
            except Exception:
                return False
            scope = _Scope(callee.obj.__globals__,
                           self._closure_map(callee.obj))
        else:
            return False
        if any(key is k for k in self.inline_stack):
            return False
        args, kwargs, star = self._eval_call_operands(call, frame)
        self._bind_params(fn_node.args, args, kwargs, star, scope, frame)
        inner = _Frame(scope, offset, filename)
        self.inline_stack.append(key)
        try:
            nodes.extend(self._block(fn_node.body, inner))
        finally:
            self.inline_stack.pop()
        return True

    def _bind_params(self, arguments, args, kwargs, star, scope, frame):
        params = arguments.posonlyargs + arguments.args
        defaults = arguments.defaults
        default_of = {}
        for p, d in zip(params[len(params) - len(defaults):], defaults):
            default_of[p.arg] = d
        for p, d in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if d is not None:
                default_of[p.arg] = d
        all_params = params + arguments.kwonlyargs
        for i, p in enumerate(all_params):
            if star:
                value = UNKNOWN
            elif p.arg in kwargs:
                value = kwargs[p.arg]
            elif p in params and i < len(args):
                value = args[i]
            elif p.arg in default_of:
                value = self._eval(default_of[p.arg], frame)
            else:
                value = UNKNOWN
            scope.set(p.arg, value)
        if arguments.vararg:
            scope.set(arguments.vararg.arg, UNKNOWN)
        if arguments.kwarg:
            scope.set(arguments.kwarg.arg, UNKNOWN)

    def _parsed(self, fn):
        if fn not in self._ast_cache:
            self._ast_cache[fn] = _fn_ast(fn)
        return self._ast_cache[fn]

    # -- expressions ------------------------------------------------------

    def _line(self, node, frame) -> int:
        return getattr(node, "lineno", 0) + frame.offset

    def _eval(self, node, frame):
        self._tick()
        scope = frame.scope
        if isinstance(node, ast.Constant):
            return _wrap(node.value) if isinstance(
                node.value, _SIMPLE_CONST) else UNKNOWN
        if isinstance(node, ast.Name):
            return scope.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, frame)
            if isinstance(base, ObjVal):
                try:
                    return _wrap(getattr(base.obj, node.attr))
                except Exception:
                    return UNKNOWN
            if isinstance(base, NocAddrVal) and node.attr == "addr":
                return base.addr
            if isinstance(base, NocAddrVal) and node.attr == "bank_id":
                return base.bank if base.bank is not None else UNKNOWN
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node, frame)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, frame)
            right = self._eval(node.right, frame)
            return _binop(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, frame)
            value = const_value(operand)
            if isinstance(node.op, ast.USub) and isinstance(
                    value, (int, float)) and not isinstance(value, bool):
                return Const(-value)
            if isinstance(node.op, ast.Not):
                return UNKNOWN
            return UNKNOWN
        if isinstance(node, ast.Tuple):
            elems = [self._eval(e, frame) for e in node.elts
                     if not isinstance(e, ast.Starred)]
            if len(elems) == len(node.elts) and \
                    all(isinstance(e, Const) for e in elems):
                return Const(tuple(e.value for e in elems))
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            self._eval(node.test, frame)
            a = self._eval(node.body, frame)
            b = self._eval(node.orelse, frame)
            return a if same_value(a, b) else UNKNOWN
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            children = ([node.left] + node.comparators) \
                if isinstance(node, ast.Compare) else node.values
            for child in children:
                self._eval(child, frame)
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            # constant tuples index and slice to constants
            seq = const_value(self._eval(node.value, frame))
            sl = node.slice
            if isinstance(sl, ast.Slice):
                parts = (sl.lower, sl.upper, sl.step)
                bounds = [None if p is None else const_int(self._eval(p, frame))
                          for p in parts]
                known = all(b is not None or p is None
                            for b, p in zip(bounds, parts))
                index = slice(*bounds) if known else None
            else:
                index = const_int(self._eval(sl, frame))
            if isinstance(seq, tuple) and index is not None:
                try:
                    return _wrap(seq[index])
                except (IndexError, ValueError):
                    return UNKNOWN
            return UNKNOWN
        if isinstance(node, ast.Starred):
            self._eval(node.value, frame)
            return UNKNOWN
        if isinstance(node, (ast.YieldFrom, ast.Yield)):
            return UNKNOWN              # handled at statement level
        # List/Dict/Set literals stay UNKNOWN: they are mutable, and
        # pretending to know their contents would go stale on .append()
        return UNKNOWN

    def _eval_call(self, node, frame):
        func = node.func
        if isinstance(func, ast.Attribute):
            base = self._eval(func.value, frame)
            if base is CTX:
                return self._ctx_value_call(func.attr, node, frame)
            # method call on a host object / unknown: eval args only
            self._eval_call_operands(node, frame)
            return UNKNOWN
        callee = self._eval(func, frame)
        args, kwargs, star = self._eval_call_operands(node, frame)
        if isinstance(callee, ObjVal):
            obj = callee.obj
            try:
                from repro.ttmetal.kernel_api import NocAddr
            except Exception:           # pragma: no cover - defensive
                NocAddr = None
            if NocAddr is not None and obj is NocAddr and not star:
                addr = args[1] if len(args) > 1 else kwargs.get("addr")
                bank = args[0] if len(args) > 0 else kwargs.get("bank_id")
                if addr is not None:
                    return NocAddrVal(addr, bank)
            if obj is len and not star and len(args) == 1:
                value = const_value(args[0])
                if isinstance(value, (tuple, str, bytes)):
                    return Const(len(value))
            if obj in (int, min, max, abs) and not star and args and \
                    all(const_int(a) is not None for a in args):
                try:
                    return Const(obj(*[a.value for a in args]))
                except Exception:
                    return UNKNOWN
        return UNKNOWN

    def _ctx_value_call(self, name, node, frame):
        """A ctx.* call in *value* position (not yielded)."""
        args, kwargs, star = self._eval_call_operands(node, frame)
        operands = _bind(name, args, kwargs, star)
        if name == "arg":
            arg_name = const_value(operands.get("name"))
            self.trace.arg_refs.append(ArgRef(
                name=arg_name if isinstance(arg_name, str) else None,
                required="default" not in operands,
                lineno=self._line(node, frame)))
            return ArgVal(arg_name) if isinstance(arg_name, str) \
                else UNKNOWN
        if name in ("cb_write_ptr", "cb_read_ptr"):
            kind = "write" if name == "cb_write_ptr" else "read"
            return CbPtr(const_int(operands.get("cb_id")), kind)
        if name == "get_noc_addr":
            addr = operands.get("addr")
            return NocAddrVal(addr) if addr is not None else UNKNOWN
        return UNKNOWN


def _binop(op, left, right):
    lv, rv = const_value(left), const_value(right)
    num = (int, float)
    if isinstance(left, NocAddrVal):
        base = const_value(left.addr)
        if isinstance(op, (ast.Add, ast.Sub)) and isinstance(base, num) \
                and isinstance(rv, num):
            delta = rv if isinstance(op, ast.Add) else -rv
            return NocAddrVal(Const(base + delta), left.bank)
        return NocAddrVal(UNKNOWN, left.bank)
    if isinstance(lv, num) and isinstance(rv, num):
        try:
            if isinstance(op, ast.Add):
                return Const(lv + rv)
            if isinstance(op, ast.Sub):
                return Const(lv - rv)
            if isinstance(op, ast.Mult):
                return Const(lv * rv)
            if isinstance(op, ast.FloorDiv):
                return Const(lv // rv)
            if isinstance(op, ast.Mod):
                return Const(lv % rv)
            if isinstance(op, ast.Div):
                return Const(lv / rv)
            if isinstance(op, ast.RShift):
                return Const(lv >> rv)
            if isinstance(op, ast.LShift):
                return Const(lv << rv)
        except (ZeroDivisionError, TypeError, ValueError, OverflowError):
            return UNKNOWN
    if isinstance(lv, tuple) and isinstance(rv, tuple) \
            and isinstance(op, ast.Add):
        return Const(lv + rv)
    return UNKNOWN


class _Frame:
    """One inlining frame: a scope plus its source-coordinate mapping."""

    __slots__ = ("scope", "offset", "filename")

    def __init__(self, scope, offset, filename):
        self.scope = scope
        self.offset = offset
        self.filename = filename


# --------------------------------------------------------------------------
# public entry
# --------------------------------------------------------------------------

_TRACE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def extract_trace(fn) -> KernelTrace:
    """Extract (and cache) the symbolic API trace of a kernel function."""
    try:
        cached = _TRACE_CACHE.get(fn)
    except TypeError:                   # unhashable/unweakrefable callable
        cached = None
        fn_cacheable = False
    else:
        fn_cacheable = True
    if cached is not None:
        return cached
    trace = _Extractor(fn).run()
    if fn_cacheable:
        try:
            _TRACE_CACHE[fn] = trace
        except TypeError:               # pragma: no cover - defensive
            pass
    return trace
