"""AST → Python transpiler.

Every miniCUDA kernel becomes a Python block function that runs a whole
thread block per call; a device function runs for one simulated thread.
The generated code

* accumulates a per-thread cycle count ``_c`` using the
  :class:`~repro.sim.costmodel.CostModel` weights (constants are folded at
  generation time);
* attributes the cycles of transform-inserted statements to their breakdown
  region (``_rt.reg_agg`` / ``_rt.reg_disagg``, for Fig. 10);
* reports dynamic launches to the execution context
  (``_c = _rt.launch(...)``), which records the launching block and the
  thread-cycle offset of the launch;
* compiles a kernel that uses ``__syncthreads()`` into a per-thread
  *generator* that yields its cycle count at each barrier, so that its
  block function can rotate the threads and re-synchronize their clocks.

Calling conventions:

* kernel: ``b_<name>(_rt, block, _tixs, _gdim, _bdim, *params) ->
  (max_warp, sum_warp, total)`` is the one entry point. It runs the
  threads ``_tixs`` of block *block* in order, 32 to a warp, and returns
  the block's warp costs and thread-cycle total. In a 1-D program (one
  that never reads the y/z thread or block indices) *block* is the x
  index ``_bix`` and ``_tixs`` are x indices; in a 3-D program *block* is
  ``(bx, by, bz)`` and ``_tixs`` are ``(tx, ty, tz)`` triples in linear
  order (x fastest), so warps form over the linearized block;
* barrier-free kernel: ``b_<name>`` runs its threads inline. A ``return``
  ends only the current thread, and a parameter the kernel rebinds is
  copied for each thread. Each pointer parameter the kernel indexes and
  never rebinds is hoisted once per block into its list ``a_<p>`` and
  offset ``o_<p>`` (plus the store conversion ``s_<p>`` of
  :class:`~repro.engine.values.Ptr` if the kernel stores through it), so
  its loads and stores skip the Ptr. The kernel's leading statements
  tagged ``"disagg"`` (an aggregated child's disaggregation: the binary
  search and the loads of its parent's arguments) are its *prologue*,
  which runs once per block, before the thread loop, summing its cycles
  in ``_pc``: each thread's ``_c`` starts at ``_pc`` and
  ``_rt.reg_disagg`` grows by ``_pc`` times the block's thread count, so
  every cost equals running it per thread. The pointers it loads and the
  thread body indexes without rebinding are hoisted like parameters, and
  a local of it the thread body rebinds is copied for each thread. The
  tag is checked: ``CodegenError`` if the prologue reads ``threadIdx``,
  does anything but bind its own locals (a store, atomic, launch,
  device-function call, ``printf``, barrier or ``return``), or reads a
  pointer (or global) the rest of the kernel writes;
* barrier kernel: ``k_<name>(_rt, _bix, _tix, _gdim, _bdim, *params)`` is
  a per-thread generator that returns its cycles via
  ``StopIteration.value``. Only its ``b_<name>`` calls it, once per thread,
  and hands the generators to :func:`~repro.engine.builtins.rotate`;
* device function: ``f_<name>(_rt, _bix, _tix, _gdim, _bdim, *params)
  -> value`` with its cycles added to ``_rt.tc`` (the per-thread spill
  counter reset before each thread of a kernel that calls one), so device
  calls compose in expressions.

In a 3-D program ``k_`` and ``f_`` take ``_bix, _biy, _biz, _tix, _tiy,
_tiz`` in place of ``_bix, _tix``. A ``dim3`` is passed by value: a
function that rebinds a ``dim3`` parameter (a member store ``d.x = ...``
included) copies it on entry, a block function once per thread, so
neither the caller's value nor another thread's changes.

A macro (the tuning values ``_THRESHOLD``, ``_CFACTOR``,
``_AGG_GRANULARITY`` and ``_AGG_THRESHOLD``, the paper's ``-D``
overrides) is read as the module global of its name, never folded into
a literal: each :class:`~repro.engine.module.Module` binds its own values
in its own namespace, so one compiled artifact serves every value.

A module's source comes in chunks (:func:`generate_module_source`): the
imports, then one chunk per function (a barrier kernel's ``k_`` and
``b_`` together), each compiled to its own code object, so structures
that share a function share its compile (:mod:`repro.engine.cache`). A
traceback through generated code therefore counts its line numbers from
the start of the function's chunk, not of the module.
"""

from ..errors import CodegenError
from ..minicuda import ast
from ..minicuda.ast import region_of
from ..sim.costmodel import CostModel, call_cost

_BARRIER_CALLS = ("__syncthreads",)

_CMP_OPS = {"==": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=",
            ">=": ">="}
_ARITH_OPS = {"+": "+", "-": "-", "*": "*", "<<": "<<", ">>": ">>",
              "&": "&", "|": "|", "^": "^"}

_MATH_FUNCS = {
    "ceil": "_m.ceil", "ceilf": "_m.ceil",
    "floor": "_m.floor", "floorf": "_m.floor",
    "sqrt": "_m.sqrt", "sqrtf": "_m.sqrt",
    "exp": "_m.exp", "expf": "_m.exp",
    "log": "_m.log", "logf": "_m.log",
    "pow": "_m.pow", "powf": "_m.pow",
    "tanh": "_m.tanh", "tanhf": "_m.tanh",
    "fabs": "abs", "fabsf": "abs", "abs": "abs",
    "min": "min", "max": "max", "fminf": "min", "fmaxf": "max",
}

_ATOMIC_METHODS = {
    "atomicAdd": "atomic_add", "atomicSub": "atomic_sub",
    "atomicMax": "atomic_max", "atomicMin": "atomic_min",
    "atomicCAS": "atomic_cas", "atomicExch": "atomic_exch",
    "atomicOr": "atomic_or", "atomicAnd": "atomic_and",
}

_RESERVED_MEMBERS = {
    ("threadIdx", "x"): "_tix", ("threadIdx", "y"): "_tiy",
    ("threadIdx", "z"): "_tiz",
    ("blockIdx", "x"): "_bix", ("blockIdx", "y"): "_biy",
    ("blockIdx", "z"): "_biz",
    ("blockDim", "x"): "_bdim.x", ("blockDim", "y"): "_bdim.y",
    ("blockDim", "z"): "_bdim.z",
    ("gridDim", "x"): "_gdim.x", ("gridDim", "y"): "_gdim.y",
    ("gridDim", "z"): "_gdim.z",
}


#: The calls a block-uniform prologue may make.
_PURE_CALLS = frozenset(_MATH_FUNCS) | {"dim3"}

#: Block-function locals that stand in for block-invariant reads.
_BLOCK_LOCALS = {"_bdim.x": "_bdx", "_gdim.x": "_gdx"}


def _mangle(name):
    return "v_" + name


def _is_dim3(var_type):
    return var_type.name == "dim3" and var_type.pointers == 0


def _copy(name, var_type):
    """The line that gives a thread its own ``v_<name>`` of the block's
    shared ``p_<name>``; a ``dim3`` is mutable, so it is copied by value."""
    return ("v_%s = _D3.of(p_%s)" if _is_dim3(var_type)
            else "v_%s = p_%s") % (name, name)


class _Facts:
    """What code generation needs to know about some statements of one
    function, found in one walk of their AST."""

    def __init__(self, stmts, function_names):
        self.decls = []           # every VarDecl, in source order
        self.arrays = set()       # names declared as arrays (T buf[n])
        self.has_barrier = False
        self.has_launch = False
        self.calls_device = False
        self.reads_thread = False  # reads threadIdx
        self.multi_dim = False    # reads a y or z thread or block index
        self.returns = False
        self.calls = set()        # names of the functions called
        self.names = set()        # every identifier
        self.indexed = set()      # names used as p[i], *p or atomic target
        self.stored = set()       # names stored through, atomics included
        self.rebound = set()      # names assigned, ++/--'d, &'d, declared
        #                           or given a member store (d.x = ...)
        for stmt in stmts:
            for node in stmt.walk():
                kind = type(node)
                if kind is ast.Ident:
                    self.names.add(node.name)
                elif kind is ast.Index:
                    if type(node.base) is ast.Ident:
                        self.indexed.add(node.base.name)
                elif kind is ast.Unary:
                    operand = node.operand
                    if node.op in ("++", "--"):
                        self._write(operand)
                    elif type(operand) is ast.Ident:
                        if node.op == "*":
                            self.indexed.add(operand.name)
                        elif node.op == "&":
                            self.rebound.add(operand.name)
                elif kind is ast.Assign:
                    self._write(node.target)
                elif kind is ast.Call and type(node.func) is ast.Ident:
                    name = node.func.name
                    self.calls.add(name)
                    if name in _BARRIER_CALLS:
                        self.has_barrier = True
                    elif name in function_names:
                        self.calls_device = True
                    elif name in _ATOMIC_METHODS and node.args:
                        self._atomic_target(node.args[0])
                elif kind is ast.Member:
                    obj = node.obj
                    if type(obj) is ast.Ident:
                        if obj.name == "threadIdx":
                            self.reads_thread = True
                        if (node.attr in ("y", "z")
                                and obj.name in ("threadIdx", "blockIdx")):
                            self.multi_dim = True
                elif kind is ast.VarDecl:
                    self.decls.append(node)
                    self.rebound.add(node.name)
                    if node.array_size is not None:
                        self.arrays.add(node.name)
                elif kind is ast.Launch:
                    self.has_launch = True
                elif kind is ast.Return:
                    self.returns = True

    def union(self, other):
        """The facts of this part of a function followed by *other*."""
        joined = _Facts((), ())
        joined.decls = self.decls + other.decls
        joined.arrays = self.arrays | other.arrays
        joined.has_barrier = self.has_barrier or other.has_barrier
        joined.has_launch = self.has_launch or other.has_launch
        joined.calls_device = self.calls_device or other.calls_device
        joined.reads_thread = self.reads_thread or other.reads_thread
        joined.multi_dim = self.multi_dim or other.multi_dim
        joined.returns = self.returns or other.returns
        joined.calls = self.calls | other.calls
        joined.names = self.names | other.names
        joined.indexed = self.indexed | other.indexed
        joined.stored = self.stored | other.stored
        joined.rebound = self.rebound | other.rebound
        return joined

    def _write(self, target):
        """*target* is assigned to or incremented."""
        if type(target) is ast.Ident:
            self.rebound.add(target.name)
        elif type(target) is ast.Index and type(target.base) is ast.Ident:
            self.stored.add(target.base.name)
        elif (type(target) is ast.Unary and target.op == "*"
              and type(target.operand) is ast.Ident):
            self.stored.add(target.operand.name)
        elif type(target) is ast.Member and type(target.obj) is ast.Ident:
            self.rebound.add(target.obj.name)

    def _atomic_target(self, arg):
        """An atomic reads and writes ``*arg``, or ``p[i]`` for ``&p[i]``."""
        if type(arg) is ast.Unary and arg.op == "&":
            arg = arg.operand
            if type(arg) is not ast.Index:
                return
            arg = arg.base
        if type(arg) is ast.Ident:
            self.indexed.add(arg.name)
            self.stored.add(arg.name)


def _prologue_length(func):
    """How many leading statements of kernel *func* are tagged
    ``"disagg"``: an aggregated child's disaggregation prologue."""
    count = 0
    if func.is_kernel:
        for stmt in func.body.stmts:
            if region_of(stmt) != "disagg":
                break
            count += 1
    return count


class FunctionCodegen:
    """Generate Python source for one miniCUDA function."""

    def __init__(self, func, program_info, cost_model, macros, body):
        self.func = func
        self.info = program_info      # ProgramInfo: names of funcs/globals
        self.cm = cost_model
        self.macros = macros
        self.lines = []
        stmts = func.body.stmts
        split, head, thread = body    # ProgramInfo.bodies' facts of func
        self.facts = facts = head.union(thread) if split else thread
        self.types = {p.name: p.type for p in func.params}
        for decl in facts.decls:
            self.types[decl.name] = decl.type
        self.has_barrier = facts.has_barrier
        if self.has_barrier and func.is_device:
            raise CodegenError(
                "device function %r uses __syncthreads(); barriers are only "
                "supported directly inside kernels" % func.name)
        # Every kernel compiles to a block function b_<name>: a barrier
        # kernel's rotates its per-thread generators k_<name>, every other
        # kernel's runs its threads inline.
        self.fused = func.is_kernel and not self.has_barrier
        self.hoisted = {
            p.name for p in func.params
            if self.fused and p.type.pointers > 0 and p.name in facts.indexed
            and p.name not in facts.rebound}
        # A block function runs its prologue once per block, before the
        # thread loop: (its statements, their facts, the thread body's).
        self.prologue = None
        if split and self.fused:
            self._check_prologue(head, thread)
            self.prologue = (stmts[:split], head, thread)
        self._uniform = False         # emitting the prologue
        self._loops = []              # per open loop: did a return break it
        self._returns_in_loop = False
        self._block_locals = set()

    def _check_prologue(self, head, thread):
        """Raise CodegenError unless the prologue (facts *head*) computes
        the same values for every thread of a block, so running it once
        per block is the same as running it per thread: it reads no
        ``threadIdx``, only binds its own locals, and reads no memory the
        thread body (facts *thread*) writes."""
        calls = head.calls - _PURE_CALLS
        foreign = head.rebound - {decl.name for decl in head.decls}
        written = (head.indexed & thread.stored
                   | head.names & thread.rebound & self.info.global_scalars)
        if head.reads_thread:
            problem = "reads threadIdx"
        elif head.stored:
            problem = "stores through %s" % min(head.stored)
        elif head.has_launch:
            problem = "launches a kernel"
        elif calls:
            problem = "calls %s" % min(calls)
        elif head.arrays:
            problem = "declares the array %s" % min(head.arrays)
        elif head.returns:
            problem = "returns"
        elif foreign:
            problem = "assigns %s, which it does not declare" % min(foreign)
        elif written:
            problem = ("reads %s, which the rest of the kernel writes"
                       % min(written))
        else:
            return
        raise CodegenError(
            "the disaggregation prologue of %r %s, so it cannot run once "
            "per block" % (self.func.name, problem))

    # -- entry point --------------------------------------------------------

    def _emit_block_def(self, params):
        """Open ``b_<name>``, unpacking a 3-D program's block triple."""
        self._emit(0, "def b_%s(_rt, %s, _tixs, _gdim, _bdim%s):"
                   % (self.func.name, self.info.block, params))
        if self.info.multi_dim:
            self._emit(1, "_bix, _biy, _biz = _blk")

    def generate(self):
        func = self.func
        # Sec. VIII-D: the mere presence of a dynamic launch in a kernel
        # makes the compiler emit (and the hardware execute) a large number
        # of extra instructions even when the launch never happens.
        tax = (self.cm.cdp_code_tax if self.facts.has_launch
               and func.is_kernel else 0)
        if self.fused:
            return self._generate_block_function(tax)
        params = "".join(", " + _mangle(p.name) for p in func.params)
        prefix = "k_" if func.is_kernel else "f_"
        self._emit(0, "def %s%s(_rt, %s%s):" % (
            prefix, func.name, self.info.ctx_args, params))
        for p in func.params:
            if p.name in self.facts.rebound and _is_dim3(p.type):
                self._emit(1, "v_%s = _D3.of(v_%s)" % (p.name, p.name))
        self._emit(1, "_c = %d" % tax)
        self._gen_compound(func.body, 1)
        if func.is_kernel:
            self._emit(1, "return _c")
            self._emit(0, "")
            self._emit_block_def(params)
            self._emit(1, "return _rotate(_rt, [k_%s(_rt, %s%s) for %s in "
                          "_tixs])" % (func.name, self.info.ctx_args, params,
                                       self.info.thread))
        else:
            self._emit(1, "_rt.tc += _c")
            self._emit(1, "return None")
        return "\n".join(self.lines)

    def _generate_block_function(self, tax):
        """``b_<name>``: every thread of one block, warp costs inline."""
        # The parameters are shared by the block's threads, so one the
        # kernel rebinds arrives as p_<name> and is copied for each thread.
        rebound = [p.name for p in self.func.params
                   if p.name in self.facts.rebound]
        copies = [_copy(p.name, p.type) for p in self.func.params
                  if p.name in self.facts.rebound]
        body, start = self.func.body, "_c = %d" % tax
        if self.prologue is not None:
            body, start = self._generate_prologue(tax, rebound, copies)
        uniform, self.lines = self.lines, []
        self._emit(3, start)
        self._gen_compound(body, 3)
        self._end_thread(3)
        thread_body, self.lines = self.lines, []
        params = "".join(
            ", " + ("p_" if p.name in rebound else "v_") + p.name
            for p in self.func.params)
        self._emit_block_def(params)
        self._emit_hoists(p.name for p in self.func.params
                          if p.name in self.hoisted)
        for read, local in _BLOCK_LOCALS.items():
            if local in self._block_locals:
                self._emit(1, "%s = %s" % (local, read))
        self.lines.extend(uniform)
        self._emit(1, "_mw = _sw = _tot = 0")
        self._emit(1, "for _w in range(0, len(_tixs), 32):")
        self._emit(2, "_pk = 0")
        self._emit(2, "for %s in _tixs[_w:_w + 32]:" % self.info.thread)
        if self.facts.calls_device:
            self._emit(3, "_rt.tc = 0")
        if self._returns_in_loop:
            self._emit(3, "_ret = False")
        for copy in copies:
            self._emit(3, copy)
        self.lines.extend(thread_body)
        self._emit(2, "_sw += _pk")
        self._emit(2, "if _pk > _mw:")
        self._emit(3, "_mw = _pk")
        self._emit(1, "return _mw, _sw, _tot")
        return "\n".join(self.lines)

    def _generate_prologue(self, tax, rebound, copies):
        """Emit the prologue once per block, summing its cycles in ``_pc``.
        Every thread then starts at ``_pc`` and ``_rt.reg_disagg`` grows by
        ``_pc`` per thread, as if each thread had run it. The pointers it
        loads are hoisted like parameters; a local the thread body rebinds
        is copied for each thread (onto *copies*). Returns the thread body
        and its first line."""
        stmts, head, thread = self.prologue
        for name in rebound:
            if name in head.names:
                self._emit(1, "v_%s = p_%s" % (name, name))
        self._emit(1, "_pc = 0")
        self._uniform = True
        self._gen_compound(ast.Compound(stmts), 1)
        self._uniform = False
        decls = {decl.name: decl.type for decl in head.decls}
        self._emit_hoists(
            name for name, var_type in decls.items()
            if var_type.pointers > 0 and name in thread.indexed
            and name not in thread.rebound)
        for name, var_type in decls.items():
            if name in thread.rebound:
                self._emit(1, "p_%s = v_%s" % (name, name))
                copies.append(_copy(name, var_type))
        self._emit(1, "_rt.reg_disagg += _pc * len(_tixs)")
        body = ast.Compound(self.func.body.stmts[len(stmts):])
        return body, "_c = _pc + %d" % tax if tax else "_c = _pc"

    def _emit_hoists(self, names):
        """Hoist each pointer of *names* once per block into its list
        ``a_<p>`` and offset ``o_<p>``, plus the store conversion ``s_<p>``
        if the kernel stores through it."""
        for name in names:
            var = _mangle(name)
            self._emit(1, "a_%s = %s.array" % (name, var))
            self._emit(1, "o_%s = %s.offset" % (name, var))
            if name in self.facts.stored:
                self._emit(1, "s_%s = %s.convert or _identity"
                           % (name, var))
            self.hoisted.add(name)

    def _end_thread(self, indent):
        """Add the finished thread's cycles to its warp and block."""
        if self.facts.calls_device:
            self._emit(indent, "_c += _rt.tc")
        self._emit(indent, "_tot += _c")
        self._emit(indent, "if _c > _pk:")
        self._emit(indent + 1, "_pk = _c")

    def _emit(self, indent, text):
        self.lines.append("    " * indent + text)

    # -- cost helpers ------------------------------------------------------

    def _weight(self, expr):
        if expr is None:
            return 0
        total = 0
        for node in expr.walk():
            if isinstance(node, (ast.Binary, ast.Assign, ast.Ternary,
                                 ast.Cast)):
                total += self.cm.alu
            elif isinstance(node, ast.Unary) and node.op != "&":
                total += self.cm.alu
            elif isinstance(node, ast.Index):
                total += self.cm.mem
            elif isinstance(node, ast.Call):
                total += self._call_weight(node)
        return total

    def _call_weight(self, call):
        if isinstance(call.func, ast.Ident):
            name = call.func.name
            if name in _BARRIER_CALLS:
                return 0  # charged at the yield site
            if name in self.info.functions:
                return self.cm.call
            return call_cost(self.cm, name)
        return self.cm.call

    def _emit_cost(self, indent, weight, region):
        if weight <= 0:
            return
        if self._uniform:
            if region != "disagg":
                raise CodegenError(
                    "the disaggregation prologue of %r holds code not "
                    "tagged \"disagg\"" % self.func.name)
            self._emit(indent, "_pc += %d" % weight)
            return
        self._emit(indent, "_c += %d" % weight)
        if region in ("agg", "disagg"):
            self._emit(indent, "_rt.reg_%s += %d" % (region, weight))

    # -- statements -----------------------------------------------------------

    def _gen_compound(self, compound, indent):
        if not compound.stmts:
            self._emit(indent, "pass")
            return
        # Group consecutive simple statements to merge their cost updates.
        pending = []

        def flush():
            if not pending:
                return
            weight = sum(self._stmt_weight(s) for s in pending)
            self._emit_cost(indent, weight, region_of(pending[0]))
            for simple in pending:
                self._gen_simple(simple, indent)
            pending.clear()

        prev_region = None
        for stmt in compound.stmts:
            if self._is_simple(stmt):
                if pending and region_of(stmt) != prev_region:
                    flush()
                pending.append(stmt)
                prev_region = region_of(stmt)
            else:
                flush()
                self._gen_stmt(stmt, indent)
        flush()

    def _is_simple(self, stmt):
        """Statements whose cost can be merged and emitted inline."""
        if isinstance(stmt, ast.DeclStmt):
            return True
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Launch):
                return False
            if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Ident)
                    and expr.func.name in _BARRIER_CALLS):
                return False
            return True
        return False

    def _stmt_weight(self, stmt):
        if isinstance(stmt, ast.DeclStmt):
            return sum(self._weight(d.init) for d in stmt.decls
                       if d.init is not None)
        return self._weight(stmt.expr)

    def _gen_stmt(self, stmt, indent):
        region = region_of(stmt)
        if isinstance(stmt, ast.Compound):
            self._gen_compound(stmt, indent)
        elif isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Launch):
                self._gen_launch(expr, indent)
            elif (isinstance(expr, ast.Call)
                  and isinstance(expr.func, ast.Ident)
                  and expr.func.name in _BARRIER_CALLS):
                self._gen_barrier(indent, region)
            else:
                self._emit_cost(indent, self._weight(expr), region)
                self._gen_simple(stmt, indent)
        elif isinstance(stmt, ast.DeclStmt):
            self._emit_cost(indent, self._stmt_weight(stmt), region)
            self._gen_simple(stmt, indent)
        elif isinstance(stmt, ast.If):
            self._emit_cost(indent, self._weight(stmt.cond), region)
            self._emit(indent, "if %s:" % self._cond(stmt.cond))
            self._gen_nested(stmt.then, indent + 1)
            if stmt.orelse is not None:
                self._emit(indent, "else:")
                self._gen_nested(stmt.orelse, indent + 1)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt.cond, stmt.body, indent, region)
        elif isinstance(stmt, ast.DoWhile):
            self._emit(indent, "while True:")
            self._loops.append(False)
            self._gen_nested(stmt.body, indent + 1)
            self._emit_cost(indent + 1, self._weight(stmt.cond), region)
            self._emit(indent + 1, "if not (%s):" % self._cond(stmt.cond))
            self._emit(indent + 2, "break")
            self._close_loop(indent)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._gen_stmt(stmt.init, indent)
            self._gen_while(stmt.cond, stmt.body, indent, region,
                            step=stmt.step)
        elif isinstance(stmt, ast.Return):
            if self.func.is_kernel:
                if stmt.value is not None:
                    raise CodegenError("kernel returning a value")
                if not self.fused:
                    self._emit(indent, "return _c")
                elif self._loops:
                    self._loops[-1] = True
                    self._emit(indent, "_ret = True")
                    self._emit(indent, "break")
                else:
                    self._end_thread(indent)
                    self._emit(indent, "continue")
            else:
                self._emit(indent, "_rt.tc += _c")
                value = ("None" if stmt.value is None
                         else self._expr(stmt.value))
                self._emit(indent, "return %s" % value)
        elif isinstance(stmt, ast.Break):
            self._emit(indent, "break")
        elif isinstance(stmt, ast.Continue):
            self._emit(indent, "continue")
        else:
            raise CodegenError(
                "cannot generate statement %r" % type(stmt).__name__)

    def _gen_nested(self, stmt, indent):
        if isinstance(stmt, ast.Compound):
            self._gen_compound(stmt, indent)
        else:
            self._gen_stmt(stmt, indent)

    def _gen_while(self, cond, body, indent, region, step=None):
        self._emit(indent, "while True:")
        if cond is not None:
            self._emit_cost(indent + 1, self._weight(cond), region)
            self._emit(indent + 1, "if not (%s):" % self._cond(cond))
            self._emit(indent + 2, "break")
        self._loops.append(False)
        self._gen_nested(body, indent + 1)
        if step is not None:
            self._emit_cost(indent + 1, self._weight(step), region)
            self._gen_expr_effect(step, indent + 1)
        self._close_loop(indent)

    def _close_loop(self, indent):
        """After a loop of a block function that a ``return`` broke out of:
        break out of the enclosing loop too, or end the thread."""
        if not self._loops.pop():
            return
        self._returns_in_loop = True
        self._emit(indent, "if _ret:")
        if self._loops:
            self._loops[-1] = True
            self._emit(indent + 1, "break")
        else:
            self._end_thread(indent + 1)
            self._emit(indent + 1, "continue")

    def _gen_barrier(self, indent, region):
        if not self.has_barrier:
            raise CodegenError("internal: barrier in non-barrier kernel")
        self._emit_cost(indent, self.cm.sync, region)
        self._emit(indent, "_c = yield _c")

    def _gen_launch(self, launch, indent):
        if launch.kernel not in self.info.kernels:
            raise CodegenError("launch of unknown kernel %r" % launch.kernel)
        args = "".join(self._expr(a) + ", " for a in launch.args)
        self._emit(indent, "_c = _rt.launch(%r, _D3.of(%s), _D3.of(%s), "
                           "(%s), _c)" % (
                               launch.kernel, self._expr(launch.grid),
                               self._expr(launch.block), args))

    def _gen_simple(self, stmt, indent):
        """Emit a DeclStmt or effect-only ExprStmt (cost already emitted)."""
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.array_size is not None:
                    self._gen_array_decl(decl, indent)
                else:
                    self._gen_decl(decl, indent)
        else:
            self._gen_expr_effect(stmt.expr, indent)

    def _gen_array_decl(self, decl, indent):
        """``__shared__ T buf[n]`` → one block-scoped array shared by all
        threads; a plain ``T buf[n]`` → a per-thread local array."""
        size = self._expr(decl.array_size)
        if decl.is_shared:
            self._emit(indent, "%s = _rt.shared_array(%r, %s, %r)" % (
                _mangle(decl.name), decl.name, size, decl.type.name))
        else:
            self._emit(indent, "%s = _local_array(%s, %r)" % (
                _mangle(decl.name), size, decl.type.name))

    def _gen_decl(self, decl, indent):
        name = _mangle(decl.name)
        if decl.init is None:
            default = "_D3()" if decl.type.name == "dim3" else "0"
            self._emit(indent, "%s = %s" % (name, default))
            return
        value = self._expr(decl.init)
        if _is_dim3(decl.type):
            value = "_D3.of(%s)" % value
        self._emit(indent, "%s = %s" % (name, value))

    def _gen_expr_effect(self, expr, indent):
        """An expression evaluated for effect (assignment, call, ++/--)."""
        if isinstance(expr, ast.Assign):
            self._gen_assign(expr, indent)
        elif isinstance(expr, ast.Unary) and expr.op in ("++", "--"):
            op = "+=" if expr.op == "++" else "-="
            slot = self._hoisted_slot(expr.operand)
            if slot is not None:
                self._gen_hoisted_store(slot, op, "1", indent)
            else:
                self._emit(indent, "%s %s 1" % (
                    self._lvalue(expr.operand), op))
        elif isinstance(expr, ast.Call):
            if (isinstance(expr.func, ast.Ident)
                    and expr.func.name == "cudaMalloc"):
                self._cuda_malloc_stmt(expr.args, indent)
            else:
                emitted = self._expr(expr)
                if emitted != "None":
                    self._emit(indent, emitted)
        elif isinstance(expr, ast.Launch):
            self._gen_launch(expr, indent)
        else:
            # Pure expression statement: cost was counted; no effect.
            self._emit(indent, "pass")

    def _gen_assign(self, assign, indent):
        target = assign.target
        value = self._expr(assign.value)
        op = assign.op
        slot = self._hoisted_slot(target)
        if slot is not None:
            self._gen_hoisted_store(slot, op, value, indent)
        elif op == "=":
            if (isinstance(target, ast.Ident)
                    and self._type_name(target.name) == "dim3"):
                value = "_D3.of(%s)" % value
            self._emit(indent, "%s = %s" % (self._lvalue(target), value))
        else:
            self._emit(indent, "%s %s %s" % (self._lvalue(target), op, value))

    def _gen_hoisted_store(self, slot, op, value, indent):
        """Store through a hoisted pointer parameter, converting to its
        element type as ``Ptr.__setitem__`` does. A compound store reads
        and writes through ``_ix``, so the index is evaluated once."""
        name, index = slot
        if op == "=":
            self._emit(indent, "a_%s[%s] = s_%s(%s)" % (
                name, self._slot(name, index), name, value))
            return
        self._emit(indent, "_ix = %s" % self._slot(name, index))
        self._emit(indent, "a_%s[_ix] = s_%s(a_%s[_ix] %s (%s))" % (
            name, name, name, op[:-1], value))

    def _hoisted_slot(self, target):
        """``(parameter, index code)`` when *target* is ``p[i]`` or ``*p``
        of a hoisted pointer parameter, else None."""
        if isinstance(target, ast.Index):
            name = self._hoisted(target.base)
            if name is not None:
                return name, self._expr(target.index)
        elif isinstance(target, ast.Unary) and target.op == "*":
            name = self._hoisted(target.operand)
            if name is not None:
                return name, "0"
        return None

    def _hoisted(self, pointer):
        """The name of *pointer* if it is a hoisted parameter, else None."""
        if isinstance(pointer, ast.Ident) and pointer.name in self.hoisted:
            return pointer.name
        return None

    @staticmethod
    def _slot(name, index):
        """The list index of element *index* of hoisted parameter *name*."""
        return "o_%s" % name if index == "0" else "o_%s + %s" % (name, index)

    def _type_name(self, var_name):
        var_type = self.types.get(var_name)
        if var_type is not None and var_type.pointers == 0:
            return var_type.name
        return None

    def _lvalue(self, expr):
        if isinstance(expr, ast.Ident):
            if expr.name in self.types:
                return _mangle(expr.name)
            if expr.name in self.info.global_scalars:
                return "g_%s[0]" % expr.name
            raise CodegenError("assignment to unknown name %r" % expr.name)
        if isinstance(expr, ast.Index):
            return "%s[%s]" % (self._expr(expr.base), self._expr(expr.index))
        if isinstance(expr, ast.Member):
            if isinstance(expr.obj, ast.Ident) and \
                    (expr.obj.name, expr.attr) in _RESERVED_MEMBERS:
                raise CodegenError("assignment to reserved variable")
            return "%s.%s" % (self._expr(expr.obj), expr.attr)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return "%s[0]" % self._expr(expr.operand)
        raise CodegenError(
            "unsupported assignment target %r" % type(expr).__name__)

    # -- expressions ---------------------------------------------------------

    def _cond(self, expr):
        """*expr* where only its truth is read (``if``, loop tests, ``?:``
        tests, ``!``): ``&&`` and ``||`` may stay Python's ``and``/``or``,
        which return an operand."""
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            return "((%s) %s (%s))" % (
                self._cond(expr.lhs), "and" if expr.op == "&&" else "or",
                self._cond(expr.rhs))
        return self._expr(expr)

    def _expr(self, expr):
        if isinstance(expr, ast.IntLit):
            return repr(expr.value)
        if isinstance(expr, ast.FloatLit):
            return repr(expr.value)
        if isinstance(expr, ast.BoolLit):
            return "True" if expr.value else "False"
        if isinstance(expr, ast.StrLit):
            return repr(expr.value)
        if isinstance(expr, ast.Ident):
            return self._ident(expr.name)
        if isinstance(expr, ast.Member):
            return self._member(expr)
        if isinstance(expr, ast.Index):
            index = self._expr(expr.index)
            name = self._hoisted(expr.base)
            if name is not None:
                return "a_%s[%s]" % (name, self._slot(name, index))
            return "%s[%s]" % (self._expr(expr.base), index)
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.Ternary):
            return "(%s if %s else %s)" % (
                self._expr(expr.then), self._cond(expr.cond),
                self._expr(expr.orelse))
        if isinstance(expr, ast.Cast):
            return self._cast(expr)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Assign):
            raise CodegenError(
                "assignment used as a value; restructure the source")
        if isinstance(expr, ast.Launch):
            raise CodegenError("launch used as a value")
        raise CodegenError(
            "cannot generate expression %r" % type(expr).__name__)

    def _ident(self, name):
        if name in self.types:
            return _mangle(name)
        if name == "warpSize":
            return "32"
        if name in self.macros:
            return name
        if name in self.info.global_scalars:
            return "g_%s[0]" % name
        if name in self.info.global_arrays:
            return "g_%s" % name
        raise CodegenError(
            "unknown identifier %r in %r (missing macro definition?)"
            % (name, self.func.name))

    def _member(self, expr):
        if isinstance(expr.obj, ast.Ident):
            key = (expr.obj.name, expr.attr)
            if key in _RESERVED_MEMBERS:
                replacement = _RESERVED_MEMBERS[key]
                if not self.info.multi_dim and replacement in (
                        "_tiy", "_tiz", "_biy", "_biz"):
                    return "0"
                if self.fused and replacement in _BLOCK_LOCALS:
                    replacement = _BLOCK_LOCALS[replacement]
                    self._block_locals.add(replacement)
                return replacement
        return "%s.%s" % (self._expr(expr.obj), expr.attr)

    def _binary(self, expr):
        op = expr.op
        if op in ("&&", "||"):
            # C's value of a logical operator is 0 or 1.
            return "(1 if %s else 0)" % self._cond(expr)
        lhs, rhs = self._expr(expr.lhs), self._expr(expr.rhs)
        if op == "/":
            return "_div(%s, %s)" % (lhs, rhs)
        if op == "%":
            return "_mod(%s, %s)" % (lhs, rhs)
        if op in _CMP_OPS or op in _ARITH_OPS:
            return "(%s %s %s)" % (lhs, op, rhs)
        raise CodegenError("unknown binary operator %r" % op)

    def _unary(self, expr):
        if expr.op in ("++", "--"):
            raise CodegenError(
                "++/-- only supported as statements or loop steps")
        if expr.op == "!":
            return "(not (%s))" % self._cond(expr.operand)
        if expr.op == "*":
            name = self._hoisted(expr.operand)
            if name is not None:
                return "a_%s[o_%s]" % (name, name)
        operand = self._expr(expr.operand)
        if expr.op == "-":
            return "(-%s)" % operand
        if expr.op == "+":
            return "(+%s)" % operand
        if expr.op == "~":
            return "(~int(%s))" % operand
        if expr.op == "*":
            return "%s[0]" % operand
        if expr.op == "&":
            raise CodegenError(
                "address-of is only supported in atomic/cudaMalloc calls")
        raise CodegenError("unknown unary operator %r" % expr.op)

    def _cast(self, expr):
        operand = self._expr(expr.operand)
        if expr.type.pointers > 0:
            return operand
        name = expr.type.name
        if name in ("float", "double"):
            return "float(%s)" % operand
        if name == "bool":
            return "bool(%s)" % operand
        return "int(%s)" % operand

    def _call(self, expr):
        if not isinstance(expr.func, ast.Ident):
            raise CodegenError("indirect calls are not supported")
        name = expr.func.name
        if name in _ATOMIC_METHODS:
            return self._atomic(name, expr.args)
        if name in _MATH_FUNCS:
            args = ", ".join(self._expr(a) for a in expr.args)
            return "%s(%s)" % (_MATH_FUNCS[name], args)
        if name == "dim3":
            args = [self._expr(a) for a in expr.args]
            while len(args) < 3:
                args.append("1")
            return "_D3(%s)" % ", ".join(args[:3])
        if name in ("__threadfence", "__threadfence_block", "__syncwarp"):
            return "None"
        if name == "printf":
            args = ", ".join(self._expr(a) for a in expr.args)
            return "_rt.printf(%s)" % args
        if name == "cudaMalloc":
            raise CodegenError("cudaMalloc is only supported as a statement")
        if name == "memset":
            ptr, value, _size = (self._expr(a) for a in expr.args)
            return "%s.fill(%s)" % (ptr, value)
        if name in self.info.functions:
            args = "".join(", " + self._expr(a) for a in expr.args)
            return "f_%s(_rt, %s%s)" % (name, self.info.ctx_args, args)
        raise CodegenError(
            "call to unknown function %r in %r" % (name, self.func.name))

    def _pointer_ref(self, arg):
        """Resolve an atomic's pointer argument to (pointer, 'index'): the
        pointer's AST node, or the code of a global scalar's cell."""
        if isinstance(arg, ast.Unary) and arg.op == "&":
            inner = arg.operand
            if isinstance(inner, ast.Index):
                return inner.base, self._expr(inner.index)
            if isinstance(inner, ast.Ident):
                if inner.name in self.info.global_scalars:
                    return "g_%s" % inner.name, "0"
                raise CodegenError(
                    "atomic on non-global scalar %r" % inner.name)
            raise CodegenError("unsupported address-of operand in atomic")
        return arg, "0"

    def _atomic(self, name, args):
        """``_rt.atomic_*(ptr, index, ...)``; on a hoisted pointer
        parameter, the list-level ``_atomic_*(a_p, slot, s_p, ...)``; on a
        declared ``__shared__`` or local array, which is a plain list whose
        stores keep their values, ``_atomic_*(v_buf, index, _identity,
        ...)``."""
        pointer, index = self._pointer_ref(args[0])
        rest = "".join(", " + self._expr(a) for a in args[1:])
        method = _ATOMIC_METHODS[name]
        hoisted = self._hoisted(pointer)
        if hoisted is not None:
            return "_%s(a_%s, %s, s_%s%s)" % (
                method, hoisted, self._slot(hoisted, index), hoisted, rest)
        if (isinstance(pointer, ast.Ident)
                and pointer.name in self.facts.arrays):
            return "_%s(%s, %s, _identity%s)" % (
                method, _mangle(pointer.name), index, rest)
        if not isinstance(pointer, str):
            pointer = self._expr(pointer)
        return "_rt.%s(%s, %s%s)" % (method, pointer, index, rest)

    def _cuda_malloc_stmt(self, args, indent):
        """``cudaMalloc(&p, bytes)`` → device-heap allocation into local p.

        ``sizeof(T)`` lexes to 4, so *bytes* is in 4-byte units; the element
        type comes from the pointer's declaration.
        """
        target = args[0]
        if not (isinstance(target, ast.Unary) and target.op == "&"
                and isinstance(target.operand, ast.Ident)):
            raise CodegenError("cudaMalloc target must be &local_pointer")
        var = target.operand.name
        var_type = self.types.get(var)
        if var_type is None or var_type.pointers == 0:
            raise CodegenError("cudaMalloc target %r is not a pointer" % var)
        elem = var_type.pointee()
        size = self._expr(args[1])
        self._emit(indent, "%s = _rt.device_malloc((%s) // 4, %r)" % (
            _mangle(var), size, elem.name))


class ProgramInfo:
    """Name environment shared by all functions of one program, and the
    facts of each function body, found in one walk of it."""

    def __init__(self, program):
        self.functions = {f.name for f in program.functions()
                          if f.body is not None}
        self.kernels = {f.name for f in program.kernels()}
        self.global_scalars = set()
        self.global_arrays = set()
        file_scope = []
        for decl in program.decls:
            if isinstance(decl, ast.DeclStmt):
                file_scope.append(decl)
                for var in decl.decls:
                    if var.array_size is not None or var.type.pointers > 0:
                        self.global_arrays.add(var.name)
                    else:
                        self.global_scalars.add(var.name)
        # Per function with a body: (func, (prologue length, the
        # prologue's facts, the facts of the rest)).
        self.bodies = []
        multi_dim = _Facts(file_scope, ()).multi_dim
        for func in program.functions():
            if func.body is None:
                continue
            stmts = func.body.stmts
            split = _prologue_length(func)
            head = _Facts(stmts[:split], self.functions)
            thread = _Facts(stmts[split:], self.functions)
            multi_dim = multi_dim or head.multi_dim or thread.multi_dim
            self.bodies.append((func, (split, head, thread)))
        self.multi_dim = multi_dim
        # The index arguments of every k_ and f_ call, a block function's
        # block argument and its thread loop target (one of _tixs). A
        # program that never reads the y/z indices gets the compact 1-D
        # ones (faster: millions of simulated thread calls).
        if self.multi_dim:
            self.ctx_args = "_bix, _biy, _biz, _tix, _tiy, _tiz, _gdim, _bdim"
            self.block, self.thread = "_blk", "_tix, _tiy, _tiz"
        else:
            self.ctx_args = "_bix, _tix, _gdim, _bdim"
            self.block, self.thread = "_bix", "_tix"


#: The first chunk of every generated module: the names its functions read.
MODULE_HEADER = "\n".join([
    "import math as _m",
    "from repro.engine.values import Dim3 as _D3, Ptr as _Ptr",
    "from repro.engine.builtins import (c_div as _div, c_mod as _mod,"
    " local_array as _local_array, identity as _identity,"
    " rotate as _rotate, %s)"
    % ", ".join("%s as _%s" % (method, method)
                for method in _ATOMIC_METHODS.values()),
    ""])


def generate_module_source(program, macros=(), cost_model=None):
    """Python module source implementing every function of *program*, as
    chunks: :data:`MODULE_HEADER`, then one chunk per function with a body
    (a barrier kernel's chunk holds its ``k_`` and its ``b_``).
    ``"\\n".join(chunks)`` is the module's source, and each chunk compiles
    on its own.

    *macros* holds the names of the program's macros (a ``ModuleMeta``'s
    ``macros`` dict will do): the code reads each as a module global of
    that name, which every :class:`~repro.engine.module.Module` binds to
    its own value. Returns (chunks, kernel_info) where chunks is a tuple
    of strings and kernel_info maps kernel name to a dict with
    'has_barrier', 'multi_dim' and 'params' (list of (name, Type)).
    """
    for name in macros:
        # Every name the generated code binds itself has a lower-case
        # letter, but for the _D3 alias, so no other macro can clash.
        if not name.isupper() or name == "_D3":
            raise CodegenError(
                "macro %r must be an upper-case name other than _D3: the "
                "generated code reads it as a module global" % name)
    macros = frozenset(macros)
    cost_model = cost_model or CostModel()
    info = ProgramInfo(program)
    chunks = [MODULE_HEADER]
    kernel_info = {}
    for func, body in info.bodies:
        generator = FunctionCodegen(func, info, cost_model, macros, body)
        chunks.append(generator.generate() + "\n")
        if func.is_kernel:
            kernel_info[func.name] = {
                "has_barrier": generator.has_barrier,
                "multi_dim": info.multi_dim,
                "params": [(p.name, p.type) for p in func.params],
            }
    return tuple(chunks), kernel_info
