"""Aggregation transformation (Sec. II-B, V; Fig. 7).

Child grids launched by many parent threads are consolidated into one
aggregated grid. Four granularities are supported:

* ``warp``       — threads of one warp coordinate (prior work);
* ``block``      — threads of one block coordinate (prior work / KLAP);
* ``multiblock`` — groups of ``_AGG_GRANULARITY`` parent blocks coordinate
  through global atomics and a group-completion counter; the last block of
  the group to finish performs the launch (the paper's contribution, Fig. 7);
* ``grid``       — the whole parent grid coordinates; the aggregated launch
  is performed by the *host* after the parent grid terminates.

The parent kernel is rewritten as follows. Buffer parameters are appended to
its signature (the host runtime allocates and zeroes them per launch — the
paper's "pre-allocated buffer"). A prologue computes the thread's group index
and segment base. The original body is wrapped in ``do { ... } while(false)``
with thread-exit ``return`` rewritten to ``break`` so that every thread falls
through to the epilogue, which (for device granularities) fences, syncs, and
counts completed blocks — the last block of the group launches the aggregated
child. The launch site itself becomes the *store* code of Fig. 7 lines 18-25.

The aggregated child kernel is a clone of the (possibly already coarsened)
child whose prologue is the *disaggregation* logic: a binary search over the
scanned grid-dimension array identifies the original parent, then the
original arguments and configuration are loaded from the buffers (Fig. 7
lines 01-11).

Statements inserted by this pass are region-tagged ``"agg"`` (parent side)
or ``"disagg"`` (child side) so the engine can attribute their cycles for
the Fig. 10 breakdown. The disaggregation reads only ``blockIdx.x`` and
buffers the parents wrote, so every thread of a block computes the same
values: the simulator runs it once per block (see
:mod:`repro.engine.codegen`) yet still charges its cycles to every
thread, as the GPU pays them.

A note on atomicity: Fig. 7 increments ``_numParents`` and ``_sumGDim``
with a *single* 64-bit atomic so that the scanned array is written in a
consistent order. The engine executes threads of a grid sequentially, so two
adjacent 32-bit atomics are equivalent there; the cost model charges them as
one paired atomic.

The aggregation threshold (Sec. V-B, ``warp``/``block`` only): participating
threads are counted first; if fewer than ``_AGG_THRESHOLD`` participate, each
parent thread launches its own (un-aggregated) child from the values it
already stored, using a thread-local saved index.
"""

from ..minicuda import ast
from ..minicuda import builders as b
from ..analysis import (NameAllocator, SymbolTable, analyze_kernel,
                        declared_names, find_launch_sites, resolve_child)
from ..errors import TransformError
from ..minicuda.ast import set_region
from .base import AggSpec, ModuleMeta, insert_after, rewrite_launches, \
    substitute_reserved
from .thresholding import _ReturnToContinue

AGG_GRANULARITY_MACRO = "_AGG_GRANULARITY"
AGG_THRESHOLD_MACRO = "_AGG_THRESHOLD"

GRANULARITIES = ("warp", "block", "multiblock", "grid")

#: Default group size (in parent blocks) for multi-block granularity.
DEFAULT_GROUP_BLOCKS = 8


def group_size(granularity, group_blocks):
    """Parent blocks per aggregation group: one at block granularity, else
    *group_blocks* (which only multi-block reads)."""
    return 1 if granularity == "block" else group_blocks


class _ReturnToBreak(_ReturnToContinue):
    """Thread-exit return → break out of the do-while wrapper."""

    def visit_Return(self, node):
        if self.loop_depth > 0:
            self.nested_return = True
            return node
        return ast.Break()


def _scalar_of(expr, symtab):
    """An int-valued expression for a launch-config operand.

    Launch configs written by earlier passes are ``dim3`` locals; take their
    ``.x``. ``dim3(e, ...)`` constructor calls yield their first argument.
    """
    if isinstance(expr, ast.Ident) and symtab is not None:
        var_type = symtab.type_of(expr.name)
        if var_type is not None and var_type.name == "dim3":
            return b.member(expr.clone(), "x")
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Ident)
            and expr.func.name == "dim3" and expr.args):
        return expr.args[0]
    return expr


class AggregationPass:
    """Kernel launch aggregation at a configurable granularity."""

    def __init__(self, granularity="multiblock",
                 group_blocks=DEFAULT_GROUP_BLOCKS, agg_threshold=None):
        if granularity not in GRANULARITIES:
            raise TransformError("unknown granularity %r" % granularity)
        if agg_threshold is not None and granularity not in ("warp", "block"):
            raise TransformError(
                "aggregation threshold requires warp or block granularity "
                "(Sec. V-B); got %r" % granularity)
        self.granularity = granularity
        self.group_blocks = group_size(granularity, group_blocks)
        self.agg_threshold = agg_threshold

    def run(self, program, allocator=None):
        allocator = allocator or NameAllocator.for_program(program)
        meta = ModuleMeta(macros={})
        if self.granularity == "multiblock":
            meta.macros[AGG_GRANULARITY_MACRO] = self.group_blocks
        if self.agg_threshold is not None:
            meta.macros[AGG_THRESHOLD_MACRO] = self.agg_threshold
        agg_kernels = {}
        sites_by_parent = {}
        for site in find_launch_sites(program):
            sites_by_parent.setdefault(site.parent.name, []).append(site)
        for parent_name, sites in sites_by_parent.items():
            for site_index, site in enumerate(sites):
                self._transform_site(program, site, site_index, allocator,
                                     agg_kernels, meta)
        return meta

    # -- one launch site ----------------------------------------------------

    def _transform_site(self, program, site, site_index, allocator,
                        agg_kernels, meta):
        parent = site.parent
        child = resolve_child(program, site)
        if analyze_kernel(program, child).is_multidimensional:
            # The scanned-grid-dimension array and the blockIdx binary
            # search are one-dimensional; multi-dimensional children keep
            # their direct launches.
            meta.skipped_sites.append(
                (parent.name, child.name, "multi-dimensional kernel"))
            return
        if child.name not in agg_kernels:
            agg_fn = self._build_agg_kernel(child, allocator)
            insert_after(program, child.name, agg_fn)
            agg_kernels[child.name] = agg_fn.name
        agg_name = agg_kernels[child.name]

        names = self._site_names(parent, site_index)
        spec = AggSpec(
            parent=parent.name,
            site_index=site_index,
            agg_kernel=agg_name,
            original_child=child.name,
            granularity=self.granularity,
            group_blocks=self.group_blocks,
            arg_types=[p.type.clone() for p in child.params],
            buffer_params=self._buffer_param_names(names, child),
            host_launch=(self.granularity == "grid"),
            agg_threshold=self.agg_threshold is not None,
        )
        self._append_buffer_params(parent, names, child)
        symtab = SymbolTable(program, parent)
        store = self._store_block(site.launch, child, names, symtab)
        self._rewrite_parent(parent, site.launch, store, names, child,
                             agg_name)
        meta.agg_specs.append(spec)

    def _site_names(self, parent, site_index):
        """Buffer/local names for one site, collision-free within parent."""
        taken = declared_names(parent)
        prefix = "_agg%d" % site_index

        def fresh(stem):
            name = prefix + stem
            while name in taken:
                name = "_" + name
            taken.add(name)
            return name

        return {
            "args": fresh("_args"),       # per-arg arrays get k suffix
            "scan": fresh("_scan"),
            "bdimarr": fresh("_bdimarr"),
            "nparents": fresh("_nparents"),
            "sumgdim": fresh("_sumgdim"),
            "maxbdim": fresh("_maxbdim"),
            "nfinished": fresh("_nfinished"),
            "part": fresh("_part"),
            "grp": fresh("_grp"),
            "seg": fresh("_seg"),
            "gsz": fresh("_gsz"),
            "mypi": fresh("_mypi"),
            "mygd": fresh("_mygd"),
            "mybd": fresh("_mybd"),
        }

    def _buffer_param_names(self, names, child):
        buffers = ["%s%d" % (names["args"], k)
                   for k in range(len(child.params))]
        buffers += [names["scan"], names["bdimarr"], names["nparents"],
                    names["sumgdim"], names["maxbdim"]]
        if self.granularity != "grid":
            buffers.append(names["nfinished"])
        if self.agg_threshold is not None:
            buffers.append(names["part"])
        return buffers

    def _append_buffer_params(self, parent, names, child):
        for k, param in enumerate(child.params):
            parent.params.append(ast.Param(
                param.type.pointer_to(), "%s%d" % (names["args"], k)))
        int_ptr = ast.INT.pointer_to()
        for key in ("scan", "bdimarr", "nparents", "sumgdim", "maxbdim"):
            parent.params.append(ast.Param(int_ptr.clone(), names[key]))
        if self.granularity != "grid":
            parent.params.append(
                ast.Param(int_ptr.clone(), names["nfinished"]))
        if self.agg_threshold is not None:
            parent.params.append(ast.Param(int_ptr.clone(), names["part"]))

    # -- parent pieces -----------------------------------------------------

    def _prologue(self, names):
        """Group index, segment base, and (with agg threshold) saved state."""
        grp, seg, gsz = names["grp"], names["seg"], names["gsz"]
        stmts = []
        if self.granularity == "grid":
            stmts.append(b.decl_int(grp, 0))
            stmts.append(b.decl_int(seg, 0))
        elif self.granularity == "warp":
            warps_per_block = b.ceil_div(b.member("blockDim", "x"), b.lit(32))
            global_warp = b.add(
                b.mul(b.member("blockIdx", "x"), warps_per_block),
                b.div(b.member("threadIdx", "x"), b.lit(32)))
            stmts.append(b.decl_int(grp, global_warp))
            stmts.append(b.decl_int(seg, b.mul(b.ident(grp), b.lit(32))))
            warp_base = b.mul(b.div(b.member("threadIdx", "x"), b.lit(32)),
                              b.lit(32))
            stmts.append(b.decl_int(
                gsz, b.call("min", b.lit(32),
                            b.sub(b.member("blockDim", "x"), warp_base))))
        else:
            group = (b.ident(AGG_GRANULARITY_MACRO)
                     if self.granularity == "multiblock" else b.lit(1))
            stmts.append(b.decl_int(
                grp, b.div(b.member("blockIdx", "x"), group.clone())))
            stmts.append(b.decl_int(
                seg, b.mul(b.ident(grp),
                           b.mul(group.clone(), b.member("blockDim", "x")))))
            stmts.append(b.decl_int(
                gsz, b.call("min", group.clone(),
                            b.sub(b.member("gridDim", "x"),
                                  b.mul(b.ident(grp), group.clone())))))
        if self.agg_threshold is not None:
            stmts.append(b.decl_int(names["mypi"], -1))
            stmts.append(b.decl_int(names["mygd"], 0))
            stmts.append(b.decl_int(names["mybd"], 0))
        for stmt in stmts:
            set_region(stmt, "agg")
        return stmts

    def _store_block(self, launch, child, names, symtab):
        """Fig. 7 lines 14-25: the launch site becomes config/arg stores."""
        grp, seg = names["grp"], names["seg"]
        gd = names["grp"] + "_gd"
        bd = names["grp"] + "_bd"
        pi = names["grp"] + "_pi"
        sp = names["grp"] + "_sp"
        stmts = [
            b.decl_int(gd, _scalar_of(launch.grid, symtab)),
            b.decl_int(bd, _scalar_of(launch.block, symtab)),
        ]
        slot = b.add(b.ident(seg), b.ident(pi))
        store = [
            b.decl_int(pi, b.call(
                "atomicAdd", b.address_of(b.index(names["nparents"],
                                                  b.ident(grp))), 1)),
            b.decl_int(sp, b.call(
                "atomicAdd", b.address_of(b.index(names["sumgdim"],
                                                  b.ident(grp))),
                b.ident(gd))),
        ]
        for k, arg in enumerate(launch.args):
            store.append(b.expr_stmt(b.assign(
                b.index("%s%d" % (names["args"], k), slot.clone()), arg)))
        store.append(b.expr_stmt(b.assign(
            b.index(names["scan"], slot.clone()),
            b.add(b.ident(sp), b.ident(gd)))))
        store.append(b.expr_stmt(b.assign(
            b.index(names["bdimarr"], slot.clone()), b.ident(bd))))
        store.append(b.expr_stmt(b.call(
            "atomicMax", b.address_of(b.index(names["maxbdim"],
                                              b.ident(grp))),
            b.ident(bd))))
        if self.agg_threshold is not None:
            store.append(b.expr_stmt(b.call(
                "atomicAdd", b.address_of(b.index(names["part"],
                                                  b.ident(grp))), 1)))
            store.append(b.expr_stmt(b.assign(names["mypi"], b.ident(pi))))
            store.append(b.expr_stmt(b.assign(names["mygd"], b.ident(gd))))
            store.append(b.expr_stmt(b.assign(names["mybd"], b.ident(bd))))
        stmts.append(b.if_stmt(b.binop(">", b.ident(gd), 0), store))
        block = b.block(*stmts)
        set_region(block, "agg")
        return block

    def _epilogue(self, names, child, agg_name):
        """Fence, sync, completion count, and the aggregated launch."""
        grp, seg = names["grp"], names["seg"]
        if self.granularity == "grid":
            return []

        launch_stmt = self._agg_launch(names, child, agg_name)
        nf = names["grp"] + "_nf"
        count_and_launch = [
            b.decl_int(nf, b.add(b.call(
                "atomicAdd",
                b.address_of(b.index(names["nfinished"], b.ident(grp))),
                1), 1)),
            b.if_stmt(b.eq(b.ident(nf), b.ident(names["gsz"])),
                      [b.if_stmt(
                          b.binop(">", b.index(names["sumgdim"],
                                               b.ident(grp)), 0),
                          [launch_stmt])]),
        ]
        stmts = [b.expr_stmt(b.call("__threadfence"))]
        if self.granularity == "warp":
            # Per-thread completion counting; no block barrier required.
            stmts.extend(count_and_launch)
        else:
            stmts.append(b.expr_stmt(b.call("__syncthreads")))
            stmts.append(b.if_stmt(
                b.eq(b.member("threadIdx", "x"), 0), count_and_launch))
        if self.agg_threshold is not None:
            stmts = self._threshold_epilogue(names, child, stmts)
        for stmt in stmts:
            set_region(stmt, "agg")
        return stmts

    def _threshold_epilogue(self, names, child, agg_path):
        """Sec. V-B: aggregate only if enough parents participate."""
        grp, seg = names["grp"], names["seg"]
        slot = b.add(b.ident(seg), b.ident(names["mypi"]))
        direct_args = [
            b.index("%s%d" % (names["args"], k), slot.clone())
            for k in range(len(child.params))
        ]
        direct_launch = b.expr_stmt(ast.Launch(
            child.name, b.ident(names["mygd"]), b.ident(names["mybd"]),
            direct_args))
        return [
            b.expr_stmt(b.call("__threadfence")),
            b.expr_stmt(b.call("__syncthreads")),
            b.if_stmt(
                b.ge(b.index(names["part"], b.ident(grp)),
                     b.ident(AGG_THRESHOLD_MACRO)),
                agg_path,
                [b.if_stmt(b.ge(b.ident(names["mypi"]), 0),
                           [direct_launch])]),
        ]

    def _agg_launch(self, names, child, agg_name):
        grp, seg = names["grp"], names["seg"]
        args = [b.add(b.ident("%s%d" % (names["args"], k)), b.ident(seg))
                for k in range(len(child.params))]
        args.append(b.add(b.ident(names["scan"]), b.ident(seg)))
        args.append(b.add(b.ident(names["bdimarr"]), b.ident(seg)))
        args.append(b.index(names["nparents"], b.ident(grp)))
        return b.expr_stmt(ast.Launch(
            agg_name,
            b.index(names["sumgdim"], b.ident(grp)),
            b.index(names["maxbdim"], b.ident(grp)),
            args))

    def _rewrite_parent(self, parent, target_launch, store, names, child,
                        agg_name):
        def rewrite(launch):
            if launch is not target_launch:
                return None
            return store

        rewrite_launches(parent, rewrite)
        epilogue = self._epilogue(names, child, agg_name)
        body = parent.body
        if epilogue:
            rewriter = _ReturnToBreak()
            body = rewriter.visit(body)
            if rewriter.nested_return:
                raise TransformError(
                    "parent kernel %r has a return inside a loop; cannot "
                    "route all threads to the aggregation epilogue"
                    % parent.name)
            wrapped = ast.DoWhile(body, ast.BoolLit(False))
            parent.body = b.block(self._prologue(names), wrapped, epilogue)
        else:
            parent.body = b.block(self._prologue(names), body)

    # -- aggregated child kernel ------------------------------------------

    def _build_agg_kernel(self, child, allocator):
        taken = declared_names(child)

        def local(stem):
            name = stem
            while name in taken:
                name = "_" + name
            taken.add(name)
            return name

        args_arr = local("_argsArr")
        scan_arr = local("_scanArr")
        bdim_arr = local("_bdimArr")
        nparents = local("_nParents")
        lo, hi, mid = local("_lo"), local("_hi"), local("_mid")
        pidx, prev = local("_parentIdx"), local("_prevScan")
        bx, gdx, bdx = local("_bx"), local("_gDimX"), local("_bDimX")

        params = []
        for k, p in enumerate(child.params):
            params.append(ast.Param(p.type.pointer_to(),
                                    "%s%d" % (args_arr, k)))
        params.append(ast.Param(ast.INT.pointer_to(), scan_arr))
        params.append(ast.Param(ast.INT.pointer_to(), bdim_arr))
        params.append(ast.Param(ast.INT.clone(), nparents))

        search = [
            b.decl_int(lo, 0),
            b.decl_int(hi, b.sub(b.ident(nparents), 1)),
            ast.While(
                b.lt(b.ident(lo), b.ident(hi)),
                b.block(
                    b.decl_int(mid, b.div(b.add(lo, hi), b.lit(2))),
                    b.if_stmt(
                        b.binop(">", b.index(scan_arr, b.ident(mid)),
                                b.member("blockIdx", "x")),
                        b.block(b.expr_stmt(b.assign(hi, b.ident(mid)))),
                        b.block(b.expr_stmt(
                            b.assign(lo, b.add(mid, 1))))))),
            b.decl_int(pidx, b.ident(lo)),
            b.decl_int(prev, ast.Ternary(
                b.eq(b.ident(pidx), 0), b.lit(0),
                b.index(scan_arr, b.sub(b.ident(pidx), 1)))),
            b.decl_int(bx, b.sub(b.member("blockIdx", "x"), b.ident(prev))),
            b.decl_int(gdx, b.sub(b.index(scan_arr, b.ident(pidx)),
                                  b.ident(prev))),
            b.decl_int(bdx, b.index(bdim_arr, b.ident(pidx))),
        ]
        loads = [
            b.decl(p.type.clone(), p.name,
                   b.index("%s%d" % (args_arr, k), b.ident(pidx)))
            for k, p in enumerate(child.params)
        ]
        for stmt in search + loads:
            set_region(stmt, "disagg")

        body = child.body.clone()
        substitute_reserved(
            body,
            member_map={
                ("blockIdx", "x"): b.ident(bx),
                ("gridDim", "x"): b.ident(gdx),
                ("blockDim", "x"): b.ident(bdx),
            })
        guard = b.if_stmt(
            b.lt(b.member("threadIdx", "x"), b.ident(bdx)), body)
        return ast.FunctionDef(
            ("__global__",), ast.VOID.clone(),
            allocator.fresh(child.name + "_agg"),
            params, b.block(search, loads, guard))
