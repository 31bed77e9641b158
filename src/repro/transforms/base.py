"""Shared infrastructure for the three transformation passes.

Each pass is source-to-source (Sec. VI): it takes a program AST and rewrites
it in place, recording what it did in a :class:`ModuleMeta` that the host
runtime consumes (tunable macro values, aggregation buffer layouts,
grid-granularity host launches). Passes are composed by
:mod:`repro.transforms.pipeline` in the paper's order T → C → A.
"""

from dataclasses import dataclass, field
from ..minicuda import ast
from ..minicuda.visitor import Transformer


# -- metadata the runtime needs --------------------------------------------

@dataclass
class AggSpec:
    """Layout of one aggregated launch site.

    The aggregation pass appends buffer parameters to the parent kernel's
    signature; the host runtime allocates/zeroes them per launch using the
    sizes implied by the launch configuration, and — for grid granularity —
    performs the aggregated child launch itself after the parent completes.
    """

    parent: str
    site_index: int
    agg_kernel: str
    original_child: str
    granularity: str            # 'warp' | 'block' | 'multiblock' | 'grid'
    group_blocks: int           # blocks per group (multiblock; 1 for block)
    arg_types: list             # child param Types at aggregation time
    buffer_params: list         # appended parent param names, in order
    host_launch: bool = False   # grid granularity: host launches agg kernel
    agg_threshold: bool = False


@dataclass
class PromotionSpec:
    """Buffer layout for one promoted self-recursive kernel (KLAP's
    promotion optimization, Sec. IX): one slot per original parameter plus
    the relaunch flag."""

    kernel: str
    arg_types: list
    buffer_params: list


@dataclass
class ModuleMeta:
    """Everything the engine/runtime must know beyond the source text."""

    macros: dict = field(default_factory=dict)
    serial_functions: list = field(default_factory=list)
    coarsened_kernels: dict = field(default_factory=dict)
    agg_specs: list = field(default_factory=list)
    promotion_specs: list = field(default_factory=list)
    thresholded_sites: int = 0
    skipped_sites: list = field(default_factory=list)

    def merge(self, other):
        self.macros.update(other.macros)
        self.serial_functions.extend(other.serial_functions)
        self.coarsened_kernels.update(other.coarsened_kernels)
        self.agg_specs.extend(other.agg_specs)
        self.promotion_specs.extend(other.promotion_specs)
        self.thresholded_sites += other.thresholded_sites
        self.skipped_sites.extend(other.skipped_sites)

    def agg_specs_for(self, parent_name):
        return [s for s in self.agg_specs if s.parent == parent_name]

    def promotion_spec_for(self, kernel_name):
        for spec in self.promotion_specs:
            if spec.kernel == kernel_name:
                return spec
        return None


def _type_to_dict(type_):
    return {"name": type_.name, "pointers": type_.pointers,
            "const": type_.const}


def _type_from_dict(data):
    return ast.Type(data["name"], data["pointers"], data["const"])


def meta_to_dict(meta):
    """Serialize a :class:`ModuleMeta` to plain JSON-able data (used by the
    CLI to persist the sidecar metadata next to transformed sources)."""
    return {
        "macros": dict(meta.macros),
        "serial_functions": list(meta.serial_functions),
        "coarsened_kernels": dict(meta.coarsened_kernels),
        "thresholded_sites": meta.thresholded_sites,
        "skipped_sites": [list(s) for s in meta.skipped_sites],
        "agg_specs": [
            {
                "parent": s.parent,
                "site_index": s.site_index,
                "agg_kernel": s.agg_kernel,
                "original_child": s.original_child,
                "granularity": s.granularity,
                "group_blocks": s.group_blocks,
                "arg_types": [_type_to_dict(t) for t in s.arg_types],
                "buffer_params": list(s.buffer_params),
                "host_launch": s.host_launch,
                "agg_threshold": s.agg_threshold,
            }
            for s in meta.agg_specs
        ],
        "promotion_specs": [
            {
                "kernel": s.kernel,
                "arg_types": [_type_to_dict(t) for t in s.arg_types],
                "buffer_params": list(s.buffer_params),
            }
            for s in meta.promotion_specs
        ],
    }


def meta_from_dict(data):
    """Inverse of :func:`meta_to_dict`."""
    meta = ModuleMeta(
        macros=dict(data.get("macros", {})),
        serial_functions=list(data.get("serial_functions", [])),
        coarsened_kernels=dict(data.get("coarsened_kernels", {})),
        thresholded_sites=data.get("thresholded_sites", 0),
        skipped_sites=[tuple(s) for s in data.get("skipped_sites", [])],
    )
    for spec in data.get("agg_specs", []):
        meta.agg_specs.append(AggSpec(
            parent=spec["parent"],
            site_index=spec["site_index"],
            agg_kernel=spec["agg_kernel"],
            original_child=spec["original_child"],
            granularity=spec["granularity"],
            group_blocks=spec["group_blocks"],
            arg_types=[_type_from_dict(t) for t in spec["arg_types"]],
            buffer_params=list(spec["buffer_params"]),
            host_launch=spec["host_launch"],
            agg_threshold=spec["agg_threshold"],
        ))
    for spec in data.get("promotion_specs", []):
        meta.promotion_specs.append(PromotionSpec(
            kernel=spec["kernel"],
            arg_types=[_type_from_dict(t) for t in spec["arg_types"]],
            buffer_params=list(spec["buffer_params"]),
        ))
    return meta


@dataclass
class TransformResult:
    """A transformed program plus the metadata accumulated by the passes."""

    program: ast.Program
    meta: ModuleMeta

    @property
    def source(self):
        from ..minicuda.printer import print_source
        return print_source(self.program)


# -- substitution utilities ----------------------------------------------

class _ReservedSubstituter(Transformer):
    """Replace uses of reserved index/dimension variables.

    ``member_map`` maps ("blockIdx", "x") → replacement Expr;
    ``ident_map`` maps "gridDim" → replacement Expr (used when the whole
    dim3 variable is re-pointed at a parameter, as in Fig. 3/6).
    """

    def __init__(self, member_map, ident_map):
        self.member_map = member_map
        self.ident_map = ident_map

    def visit_Member(self, node):
        if isinstance(node.obj, ast.Ident):
            key = (node.obj.name, node.attr)
            if key in self.member_map:
                return self.member_map[key].clone()
        return node

    def visit_Ident(self, node):
        if node.name in self.ident_map:
            return self.ident_map[node.name].clone()
        return node


def substitute_reserved(node, member_map=None, ident_map=None):
    """Apply reserved-variable substitution in place; returns the new root."""
    substituter = _ReservedSubstituter(member_map or {}, ident_map or {})
    return substituter.visit(node)


class _IdentitySwap(Transformer):
    """Replace one exact node object (used to swap the Fig. 4 subexpression
    for ``_threads`` without duplicating side effects)."""

    def __init__(self, target, replacement):
        self.target = target
        self.replacement = replacement
        self.done = False

    def visit(self, node):
        if node is self.target:
            self.done = True
            return self.replacement
        return super().visit(node)


def swap_node(root, target, replacement):
    """Replace *target* (by identity) under *root*; returns the new root."""
    swapper = _IdentitySwap(target, replacement)
    new_root = swapper.visit(root)
    return new_root, swapper.done


class _LaunchRewriter(Transformer):
    """Replace ``ExprStmt(Launch)`` statements via a callback.

    The callback receives the Launch node and returns a statement (or list
    of statements) to splice in its place, or None to leave it unchanged.
    """

    def __init__(self, callback):
        self.callback = callback

    def visit_ExprStmt(self, node):
        if isinstance(node.expr, ast.Launch):
            replacement = self.callback(node.expr)
            if replacement is not None:
                return replacement
        return node


def rewrite_launches(func, callback):
    """Rewrite every launch statement in *func* through *callback*."""
    _LaunchRewriter(callback).visit(func)


def insert_after(program, anchor_name, new_decl):
    """Insert a declaration right after the function named *anchor_name*."""
    index = program.index_of(anchor_name)
    program.decls.insert(index + 1, new_decl)
