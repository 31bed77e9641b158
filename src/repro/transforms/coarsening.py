"""Coarsening transformation (Sec. IV, Fig. 6).

The child kernel gains a trailing ``dim3 _gDim`` parameter carrying the
*original* grid dimension and a block-stride loop::

    __global__ void child(params, dim3 _gDim) {
        for (int _bx = blockIdx.x; _bx < _gDim.x; _bx += gridDim.x) {
            child body   // blockIdx.x -> _bx, gridDim -> _gDim
        }
    }

and every dynamic launch site is rewritten to launch the ceiling-divided
coarsened grid, passing the original grid dimension::

    dim3 _ogDim = gDim;
    dim3 _cgDim = _ogDim;
    _cgDim.x = (_ogDim.x + _CFACTOR - 1) / _CFACTOR;
    child<<<_cgDim, bDim>>>(args, _ogDim);

Coarsening is legal for kernels with barriers (all threads of a block share
the same loop trip count, so barriers stay convergent), which is why — unlike
thresholding — no barrier legality check is made. Thread-exit ``return``
statements inside the body would skip later loop iterations, so they are
rewritten to ``continue`` with the same nested-return restriction as the
thresholding serializer.
"""

from ..minicuda import ast
from ..minicuda import builders as b
from ..analysis import (NameAllocator, declared_names, find_launch_sites,
                        resolve_child)
from .base import ModuleMeta, rewrite_launches, substitute_reserved
from .thresholding import _ReturnToContinue

CFACTOR_MACRO = "_CFACTOR"

#: Default coarsening factor: Sec. VIII-C observes performance is insensitive
#: to the factor provided it is sufficiently large (> 8).
DEFAULT_CFACTOR = 16


class CoarseningPass:
    """Thread-block coarsening applied to dynamically launched kernels."""

    def __init__(self, factor=DEFAULT_CFACTOR):
        self.factor = factor

    def run(self, program, allocator=None):
        allocator = allocator or NameAllocator.for_program(program)
        meta = ModuleMeta(macros={CFACTOR_MACRO: self.factor})
        coarsened = {}
        for site in find_launch_sites(program):
            child = resolve_child(program, site)
            if child.name not in coarsened:
                reason = self._rejection_reason(program, child)
                if reason is not None:
                    meta.skipped_sites.append(
                        (site.parent.name, child.name, reason))
                    coarsened[child.name] = None
                    continue
                gdim_param = self._coarsen_kernel(child)
                if gdim_param is None:
                    meta.skipped_sites.append(
                        (site.parent.name, child.name, "return inside loop"))
                    coarsened[child.name] = None
                    continue
                coarsened[child.name] = gdim_param
                meta.coarsened_kernels[child.name] = {
                    "gdim_param": gdim_param}
            if coarsened[child.name] is None:
                continue
            self._rewrite_site(site, allocator)
        return meta

    def _rejection_reason(self, program, child):
        # Coarsening is applied along the x dimension only; a
        # multi-dimensional child is still legal because blockIdx.y/z and
        # the y/z extents of the launch are left untouched — the coarsened
        # launch divides only _cgDim.x and ``_gDim`` carries the original
        # extents for every dimension.
        return None

    # -- kernel rewrite ----------------------------------------------------

    def _coarsen_kernel(self, child):
        """Mutate *child* in place; returns the new parameter's name."""
        taken = declared_names(child)

        def local(stem):
            name = stem
            while name in taken:
                name = "_" + name
            taken.add(name)
            return name

        gdim = local("_gDim")
        bx = local("_bx")

        body = child.body
        rewriter = _ReturnToContinue()
        body = rewriter.visit(body)
        if rewriter.nested_return:
            return None
        substitute_reserved(
            body,
            member_map={("blockIdx", "x"): b.ident(bx)},
            ident_map={"gridDim": b.ident(gdim)})
        loop = ast.For(
            b.decl_int(bx, b.member("blockIdx", "x")),
            b.lt(b.ident(bx), b.member(gdim, "x")),
            b.assign(bx, b.member("gridDim", "x"), op="+="),
            body)
        child.params.append(ast.Param(ast.DIM3.clone(), gdim))
        child.body = b.block(loop)
        return gdim

    # -- launch-site rewrite ------------------------------------------------

    def _rewrite_site(self, site, allocator):
        target_launch = site.launch

        def rewrite(launch):
            if launch is not target_launch:
                return None
            og = allocator.fresh("_ogDim")
            cg = allocator.fresh("_cgDim")
            stmts = [
                b.decl_dim3(og, launch.grid),
                b.decl_dim3(cg, b.ident(og)),
                b.expr_stmt(b.assign(
                    b.member(cg, "x"),
                    b.ceil_div(b.member(og, "x"), b.ident(CFACTOR_MACRO)))),
                b.expr_stmt(ast.Launch(
                    launch.kernel, b.ident(cg), launch.block,
                    list(launch.args) + [b.ident(og)],
                    launch.shmem, launch.stream)),
            ]
            return b.block(*stmts)

        rewrite_launches(site.parent, rewrite)
