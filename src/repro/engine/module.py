"""Compiled kernel modules: parse → transpile → exec → callable kernels.

Compilation is split in two so the expensive half can be memoized
(:mod:`repro.engine.cache`):

* :func:`compile_artifact` does everything deterministic and shareable —
  parse, Python codegen, ``compile()`` to a code object — and returns an
  immutable :class:`ModuleArtifact`;
* :class:`Module` instantiates an artifact into a private namespace
  (``exec`` of the cached code object plus fresh global cells), so two
  Modules built from one artifact never share mutable state.
"""

from dataclasses import dataclass
from types import CodeType
from typing import Optional

from ..errors import CodegenError
from ..minicuda import ast, parse
from ..sim.costmodel import CostModel
from .codegen import generate_module_source
from .values import Ptr, alloc_for_type


@dataclass
class KernelHandle:
    """One compiled kernel: the generated Python callable plus launch facts.

    *fn* is the block function ``b_<name>`` when *fused*, else the
    per-thread ``k_<name>`` (see :mod:`repro.engine.codegen`).
    """

    name: str
    fn: callable
    has_barrier: bool
    params: list                      # [(name, Type), ...]
    multi_dim: bool = False           # compiled with the 3-D convention

    @property
    def num_params(self):
        return len(self.params)

    @property
    def fused(self):
        """Does *fn* run a whole block per call? Codegen compiles every
        barrier-free kernel of a 1-D program to a block function."""
        return not self.has_barrier and not self.multi_dim


@dataclass(frozen=True)
class ModuleArtifact:
    """The immutable output of compiling one miniCUDA translation unit.

    Everything here is shareable across :class:`Module` instances (and
    threads): the AST and metadata are only read after construction, and
    the code object is executed into a fresh namespace per Module. This
    is what the compiled-kernel cache (:mod:`repro.engine.cache`) stores.
    """

    program: ast.Program
    meta: Optional[object]            # transforms.ModuleMeta or None
    cost_model: CostModel
    python_source: str
    code: CodeType
    kernel_info: dict                 # kernel name -> codegen facts


def compile_artifact(source_or_program, meta=None, cost_model=None):
    """Parse (if needed) and transpile one translation unit.

    This is the expensive, re-usable half of module compilation: the
    returned :class:`ModuleArtifact` carries no mutable run state and may
    back any number of :class:`Module` instances.
    """
    if isinstance(source_or_program, ast.Program):
        program = source_or_program
    else:
        program = parse(source_or_program)
    cost_model = cost_model or CostModel()
    macros = dict(meta.macros) if meta is not None else {}
    python_source, kernel_info = generate_module_source(
        program, macros, cost_model)
    code = compile(python_source, "<minicuda-codegen>", "exec")
    return ModuleArtifact(program=program, meta=meta, cost_model=cost_model,
                          python_source=python_source, code=code,
                          kernel_info=kernel_info)


class Module:
    """A compiled miniCUDA translation unit.

    ``meta`` is the :class:`~repro.transforms.base.ModuleMeta` produced by
    the transformation pipeline (or None for untransformed code); its macro
    values are baked into the generated Python as constants, mirroring the
    paper's compile-time ``-D_THRESHOLD=...`` overrides.
    """

    def __init__(self, source_or_program, meta=None, cost_model=None,
                 artifact=None):
        if artifact is None:
            artifact = compile_artifact(source_or_program, meta, cost_model)
        self.artifact = artifact
        self.program = artifact.program
        self.meta = artifact.meta
        self.cost_model = artifact.cost_model
        self.python_source = artifact.python_source
        self.namespace = {}
        exec(artifact.code, self.namespace)
        self._allocate_globals()
        self.kernels = {}
        for name, info in artifact.kernel_info.items():
            kernel = KernelHandle(
                name=name, fn=None, has_barrier=info["has_barrier"],
                params=info["params"], multi_dim=info["multi_dim"])
            kernel.fn = self.namespace[
                ("b_" if kernel.fused else "k_") + name]
            self.kernels[name] = kernel

    @classmethod
    def from_artifact(cls, artifact):
        """Instantiate a (possibly cached) :class:`ModuleArtifact` into a
        fresh Module with its own namespace and zeroed globals."""
        return cls(None, artifact=artifact)

    def _allocate_globals(self):
        """File-scope __device__ variables become module-level Ptr cells."""
        for decl in self.program.decls:
            if not isinstance(decl, ast.DeclStmt):
                continue
            for var in decl.decls:
                if var.array_size is not None:
                    if not isinstance(var.array_size, ast.IntLit):
                        raise CodegenError(
                            "global array %r needs a literal size" % var.name)
                    count = var.array_size.value
                else:
                    count = 1
                cell = alloc_for_type(var.type, count)
                if var.init is not None:
                    if not isinstance(var.init, (ast.IntLit, ast.FloatLit)):
                        raise CodegenError(
                            "global %r needs a literal initializer"
                            % var.name)
                    cell[0] = var.init.value
                self.namespace["g_" + var.name] = cell

    def kernel(self, name):
        try:
            return self.kernels[name]
        except KeyError:
            raise CodegenError("module has no kernel %r" % name) from None

    def global_ptr(self, name):
        """The Ptr cell backing a file-scope __device__ variable."""
        return self.namespace["g_" + name]

    def reset_globals(self):
        """Re-zero every file-scope variable (between benchmark runs)."""
        self._allocate_globals()
