"""The compiler driver: compose thresholding, coarsening, and aggregation.

Section VI: the three passes are independent source-to-source transformations
(any combination yields correct code) but the framework applies them in the
fixed order **thresholding → coarsening → aggregation** because

* thresholding before coarsening: coarsening manipulates the grid dimension,
  obscuring the Fig. 4 thread-count pattern;
* thresholding before aggregation: small grids are hard to re-isolate once
  folded into an aggregated grid;
* coarsening before aggregation: the disaggregation logic must sit *outside*
  the coarsening loop so it is amortized over multiple original blocks.
"""

from dataclasses import dataclass, replace
from typing import Optional

from ..analysis import NameAllocator
from ..minicuda import parse
from ..minicuda.ast import Program
from .aggregation import (AGG_GRANULARITY_MACRO, AGG_THRESHOLD_MACRO,
                          DEFAULT_GROUP_BLOCKS, AggregationPass, group_size)
from .base import ModuleMeta, TransformResult
from .coarsening import CFACTOR_MACRO, DEFAULT_CFACTOR, CoarseningPass
from .thresholding import DEFAULT_THRESHOLD, THRESHOLD_MACRO, ThresholdingPass


@dataclass(frozen=True)
class OptConfig:
    """Which optimizations to apply, and their tuning parameters.

    ``None`` disables an optimization. These are the three tunables the
    paper's evaluation sweeps (launch threshold, coarsening factor,
    aggregation granularity; Sec. VII).
    """

    threshold: Optional[int] = None
    coarsen_factor: Optional[int] = None
    aggregate: Optional[str] = None          # granularity name or None
    group_blocks: int = DEFAULT_GROUP_BLOCKS
    agg_threshold: Optional[int] = None

    @property
    def structure(self):
        """What the transformed program depends on: which passes run, the
        aggregation granularity, and whether an aggregation threshold is
        set. The tuning values (``threshold``, ``coarsen_factor``,
        ``group_blocks``, ``agg_threshold``) are the paper's compile-time
        macros, which change no program's shape: configs of one structure
        transform to one program, and :meth:`bind` gives each its values.
        """
        return (self.threshold is not None, self.coarsen_factor is not None,
                self.aggregate, self.agg_threshold is not None)

    def bind(self, meta):
        """A copy of *meta*, the :class:`ModuleMeta` of transforming any
        config of this :attr:`structure`, with this config's tuning
        values: its macros and every aggregated site's group size."""
        values = {THRESHOLD_MACRO: self.threshold,
                  CFACTOR_MACRO: self.coarsen_factor,
                  AGG_GRANULARITY_MACRO: self.group_blocks,
                  AGG_THRESHOLD_MACRO: self.agg_threshold}
        return replace(
            meta, macros={name: values[name] for name in meta.macros},
            agg_specs=[replace(spec, group_blocks=group_size(
                spec.granularity, self.group_blocks))
                for spec in meta.agg_specs])

    @property
    def label(self):
        """The paper's naming: CDP, CDP+T, CDP+T+C+A, ..."""
        parts = ["CDP"]
        if self.threshold is not None:
            parts.append("T")
        if self.coarsen_factor is not None:
            parts.append("C")
        if self.aggregate is not None:
            parts.append("A")
        return "+".join(parts)

    def with_params(self, **kwargs):
        return replace(self, **kwargs)

    @classmethod
    def from_label(cls, label, threshold=DEFAULT_THRESHOLD,
                   coarsen_factor=DEFAULT_CFACTOR, aggregate="block",
                   **kwargs):
        """Build a config from a 'CDP+T+C+A'-style label with defaults."""
        parts = set(label.upper().split("+"))
        if "CDP" not in parts:
            raise ValueError("label must start with CDP: %r" % label)
        return cls(
            threshold=threshold if "T" in parts else None,
            coarsen_factor=coarsen_factor if "C" in parts else None,
            aggregate=aggregate if "A" in parts else None,
            **kwargs)


def transform(source_or_program, config, order=("T", "C", "A")):
    """Run the configured passes over CUDA source (or a Program AST).

    Returns a :class:`TransformResult` whose ``program`` is a fresh AST (the
    input is never mutated) and whose ``meta`` carries the macro values and
    aggregation buffer layouts the host runtime needs.
    """
    if isinstance(source_or_program, Program):
        program = source_or_program.clone()
    else:
        program = parse(source_or_program)
    allocator = NameAllocator.for_program(program)
    meta = ModuleMeta()

    passes = {
        "T": (ThresholdingPass(config.threshold)
              if config.threshold is not None else None),
        "C": (CoarseningPass(config.coarsen_factor)
              if config.coarsen_factor is not None else None),
        "A": (AggregationPass(config.aggregate, config.group_blocks,
                              config.agg_threshold)
              if config.aggregate is not None else None),
    }
    for key in order:
        pass_obj = passes[key]
        if pass_obj is not None:
            meta.merge(pass_obj.run(program, allocator))
    return TransformResult(program, meta)
