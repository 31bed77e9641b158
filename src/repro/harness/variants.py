"""The evaluation's code-version matrix (Sec. VII).

The paper compares: No CDP, CDP, KLAP (CDP+A — aggregation alone, as in
prior work), and every combination of the three optimizations. ``KLAP``
restricts aggregation to the granularities prior work supports (warp, block,
grid); the ``+A`` of this paper's combinations may also use multi-block.
"""

from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError
from ..transforms import OptConfig

#: Figure 9 / 12 series, in the paper's legend order.
VARIANT_LABELS = (
    "No CDP", "CDP", "KLAP (CDP+A)", "CDP+T", "CDP+C", "CDP+T+C",
    "CDP+T+A", "CDP+C+A", "CDP+T+C+A",
)

#: Granularities available to prior work (KLAP) vs. this paper.
KLAP_GRANULARITIES = ("warp", "block", "grid")
ALL_GRANULARITIES = ("warp", "block", "multiblock", "grid")

#: The group size non-multiblock points are pinned to (only multi-block
#: aggregation reads ``group_blocks``; everyone else must share one value
#: so effective-identical configurations share one cache key).
DEFAULT_GROUP_BLOCKS = 8


@dataclass(frozen=True)
class TuningParams:
    """One point in the tuning space of Sec. VII."""

    threshold: Optional[int] = None
    coarsen_factor: Optional[int] = None
    granularity: Optional[str] = None
    group_blocks: int = DEFAULT_GROUP_BLOCKS

    def describe(self):
        """Compact human-readable form ('-' when nothing is enabled).

        >>> TuningParams(threshold=64, granularity="multiblock",
        ...              group_blocks=4).describe()
        'T=64,A=multiblock(4)'
        >>> TuningParams().describe()
        '-'
        """
        parts = []
        if self.threshold is not None:
            parts.append("T=%d" % self.threshold)
        if self.coarsen_factor is not None:
            parts.append("C=%d" % self.coarsen_factor)
        if self.granularity is not None:
            gran = self.granularity
            if gran == "multiblock":
                gran = "multiblock(%d)" % self.group_blocks
            parts.append("A=%s" % gran)
        return ",".join(parts) if parts else "-"


def uses(label, letter):
    """Does a variant label include optimization T/C/A?

    >>> uses("CDP+T+C", "T"), uses("CDP+T+C", "A")
    (True, False)
    >>> uses("KLAP (CDP+A)", "A")
    True
    """
    if label == "No CDP" or label == "CDP":
        return False
    if label == "KLAP (CDP+A)":
        return letter == "A"
    return letter in label.split("+")


#: The :class:`TuningParams` field each optimization reads.
_PARAM_OF = {"T": "threshold", "C": "coarsen_factor", "A": "granularity"}


def require_params(label, params):
    """Raise :class:`~repro.errors.ReproError` if *label* uses an
    optimization whose parameter *params* leaves unset: without it the
    point would run without that optimization yet be reported under
    *label*.

    >>> require_params("CDP+T+A", TuningParams(threshold=16))
    Traceback (most recent call last):
    ...
    repro.errors.ReproError: CDP+T+A uses +A but its params leave granularity unset
    """
    for letter, field in _PARAM_OF.items():
        if uses(label, letter) and getattr(params, field) is None:
            raise ReproError("%s uses +%s but its params leave %s unset"
                             % (label, letter, field))


def mask_params(label, params):
    """Canonicalize *params* for *label*: null out components the variant
    does not use and pin ``group_blocks`` to the default unless the
    granularity is multi-block (the only one that reads it). Raises
    :class:`~repro.errors.ReproError` when a component *label* uses is
    unset (:func:`require_params`).

    Grid builders and figure drivers share this so identical *effective*
    configurations always produce identical :class:`TuningParams` — and
    therefore one sweep-cache key — whatever the surrounding grid carried.

    >>> mask_params("CDP+T", TuningParams(threshold=32,
    ...                                   coarsen_factor=8)).describe()
    'T=32'
    """
    require_params(label, params)
    granularity = params.granularity if uses(label, "A") else None
    return TuningParams(
        threshold=params.threshold if uses(label, "T") else None,
        coarsen_factor=params.coarsen_factor if uses(label, "C") else None,
        granularity=granularity,
        group_blocks=params.group_blocks if granularity == "multiblock"
        else DEFAULT_GROUP_BLOCKS)


def variant_to_run(label, params):
    """Map a series label + params to ('nocdp'|'cdp', OptConfig or None).
    Raises :class:`~repro.errors.ReproError` when a component *label*
    uses is unset (:func:`require_params`)."""
    if label == "No CDP":
        return "nocdp", None
    if label == "CDP":
        return "cdp", None
    require_params(label, params)
    return "cdp", OptConfig(
        threshold=params.threshold if uses(label, "T") else None,
        coarsen_factor=params.coarsen_factor if uses(label, "C") else None,
        aggregate=params.granularity if uses(label, "A") else None,
        group_blocks=params.group_blocks,
    )
