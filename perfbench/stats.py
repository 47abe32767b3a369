"""Order statistics that carry their sample counts.

Every timing the benchmark reports is a median plus, where the sample is
large enough, the highest tail percentile that still has at least ten
samples beyond it.  Percentiles interpolate linearly between closest
ranks (NumPy's default), so they need no NumPy.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    >>> percentile([1, 2, 3, 4], 50)
    2.5
    >>> percentile([5.0], 95)
    5.0
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def tail_percentile(count: int) -> Optional[float]:
    """The highest tail percentile with :data:`MIN_BEYOND` samples beyond.

    >>> tail_percentile(250)
    95.0
    >>> tail_percentile(50) is None
    True
    """
    for q in TAIL_PERCENTILES:
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return None


@dataclasses.dataclass(frozen=True)
class Summary:
    """A timing sample reduced to its median and tail, with its size."""

    samples: int
    median: float
    tail_q: Optional[float]
    tail: Optional[float]

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        q = tail_percentile(len(values))
        return cls(
            samples=len(values),
            median=median(values),
            tail_q=q,
            tail=percentile(values, q) if q is not None else None,
        )
