"""Flow-variability propagation along a linear chain of processes.

Each station is described by its utilization u and the CV of its effective
process time, ce.  The departure CV of a station with arrival CV ca is

    cd**2 = u**2 * ce**2 + (1 - u**2) * ca**2

and, with no yield loss or rework, the departures of one station are the
arrivals of the next (conservation of material).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ChainNode:
    utilization: float
    cv_effective: float

    def __post_init__(self):
        if not (0.0 <= self.utilization <= 1.0):
            raise ValueError(f"utilization must be in [0, 1], got {self.utilization!r}")
        if not (math.isfinite(self.cv_effective) and self.cv_effective >= 0.0):
            raise ValueError(f"cv_effective must be >= 0, got {self.cv_effective!r}")


@dataclass(frozen=True)
class ChainResult:
    arrivals: tuple[float, ...]
    departures: tuple[float, ...]


def propagate_one(ca: float, node: ChainNode) -> float:
    """Departure CV of one station for a given arrival CV."""
    if ca < 0:
        raise ValueError(f"arrival CV must be nonnegative, got {ca!r}")
    u2 = node.utilization * node.utilization
    # an idle station passes its arrivals on, however large its ce
    ce2 = node.cv_effective * node.cv_effective if u2 else 0.0
    cd = math.sqrt(u2 * ce2 + (1.0 - u2) * ca * ca)
    if not math.isfinite(cd):
        raise ValueError(f"departure CV is not finite: u={node.utilization!r}, ce={node.cv_effective!r}, ca={ca!r}")
    return cd


def propagate_chain(ca0: float, nodes: Sequence[ChainNode]) -> ChainResult:
    """Fold the single-station step down the chain, conserving material."""
    if not nodes:
        raise ValueError("chain must have at least one node")
    arrivals, departures = [], []
    ca = ca0
    for node in nodes:
        arrivals.append(ca)
        ca = propagate_one(ca, node)
        departures.append(ca)
    return ChainResult(tuple(arrivals), tuple(departures))
