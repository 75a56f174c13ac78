"""Tunable simulation constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

# the finest scanner cell: a sweep holds one entry per cell, and finer cells
# would make a single arc's lists outgrow memory, or an index (1e-300 m)
MIN_CELL_M = 0.001


@dataclass(frozen=True)
class SimConfig:
    threshold_mm: float = 10.0        # detection threshold on the depth map
    cell_m: float = 0.5               # scanner cell size
    dedup_radius_m: float = 1.0       # same-arc report merge distance
    p2p_range_m: float = 20.0         # warning broadcast radius (closed bound)
    loss_timeout_ms: int = 500        # silence before a connection is declared lost
    phase_latency_ms: int = 100       # one request/response exchange per phase
    transfer_budget: int = 4          # envelopes per exchange while connected
    shared_key: bytes = bytes(range(32))  # pre-shared simulation key, not a secret

    def __post_init__(self):
        # the scanner divides by the cell and thresholds the depth map; a
        # DETECT on an arc with no pit is answered without either, so bad
        # values are refused here rather than on the first pitted sweep
        for name in ("threshold_mm", "cell_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        if self.cell_m < MIN_CELL_M:
            raise ValueError(f"cell_m must be at least {MIN_CELL_M} m, got {self.cell_m!r}")
