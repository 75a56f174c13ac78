"""Simulated under-carriage laser scanner.

The scanner sweeps a ground-truth road surface over a longitudinal window
and produces two grids: a depth map (mm per cell) and an intensity image
(returned-signal energy per cell, in [0, 1]).  Surfaces are scenario-defined
lists of pits; each grid cell samples the surface at its center offset and
reads the deepest covering pit (depth) and that pit's reflectivity
(intensity; 1.0 on undamaged pavement).

Pothole extraction thresholds the depth map and groups longitudinally
adjacent supra-threshold cells into one report per connected run:

    depth     = max cell depth in the run
    offset    = depth-weighted centroid of the run, in arc coordinates
    intensity = mean intensity over the run

The scanner sweeps one lateral row, and extraction takes one-row grids of
one width.  A grid refuses a depth that is not a finite number >= 0 or an
intensity outside [0, 1]; the scenario reader checks the pits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple


class SensorValueError(ValueError):
    """A grid cell holds a value no scanner reads."""


_FLOAT_MAX = sys.float_info.max


class Pit(NamedTuple):
    center_m: float
    half_length_m: float
    depth_mm: float
    reflectivity: float


@dataclass
class GroundTruthSurface:
    """Scenario-defined truth the sensor observes, for one arc."""

    arc: str
    arc_length_m: float
    pits: list[Pit] = field(default_factory=list)


@dataclass
class DepthMap:
    rows: int
    cols: int
    cell_m: float
    depths: list[float]  # row-major, mm

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if len(self.depths) != self.rows * self.cols:
            raise ValueError("depth grid size mismatch")
        # a plain loop: the server builds both grids for every report it
        # opens, and this beats both `all()` over a generator and min, max
        # and a NaN test on the sum; NaN fails both bounds wherever it sits
        for depth in self.depths:
            if not 0.0 <= depth <= _FLOAT_MAX:
                raise SensorValueError(f"depth cells must be finite numbers >= 0, got {depth!r}")


@dataclass
class IntensityImage:
    rows: int
    cols: int
    values: list[float]  # row-major, [0, 1]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be positive")
        if len(self.values) != self.rows * self.cols:
            raise ValueError("intensity grid size mismatch")
        for value in self.values:
            if not 0.0 <= value <= 1.0:
                raise SensorValueError(f"intensity cells must be numbers in [0, 1], got {value!r}")


class PotholeDetection(NamedTuple):
    """One extracted pothole report: (arc id, offset m, depth mm, intensity).

    The raw run cells ride along so a transmitted report can embed the
    actual sensor data; depth_mm is their max and intensity their mean.
    """

    arc: str
    offset_m: float
    depth_mm: float
    intensity: float
    cells_depth: tuple[float, ...] = ()
    cells_intensity: tuple[float, ...] = ()


def cell_count(span_m: float, cell_m: float) -> int:
    """Whole cells in a span; the epsilon absorbs float division error."""
    return math.floor(span_m / cell_m + 1e-9)


def sweep(surface: GroundTruthSurface, window: tuple[float, float],
          cell_m: float) -> tuple[DepthMap, IntensityImage]:
    """Sample the surface over a window into a pair of one-row grids.

    Cell i spans [start + i*cell, start + (i+1)*cell) and samples the
    surface at its center.  Only whole cells are produced: a trailing
    sub-cell remainder of the window is not sensed, which keeps every
    sampled offset strictly inside the window.  Where pits overlap, the
    deepest one wins both depth and reflectivity; ties go to the pit
    listed first, and a pit 0 mm deep reads as undamaged pavement.
    """
    start, end = window
    if not (0.0 <= start < end <= surface.arc_length_m):
        raise ValueError(f"window [{start}, {end}) invalid for arc "
                         f"{surface.arc!r} of length {surface.arc_length_m} m")
    cols = cell_count(end - start, cell_m)
    if cols < 1:
        raise ValueError(f"window [{start}, {end}) shorter than one {cell_m} m cell")
    depth_row = [0.0] * cols
    inten_row = [1.0] * cols
    # rasterize each pit over the cells it may cover (the test oracle scans per
    # cell): bounds widened a cell each side and clamped in floats before int()
    for pit in surface.pits:
        lo = pit.center_m - pit.half_length_m
        hi = pit.center_m + pit.half_length_m
        first = int(min(max((lo - start) / cell_m - 1.0, 0.0), cols))
        last = int(min(max((hi - start) / cell_m + 1.0, 0.0), cols))
        for c in range(first, last):
            center = start + (c + 0.5) * cell_m
            if lo <= center <= hi and pit.depth_mm > depth_row[c]:
                depth_row[c] = pit.depth_mm
                inten_row[c] = pit.reflectivity
    return DepthMap(1, cols, cell_m, depth_row), IntensityImage(1, cols, inten_row)


def extract_potholes(dm: DepthMap, ii: IntensityImage, threshold_mm: float,
                     arc: str, window_start_m: float) -> list[PotholeDetection]:
    """Threshold + longitudinal connected components over a pair of
    one-row grids of one width; `threshold_mm` is > 0."""
    if not dm.rows == ii.rows == 1 or dm.cols != ii.cols:
        raise ValueError(f"expected one-row grids of one width, got {dm.rows}x{dm.cols} "
                         f"depths and {ii.rows}x{ii.cols} intensities")
    depths, intensities = dm.depths, ii.values

    reports: list[PotholeDetection] = []
    c = 0
    while c < dm.cols:
        if depths[c] < threshold_mm:
            c += 1
            continue
        run_start = c
        while c < dm.cols and depths[c] >= threshold_mm:
            c += 1
        run = range(run_start, c)
        depth = max(depths[i] for i in run)
        weight_sum = sum(depths[i] for i in run)
        moment = sum(depths[i] * (window_start_m + (i + 0.5) * dm.cell_m) for i in run)
        if not (math.isfinite(weight_sum) and math.isfinite(moment)):
            # a sum overflowed: weigh each cell by its share of the run's
            # deepest one instead, which is > 0 since the threshold is
            weights = [depths[i] / depth for i in run]
            weight_sum = sum(weights)
            moment = sum(w * (window_start_m + (i + 0.5) * dm.cell_m)
                         for w, i in zip(weights, run))
        centroid = moment / weight_sum
        intensity = sum(intensities[i] for i in run) / len(run)
        reports.append(PotholeDetection(
            arc, centroid, depth, intensity,
            tuple(depths[i] for i in run),
            tuple(intensities[i] for i in run)))
    return reports
