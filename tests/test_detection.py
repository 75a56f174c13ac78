import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potholesim.detection import (DepthMap, GroundTruthSurface, IntensityImage,
                                  Pit, SensorValueError, extract_potholes, sweep)


def surface(pits, length=10.0, arc="a1"):
    return GroundTruthSurface(arc, length, pits)


def cell_centers(start, cols, cell):
    return [start + (i + 0.5) * cell for i in range(cols)]


def oracle_grid(surf, start, cols, cell):
    """Per-cell scan over all pits: the deepest covering pit wins."""
    depths, intens = [], []
    for center in cell_centers(start, cols, cell):
        best = None
        for pit in surf.pits:
            covers = abs(center - pit.center_m) <= pit.half_length_m
            if covers and (best is None or pit.depth_mm > best.depth_mm):
                best = pit
        depths.append(best.depth_mm if best else 0.0)
        intens.append(best.reflectivity if best else 1.0)
    return depths, intens


class TestSweep:
    def test_flat_surface(self):
        dm, ii = sweep(surface([]), (0.0, 10.0), 0.5)
        assert dm.cols == 20 and dm.rows == 1
        assert all(d == 0.0 for d in dm.depths)
        assert all(v == 1.0 for v in ii.values)

    def test_single_pit_covers_expected_cells(self):
        surf = surface([Pit(5.0, 1.0, 50.0, 0.4)])  # spans [4, 6]
        dm, ii = sweep(surf, (0.0, 10.0), 0.5)
        expect_d, expect_i = oracle_grid(surf, 0.0, 20, 0.5)
        assert dm.depths == expect_d
        assert ii.values == expect_i
        covered = [i for i, d in enumerate(dm.depths) if d == 50.0]
        assert covered == [8, 9, 10, 11]  # centers 4.25 .. 5.75

    def test_overlapping_pits_deepest_wins(self):
        surf = surface([Pit(4.0, 1.0, 30.0, 0.7), Pit(5.0, 1.0, 50.0, 0.2)])
        dm, ii = sweep(surf, (0.0, 10.0), 0.5)
        expect_d, expect_i = oracle_grid(surf, 0.0, 20, 0.5)
        assert dm.depths == expect_d
        assert ii.values == expect_i
        # overlap region [4, 5] reads the 50 mm pit
        for i in (8, 9):
            assert dm.depths[i] == 50.0
            assert ii.values[i] == 0.2

    def test_determinism(self):
        surf = surface([Pit(5.0, 1.0, 50.0, 0.4), Pit(2.0, 0.5, 20.0, 0.8)])
        a = sweep(surf, (0.0, 10.0), 0.5)
        b = sweep(surf, (0.0, 10.0), 0.5)
        assert a[0].depths == b[0].depths and a[1].values == b[1].values

    def test_window_validation(self):
        surf = surface([])
        with pytest.raises(ValueError):
            sweep(surf, (4.0, 2.0), 0.5)      # degenerate
        with pytest.raises(ValueError):
            sweep(surf, (0.0, 11.0), 0.5)     # beyond arc
        with pytest.raises(ValueError):
            sweep(surf, (0.0, 0.2), 0.5)      # shorter than one cell


class TestGridCells:
    """A grid refuses a cell no scanner reads, wherever it sits."""

    @pytest.mark.parametrize("at", range(3))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_depth_cell_refused(self, bad, at):
        cells = [20.0, 0.0, 35.5]
        cells[at] = bad
        with pytest.raises(SensorValueError, match="depth cells"):
            DepthMap(1, 3, 0.5, cells)

    @pytest.mark.parametrize("at", range(3))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 1.5, 7.0])
    def test_intensity_cell_refused(self, bad, at):
        cells = [0.0, 0.5, 1.0]
        cells[at] = bad
        with pytest.raises(SensorValueError, match="intensity cells"):
            IntensityImage(1, 3, cells)

    def test_bounds_accepted(self):
        assert DepthMap(1, 2, 0.5, [0.0, 1.7e308]).depths == [0.0, 1.7e308]
        assert IntensityImage(1, 2, [0.0, 1.0]).values == [0.0, 1.0]


class TestExtract:
    def test_all_below_threshold(self):
        surf = surface([Pit(5.0, 1.0, 5.0, 0.4)])
        dm, ii = sweep(surf, (0.0, 10.0), 0.5)
        assert extract_potholes(dm, ii, 10.0, "a1", 0.0) == []

    def test_single_run_peak_depth(self):
        # one supra-threshold run whose max cell is 50 (brute-force max below)
        surf = surface([Pit(5.0, 1.0, 50.0, 0.4), Pit(5.5, 1.2, 30.0, 0.6)])
        dm, ii = sweep(surf, (0.0, 10.0), 0.5)
        reports = extract_potholes(dm, ii, 10.0, "a1", 0.0)
        assert len(reports) == 1
        run_cells = [d for d in dm.depths if d >= 10.0]
        assert reports[0].depth_mm == max(run_cells) == 50.0

    def test_two_runs_split_by_gap(self):
        # constructed grid: runs [2,3] and [6], gap below threshold
        dm = DepthMap(1, 8, 0.5, [0, 0, 20, 20, 0, 0, 30, 0])
        ii = IntensityImage(1, 8, [1, 1, 0.5, 0.5, 1, 1, 0.25, 1])
        reports = extract_potholes(dm, ii, 10.0, "a1", 0.0)
        assert len(reports) == 2
        first, second = reports
        assert first.depth_mm == 20.0 and second.depth_mm == 30.0
        # depth-weighted centroid of cells 2,3 (centers 1.25, 1.75)
        assert first.offset_m == (20 * 1.25 + 20 * 1.75) / 40
        assert second.offset_m == 3.25
        assert first.intensity == 0.5 and second.intensity == 0.25

    def test_mismatched_grids(self):
        dm = DepthMap(1, 4, 0.5, [0, 0, 0, 0])
        ii = IntensityImage(1, 5, [1, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="one-row grids of one width"):
            extract_potholes(dm, ii, 10.0, "a1", 0.0)

    @pytest.mark.parametrize("dm, ii", [
        (DepthMap(2, 2, 0.5, [0, 20, 0, 20]), IntensityImage(2, 2, [1, 1, 1, 1])),
        (DepthMap(1, 4, 0.5, [0, 20, 20, 0]), IntensityImage(2, 2, [1, 1, 1, 1])),
    ], ids=["both", "intensities"])
    def test_grids_of_two_rows_refused(self, dm, ii):
        # the sensor sweeps one row; a received report's grids may hold more
        with pytest.raises(ValueError, match="one-row grids of one width"):
            extract_potholes(dm, ii, 10.0, "a1", 0.0)

    def test_run_cells_ride_along(self):
        surf = surface([Pit(5.0, 1.0, 50.0, 0.4)])
        dm, ii = sweep(surf, (0.0, 10.0), 0.5)
        (rep,) = extract_potholes(dm, ii, 10.0, "a1", 0.0)
        assert rep.cells_depth == (50.0,) * 4
        assert rep.depth_mm == max(rep.cells_depth)
        assert rep.intensity == sum(rep.cells_intensity) / len(rep.cells_intensity)

    @pytest.mark.parametrize("depths, want", [
        # the moment, 1.7e307 x (4.25 + 4.75 + 5.25 + 5.75), overflows
        ([1.7e307] * 4, 5.0),
        # the depth sum overflows while the moment, 1e308 x (0.25 + 0.75),
        # does not: the plain quotient would read 0
        ([1e308, 1e308], 0.5),
        ([sys.float_info.max, sys.float_info.max / 2], 0.25 + 0.5 / 3),
    ], ids=["moment", "depth-sum", "unequal-depths"])
    def test_centroid_of_overflowing_depths_is_finite(self, depths, want):
        start = 4.0 if len(depths) == 4 else 0.0
        cols = int(start / 0.5) + len(depths)
        dm = DepthMap(1, cols, 0.5, [0.0] * (cols - len(depths)) + depths)
        ii = IntensityImage(1, cols, [1.0] * cols)
        (rep,) = extract_potholes(dm, ii, 10.0, "a1", 0.0)
        assert rep.offset_m == pytest.approx(want, rel=1e-15)
        assert rep.depth_mm == max(depths)


pit_strategy = st.tuples(
    st.floats(1.5, 28.5),             # center
    st.floats(0.5, 1.4),              # half length (>= 1 cell at 0.5 m cells)
    st.floats(10.5, 90.0),            # depth, clear of the 10 mm threshold
    st.floats(0.0, 1.0))              # reflectivity


@settings(max_examples=80)
@given(st.lists(pit_strategy, min_size=1, max_size=3))
def test_separated_pits_sound_and_complete(raw_pits):
    """With pits separated by >= 2 cells, every pit of depth above threshold
    and length >= 2 cells yields a report whose depth matches the deepest
    ground truth within one cell of the reported offset."""
    cell = 0.5
    pits = []
    cursor = 1.0
    for center, half, depth, refl in raw_pits:
        pits.append(Pit(cursor + half, half, depth, refl))
        cursor += 2 * half + 2 * cell + 0.25   # >= 2-cell gap between pits
    length = cursor + 1.0
    surf = GroundTruthSurface("a1", length, pits)
    dm, ii = sweep(surf, (0.0, length), cell)
    reports = extract_potholes(dm, ii, 10.0, "a1", 0.0)

    assert len(reports) == len(pits)  # completeness: one report per pit
    for rep, pit in zip(sorted(reports, key=lambda r: r.offset_m),
                        sorted(pits, key=lambda p: p.center_m)):
        assert 0.0 <= rep.offset_m <= length
        # soundness: depth equals max pit depth within +-1 cell of the offset
        nearby = [p.depth_mm for p in pits
                  if p.center_m - p.half_length_m <= rep.offset_m + cell
                  and p.center_m + p.half_length_m >= rep.offset_m - cell]
        assert rep.depth_mm == max(nearby) == pit.depth_mm


@settings(max_examples=40)
@given(st.floats(0.0, 25.0), st.floats(1.0, 5.0))
def test_offsets_within_window(start, span):
    surf = GroundTruthSurface("a1", 40.0, [Pit(20.0, 6.0, 44.0, 0.5)])
    end = min(start + span, 40.0)
    if end - start < 0.5:
        return
    dm, ii = sweep(surf, (start, end), 0.5)
    for rep in extract_potholes(dm, ii, 10.0, "a1", start):
        assert start <= rep.offset_m <= end
