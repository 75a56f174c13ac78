"""Correctness oracles for the benchmark, written apart from the program.

Every function takes plain data (tuples, dicts, floats) and returns a list
of error strings, empty when the answer is right.  None of them imports
potholesim: routes are re-derived with this module's own Dijkstra, exact
because it adds the floats' binary fractions as integers; weights with the
damage-average formula; rankings by recounting the update log.

Plain shapes used here:
  arc_table  {arc_id: (tail, head, length_m)}
  weights    {arc_id: weight}
  route      (source, dest, arc ids, total_weight, total_length_m)
  record     (pothole_id, arc_id, offset_m, depth_mm)
  event      (pothole_id, timestamp_ms)
  entry      (rank, pothole_id, depth_mm, intensity)
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

WINDOW_MS = 60_000
REL_TOL = 1e-9


def _scaled(values: dict[str, float]) -> tuple[dict[str, int], int]:
    """Exact integer images of binary floats under one common 2^k scale."""
    ratios = {k: v.as_integer_ratio() for k, v in values.items()}
    scale = max((d for _, d in ratios.values()), default=1)
    return {k: n * (scale // d) for k, (n, d) in ratios.items()}, scale


def best_cost(arc_table: dict, weights: dict[str, float], source: str,
              dest: str) -> tuple[Fraction, Fraction] | None:
    """Least (weight, length) from source to dest, lexicographically and
    exactly; None when dest is unreachable."""
    w, w_scale = _scaled(weights)
    ln, l_scale = _scaled({a: length for a, (_, _, length) in arc_table.items()})
    out: dict[str, list[tuple[str, int, int]]] = {}
    for a, (tail, head, _) in arc_table.items():
        out.setdefault(tail, []).append((head, w[a], ln[a]))
    dist = {source: (0, 0)}
    heap = [(0, 0, source)]
    done = set()
    while heap:
        dw, dl, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == dest:
            return Fraction(dw, w_scale), Fraction(dl, l_scale)
        done.add(u)
        for v, aw, al in out.get(u, ()):
            cand = (dw + aw, dl + al)
            if v not in dist or cand < dist[v]:
                dist[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], v))
    return None


def check_route(arc_table: dict, weights: dict[str, float], source: str, dest: str,
                route: tuple) -> list[str]:
    """A connected source -> dest path whose (weight, length) is optimal."""
    r_source, r_dest, arcs, total_w, total_l = route
    where = f"route {source}->{dest}"
    if (r_source, r_dest) != (source, dest):
        return [f"{where}: answered for {r_source}->{r_dest}"]
    at = source
    for a in arcs:
        if a not in arc_table:
            return [f"{where}: unknown arc {a!r}"]
        tail, head, _ = arc_table[a]
        if tail != at:
            return [f"{where}: arc {a!r} starts at {tail!r}, not at {at!r}"]
        at = head
    if at != dest:
        return [f"{where}: path ends at {at!r}"]
    got = (sum(Fraction(weights[a]) for a in arcs), sum(Fraction(arc_table[a][2]) for a in arcs))
    best = best_cost(arc_table, weights, source, dest)
    if got != best:
        return [f"{where}: (weight, length) ({float(got[0])}, {float(got[1])}) is not the "
                f"optimum ({float(best[0])}, {float(best[1])})"]
    if not (math.isclose(total_w, got[0], rel_tol=REL_TOL, abs_tol=1e-9)
            and math.isclose(total_l, got[1], rel_tol=REL_TOL)):
        return [f"{where}: reported totals ({total_w}, {total_l}) differ from its arcs' "
                f"({float(got[0])}, {float(got[1])})"]
    return []


def expected_weight(arc_length: float, depths: list[float]) -> float:
    """The paper's damage average times length; 0 on a clean arc."""
    return (math.fsum(depths) / len(depths)) * arc_length if depths else 0.0


def check_weights(arc_table: dict, weights: dict[str, float], records: list[tuple]) -> list[str]:
    depths: dict[str, list[float]] = {}
    for _, arc, _, depth in records:
        depths.setdefault(arc, []).append(depth)
    errors = []
    for a, (_, _, length) in sorted(arc_table.items()):
        want = expected_weight(length, depths.get(a, []))
        got = weights.get(a)
        if got is None or not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            errors.append(f"arc {a}: weight {got} != {want}")
    return errors


def check_registry(records: list[tuple], pits: list[dict], threshold_mm: float,
                   cell_m: float) -> list[str]:
    """Each record is a distinct ground-truth pit deeper than the threshold
    on its arc: same depth, offset within one cell of the pit's centre."""
    errors = []
    claimed: dict[int, str] = {}
    for pid, arc, offset, depth in records:
        match = [i for i, p in enumerate(pits)
                 if p["arc"] == arc and p["depth_mm"] > threshold_mm
                 and p["depth_mm"] == depth and abs(offset - p["center_m"]) <= cell_m]
        if len(match) != 1:
            errors.append(f"pothole {pid} ({arc} @ {offset} m, {depth} mm) matches "
                          f"{len(match)} ground-truth pits")
        elif match[0] in claimed:
            errors.append(f"potholes {claimed[match[0]]} and {pid} are the same pit")
        else:
            claimed[match[0]] = pid
    return errors


def check_ranking(entries: list[tuple], records: list[tuple], events: list[tuple],
                  at_ms: int) -> list[str]:
    """Ranks 1..n over every record, by (-intensity, -depth, id), with
    intensity recounted over the window (at - 60 000, at]."""
    counts: dict[str, int] = {}
    for pid, t in events:
        if at_ms - WINDOW_MS < t <= at_ms:
            counts[pid] = counts.get(pid, 0) + 1
    want = sorted(((pid, depth, counts.get(pid, 0)) for pid, _, _, depth in records),
                  key=lambda r: (-r[2], -r[1], int(r[0])))
    want = [(rank, pid, depth, n) for rank, (pid, depth, n) in enumerate(want, start=1)]
    if list(entries) != want:
        diff = next((i for i, (a, b) in enumerate(zip(entries, want)) if a != b),
                    min(len(entries), len(want)))
        return [f"ranking at {at_ms}: row {diff + 1} differs "
                f"(got {entries[diff:diff + 1]}, want {want[diff:diff + 1]})"]
    return []


def check_condition(arc_table: dict, arc: str, reply_weight: float, reply_ids: tuple,
                    records: list[tuple]) -> list[str]:
    """A condition reply lists exactly the arc's records and its weight."""
    on_arc = sorted((r for r in records if r[1] == arc), key=lambda r: int(r[0]))
    errors = []
    if tuple(r[0] for r in on_arc) != tuple(reply_ids):
        errors.append(f"condition {arc}: ids {reply_ids} != {[r[0] for r in on_arc]}")
    want = expected_weight(arc_table[arc][2], [r[3] for r in on_arc])
    if not math.isclose(reply_weight, want, rel_tol=REL_TOL, abs_tol=0.0):
        errors.append(f"condition {arc}: weight {reply_weight} != {want}")
    return errors
