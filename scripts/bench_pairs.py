#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against HEAD.

Exports the committed tree of the parent and of HEAD with `git archive` into
temporary directories and runs `perfbench/run.py` in each for the run length
`BENCHMARK.json` sets, alternating which side runs first.  Given `--seed`
more than once, the pairs cycle through the seeds in the order given, so a
claim rests on more than one generated input.  Prints every run, with its
pair's seed, as it ends, then for each metric each side's median and
quartiles, the change in the median, the gap against the parent's
interquartile range, and in how many pairs the change read better (ties
count for neither side).  An end-to-end metric whose change median is worse
than the parent median by more than its bound in `BENCHMARK.json` is marked
`PAST BOUND`, and the script then exits 1.

Untraced runs report the end-to-end metrics.  With `--trace`, the runs are
traced and report the event loop's own time (`comms.loop.self_s`), the
traced pass (`trace.pass_s`) and the calls and busy time of each traced
function of the event loop and the scanner it drives (`comms.*` and
`detection.*`), of the server's intake and query path (`server.*`,
`registry.*`, `geocrypto.*` and `weighting.*`), of the repair ranking
(`maintenance.*`) and of the loaders that set-up runs (`network.*` and
`scenario.*`), so a change in an end-to-end metric can be attributed to
the layer it came from.  They also report the median `Server.query` call
(`server.query.us_p50`): most queries ask for a road condition, and the
few route queries, which the sessions' routes nest inside, outweigh them
in `server.query.busy_s`.

    python3 scripts/bench_pairs.py --parent REV --workload query_mix --seed 5 --pairs 10
    python3 scripts/bench_pairs.py --parent REV --workload query_mix --seed 5 --seed 7 --pairs 10
    python3 scripts/bench_pairs.py --parent REV --workload fleet --seed 5 --pairs 3 --trace

Run it from anywhere inside the repository; it changes no file in it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# the layers whose calls and busy time a traced comparison reports
TRACED_LAYERS = ("comms.", "detection.", "server.", "registry.", "geocrypto.", "weighting.",
                 "maintenance.", "network.", "scenario.")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(root: Path, rev: str, dest: Path) -> None:
    """The committed tree of `rev`, written under `dest`."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(root), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run: the last line of run.py's output, plus its round count."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(int(trace))],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: run in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    head = lines[0].split()
    result["rounds"] = int(head[head.index("rounds") + 1])
    return result


def traced_metrics(per_layer: list[dict]) -> list[dict]:
    """The loop's own time, the traced pass, the median query and the calls
    and busy time of each function of `TRACED_LAYERS`."""
    return [m for m in per_layer
            if m["name"] in ("comms.loop.self_s", "trace.pass_s", "server.query.us_p50")
            or (m["name"].startswith(TRACED_LAYERS)
                and m["name"].endswith((".calls", ".busy_s")))]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def past_bound(parent: float, change: float, better: str, bound: float | None) -> bool:
    """Whether the change median is worse than the parent median by more than
    `bound`, a fraction of the parent median (None: the metric has no bound)."""
    worse = change > parent if better == "lower" else change < parent
    return bound is not None and worse and abs(change - parent) > bound * abs(parent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="revision to compare HEAD against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="workload seed; give it again to cycle the pairs through seeds")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="run traced and compare the per-layer figures")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    revs = {"parent": git(root, "rev-parse", args.parent), "change": git(root, "rev-parse", "HEAD")}
    bench = json.loads((root / "BENCHMARK.json").read_text())
    chosen = traced_metrics(bench["per_layer"]) if args.trace else bench["end_to_end"]
    metrics = [(m["name"], m["unit"], m["better"], m.get("bound")) for m in chosen]
    print(f"parent {revs['parent'][:10]}  change {revs['change'][:10]}  workload "
          f"{args.workload}  seeds {' '.join(map(str, args.seed))}  {bench['run_seconds']} s "
          f"{'traced' if args.trace else 'untraced'} runs")

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(root, revs[side], trees[side])
        for pair in range(args.pairs):
            seed = args.seed[pair % len(args.seed)]
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                res = run_once(trees[side], args.workload, seed, bench["run_seconds"],
                               args.trace)
                runs[side].append(res)
                values = " ".join(f"{name} {res['metrics'][name]['value']:.6g}"
                                  for name, _, _, _ in metrics)
                print(f"pair {pair + 1} seed {seed} {side:6s} rounds {res['rounds']}  correct "
                      f"{res['correct']}  failed {res['failed']}/{res['attempted']}  {values}",
                      flush=True)

    print("median [quartiles], parent -> change")
    width = max(len(name) for name, _, _, _ in metrics)
    over = []  # the metrics past their bound
    for name, unit, better, bound in metrics:
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        med = {side: statistics.median(vals[side]) for side in SIDES}
        quart = {side: quartiles(vals[side]) for side in SIDES}
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        pct = f"{100 * (med['change'] - med['parent']) / med['parent']:+.1f} %" \
            if med["parent"] else "n/a"
        iqr = quart["parent"][1] - quart["parent"][0]
        gap = abs(med["change"] - med["parent"])
        past = past_bound(med["parent"], med["change"], better, bound)
        if past:
            over.append(name)
        print(f"  {name:{width}s} {med['parent']:.6g} [{quart['parent'][0]:.6g}, "
              f"{quart['parent'][1]:.6g}] -> {med['change']:.6g} [{quart['change'][0]:.6g}, "
              f"{quart['change'][1]:.6g}] {unit}  {pct}  change better in "
              f"{wins}/{args.pairs}  |gap| {gap:.6g} vs parent IQR {iqr:.6g}"
              + (f"  PAST BOUND ({100 * bound:g} %)" if past else ""))
    rounds = {side: statistics.median(r["rounds"] for r in runs[side]) for side in SIDES}
    print(f"  {'rounds':{width}s} {rounds['parent']:g} -> {rounds['change']:g} (median)")
    bad = [side for side in SIDES for r in runs[side] if not r["correct"] or r["failed"]]
    if bad:
        print(f"INCORRECT or FAILED runs: {len(bad)}")
    if over:
        print(f"PAST BOUND: {', '.join(over)}")
    return 1 if bad or over else 0


if __name__ == "__main__":
    raise SystemExit(main())
