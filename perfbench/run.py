#!/usr/bin/env python3
"""Benchmark entry point for potholesim.

Generates the inputs of one workload from the seed, then measures them in a
separate worker process (so input generation does not count towards peak
memory) and prints every metric by name and unit.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 40 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a traced run.  `--size smoke` shrinks the inputs for a quick end-to-end
check of the benchmark itself.  Inputs go to perfbench/out/ and are removed
afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import gen
from tracing import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fleet", "reroute", "query_mix")
DEADLINE_S = 170.0   # the whole run, generation included, ends before 180 s
E2E_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "intake_us_p50": "us",
             "route_ms_p50": "ms", "condition_us_p50": "us", "report_ms_p50": "ms"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "potholesim" / "__init__.py").is_file():
        return fail(f"no program to measure: {SRC / 'potholesim'} is missing")
    sys.path.insert(0, str(SRC))   # gen seals query_mix reports with the program

    (HERE / "out").mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / "out"))
    try:
        gen.write_inputs(args.workload, args.seed, args.size, inputs)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--inputs", str(inputs), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=DEADLINE_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            return fail("worker did not finish in time")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return fail(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    units = per_layer_units() if args.trace else E2E_UNITS
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"rounds {out['rounds']}  python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    print("stats " + json.dumps(out["stats"], sort_keys=True))
    print(f"host: mean probe {out['probe_us']:.4g} us (reference {calib.PROBE_REF_S * 1e6:g} us), "
          f"pass_s p50 {out['host_pass_s']:.4g} s of host time; times below are at the "
          f"reference speed")
    if not args.trace:
        for name, s in out["summaries"].items():
            tail = " ".join(f"{k} {v:.6g}" for k, v in s.items() if k not in ("p50", "n"))
            print(f"  {name:18s} {s['p50']:12.6g} {units[name]:4s} n={s['n']} {tail}")
        print(f"  {'peak_rss_mb':18s} {out['metrics']['peak_rss_mb']:12.6g} MiB")
    else:
        for name, unit in units.items():
            print(f"  {name:42s} {out['metrics'][name]:14.6g} {unit}")
    for err in out["errors"]:
        print(f"CHECK FAILED: {err}")
    if out["error_count"] > len(out["errors"]):
        print(f"CHECK FAILED: ... {out['error_count'] - len(out['errors'])} more")
    result = {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
              "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
