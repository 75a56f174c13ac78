"""Scenario-driven command line.

Subcommands:

    simulate    run a scenario end to end, write trace/registry/report files
    route       one-shot minimum-damage route, trace printed to stdout
    report      maintenance priority CSV printed to stdout
    preprocess  weight the network from a registry dump, CSV to stdout

Exit codes: 0 success, 1 input error, 2 unreachable destination (`route`;
`simulate` traces an unreachable DEST_CHANGE and keeps running).  Files and
standard output are UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from . import maintenance, weighting
from .comms import Simulation
from .config import SimConfig
from .inputs import lookup
from .network import load_network
from .registry import PotholeRegistry, read_events_csv
from .routing import UnreachableError, fmt_num, format_route_trace, route
from .scenario import load_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="potholesim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario end to end")
    p.add_argument("--network", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--threshold-mm", type=float, default=SimConfig.threshold_mm)
    p.add_argument("--cell-m", type=float, default=SimConfig.cell_m)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("route", help="one-shot route query")
    p.add_argument("--network", required=True)
    p.add_argument("--registry", default=None,
                   help="registry CSV; omitted means a clean network")
    p.add_argument("--source", required=True)
    p.add_argument("--dest", required=True)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("report", help="maintenance priority report")
    p.add_argument("--registry", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--at", type=int, required=True,
                   help="evaluation instant in ms")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("preprocess", help="weight the network and dump it")
    p.add_argument("--network", required=True)
    p.add_argument("--registry", default=None)
    p.set_defaults(func=cmd_preprocess)

    return parser


def _load_registry(args, net) -> PotholeRegistry:
    if args.registry is None:
        return PotholeRegistry(net)
    return PotholeRegistry.read_csv(args.registry, net)


def cmd_simulate(args) -> int:
    net = load_network(args.network)
    scenario = load_scenario(args.scenario, net)
    if args.seed is not None:
        scenario.seed = args.seed
    config = SimConfig(threshold_mm=args.threshold_mm, cell_m=args.cell_m)

    sim = Simulation(net, scenario, config)
    world = sim.run()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sim.write_trace(out / "trace.txt")
    registry = world.server.registry
    registry.write_csv(out / "registry.csv")
    registry.write_events_csv(out / "events.csv")
    weighting.write_csv(world.server.wnet, registry, out / "weighted_network.csv")
    entries = maintenance.priority_report(registry, registry.events, scenario.duration_ms)
    maintenance.write_csv(entries, out / "maintenance_report.csv")
    for vid, v in sorted(world.vehicles.items()):
        display = v.session.display()
        # named in UTF-8 whatever the locale, like the files' contents
        name = os.path.join(os.fsencode(out), f"route_{vid}.txt".encode("utf-8"))
        with open(name, "w", encoding="utf-8") as fh:
            if isinstance(display, float):
                fh.write(f"DISPLAY {v.session.current_arc} {fmt_num(display)}\n")
            else:
                fh.write(format_route_trace(world.server.wnet, display))
    return 0


def cmd_route(args) -> int:
    net = load_network(args.network)
    options = {"--source": args.source, "--dest": args.dest}
    for option in options:
        lookup(net.node, options, option, "", "node")
    registry = _load_registry(args, net)
    wnet = weighting.preprocess(net, registry)
    rt = route(wnet, args.source, args.dest)
    sys.stdout.write(format_route_trace(wnet, rt))
    return 0


def cmd_report(args) -> int:
    registry = PotholeRegistry.read_csv(args.registry)
    events = read_events_csv(args.events, registry)
    entries = maintenance.priority_report(registry, events, args.at)
    csv.writer(sys.stdout, lineterminator="\n").writerows(
        maintenance.report_rows(entries))
    return 0


def cmd_preprocess(args) -> int:
    net = load_network(args.network)
    registry = _load_registry(args, net)
    wnet = weighting.preprocess(net, registry)
    csv.writer(sys.stdout, lineterminator="\n").writerows(
        weighting.csv_rows(wnet, registry))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(sys.stdout, "reconfigure"):
        # print UTF-8 whatever the locale, as the output files are written
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        return args.func(args)
    except UnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
