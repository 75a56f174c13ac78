"""Pothole detection, avoidance and maintenance simulator.

Deterministic desk-scale model of a system in which vehicles laser-scan
the road, warn nearby vehicles, and report sealed detections to a central
server that re-weights a street multigraph and routes traffic along
minimum-damage paths while ranking potholes for repair.
"""

from .config import SimConfig
from .comms import Simulation, World, p2p_broadcast, step_connection, uplink
from .detection import GroundTruthSurface, Pit, extract_potholes, sweep
from .geocrypto import PlainReport, ReportEnvelope, decrypt, encrypt
from .maintenance import priority_report
from .network import StreetNetwork, load_network
from .registry import PotholeRegistry
from .routing import Route, route
from .scenario import Scenario, load_scenario
from .server import RoutingSession, Server, modify_destination
from .weighting import WeightedNetwork, apply_update, preprocess

__version__ = "0.1.0"

__all__ = [
    "SimConfig", "Simulation", "World", "p2p_broadcast", "step_connection",
    "uplink", "GroundTruthSurface", "Pit", "extract_potholes", "sweep",
    "PlainReport", "ReportEnvelope", "decrypt", "encrypt", "priority_report",
    "StreetNetwork", "load_network", "PotholeRegistry", "Route", "RoutingSession",
    "modify_destination", "route", "Scenario", "load_scenario", "Server",
    "WeightedNetwork", "apply_update", "preprocess",
]
