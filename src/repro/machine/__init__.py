"""Simulated MIMD distributed-memory machine."""

from .costmodel import FAST_NETWORK, FREE, IPSC860, CostModel, tree_stages
from .deadlock import DeadlockDetector, DeadlockReport, RankWait
from .event import (
    EventCollectives,
    EventNetwork,
    EventProcContext,
    EventScheduler,
)
from .faults import FaultPlan
from .machine import Machine, ProcContext
from .network import DeadlockError, Network, SimulationError
from .scheduler import SCHEDULERS, resolve_scheduler
from .stats import RunStats
from .topology import (
    TOPOLOGIES,
    FatTreeTopology,
    HypercubeTopology,
    LinkClock,
    Mesh2DTopology,
    Topology,
    Torus2DTopology,
    UniformTopology,
    resolve_topology,
)

__all__ = [
    "SCHEDULERS",
    "EventCollectives",
    "EventNetwork",
    "EventProcContext",
    "EventScheduler",
    "resolve_scheduler",
    "CostModel",
    "IPSC860",
    "FAST_NETWORK",
    "FREE",
    "tree_stages",
    "Machine",
    "ProcContext",
    "Network",
    "SimulationError",
    "DeadlockError",
    "DeadlockReport",
    "DeadlockDetector",
    "RankWait",
    "FaultPlan",
    "RunStats",
    "TOPOLOGIES",
    "Topology",
    "UniformTopology",
    "HypercubeTopology",
    "Mesh2DTopology",
    "Torus2DTopology",
    "FatTreeTopology",
    "LinkClock",
    "resolve_topology",
]
