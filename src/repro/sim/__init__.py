"""Functional cycle simulator for processor-coupled nodes."""

from .arbitration import PriorityArbiter, RoundRobinArbiter, make_arbiter
from .batch import (BatchNode, BatchOutcome, LaneVec, batch_supported,
                    merge_overrides, run_batch)
from .event import EventNode
from .faults import FaultEvent, FaultInjector, FaultPlan
from .function_unit import FunctionUnitState, WritebackEntry
from .interconnect import WritebackNetwork
from .loader import load_memory, validate_program
from .memory import MemRequest, MemorySystem
from .node import (Node, SimResult, make_node, node_class_for_engine,
                   run_program)
from .predecode import DecodedThread, SlotPlan, WordPlan, decode_program
from .registers import RegisterFrame
from .sanitize import (InvariantAuditor, SanitizerPolicy, SanitizerReport,
                       SanitizerSummary, audit_node, replay_bundle,
                       run_sanitized)
from .stats import Stats
from .thread import ThreadContext

__all__ = [
    "PriorityArbiter", "RoundRobinArbiter", "make_arbiter",
    "BatchNode", "BatchOutcome", "LaneVec", "batch_supported",
    "merge_overrides", "run_batch",
    "EventNode", "FaultEvent", "FaultInjector", "FaultPlan",
    "FunctionUnitState", "WritebackEntry", "WritebackNetwork",
    "load_memory", "validate_program", "MemRequest", "MemorySystem",
    "Node", "SimResult", "make_node", "node_class_for_engine",
    "run_program", "DecodedThread", "SlotPlan", "WordPlan",
    "decode_program", "RegisterFrame", "Stats", "ThreadContext",
    "InvariantAuditor", "SanitizerPolicy", "SanitizerReport",
    "SanitizerSummary", "audit_node", "replay_bundle", "run_sanitized",
]
