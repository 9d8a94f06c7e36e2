"""Processor coupling (Keckler & Dally, ISCA 1992): a full Python
reproduction.

Processor coupling controls the multiple ALUs of a single node by
combining compile-time scheduling of each thread with cycle-by-cycle
runtime interleaving of many threads across the function units.  This
package contains the complete experimental environment of the paper:

* :mod:`repro.isa` — operations, wide instruction words, assembly text;
* :mod:`repro.machine` — configurable node descriptions (clusters,
  interconnect schemes, statistical memory models);
* :mod:`repro.compiler` — the statically scheduling compiler for the
  paper's Lisp-syntax, C-semantics source language;
* :mod:`repro.sim` — the functional cycle simulator;
* :mod:`repro.programs` — the Matrix, FFT, LUD, and Model benchmarks;
* :mod:`repro.experiments` — harnesses regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import baseline, compile_program, run_program
    config = baseline()
    compiled = compile_program(SOURCE, config, mode="coupled")
    result = run_program(compiled.program, config)
    print(result.cycles, result.stats.utilization_table())
"""

from .errors import (AsmError, CellFailure, CellTimeoutError,
                     CompileError, ConfigError, DeadlockError,
                     FaultConfigError, InterpError, ReproError,
                     SimulationError, SweepJournalError,
                     VerificationError, WatchdogError)
from .machine import (MachineConfig, baseline, mem1, mem2, min_memory,
                      single_cluster, unit_mix)
from .machine.interconnect import CommScheme
from .sim import (FaultEvent, FaultInjector, FaultPlan, Node, SimResult,
                  run_program)
from .compiler import MODES, CompiledProgram, compile_program
from .compiler.interp import interpret

__version__ = "1.0.0"

__all__ = [
    "AsmError", "CellFailure", "CellTimeoutError", "CompileError",
    "ConfigError", "DeadlockError", "FaultConfigError", "InterpError",
    "ReproError", "SimulationError", "SweepJournalError",
    "VerificationError", "WatchdogError",
    "MachineConfig", "baseline", "mem1", "mem2", "min_memory",
    "single_cluster", "unit_mix", "CommScheme",
    "FaultEvent", "FaultInjector", "FaultPlan",
    "Node", "SimResult", "run_program",
    "MODES", "CompiledProgram", "compile_program", "interpret",
    "__version__",
]
