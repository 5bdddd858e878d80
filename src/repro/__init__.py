"""repro — reproduction of "How Fast can a Distributed Transaction Commit?".

Guerraoui & Wang, PODS 2017.

The package provides:

* a deterministic discrete-event simulator of synchronous / eventually
  synchronous message-passing systems (:mod:`repro.sim`);
* the paper's atomic-commit problem framework — properties, robustness
  lattice, the Table 1 lower bounds and the two complexity measures
  (:mod:`repro.core`);
* implementations of every protocol the paper defines or compares against,
  including INBAC (:mod:`repro.protocols`), on top of a Paxos-based uniform
  consensus substrate (:mod:`repro.consensus`);
* a partitioned transactional key-value store whose commit layer is pluggable
  with any of those protocols (:mod:`repro.db`), plus workload generators
  (:mod:`repro.workloads`);
* closed-form complexity formulas and builders that regenerate the paper's
  tables from measured nice executions (:mod:`repro.analysis`);
* a declarative, parallel experiment-sweep engine for cross-product
  comparisons over protocol x (n, f) x delay model x fault plan x votes x
  seed (:mod:`repro.exp`).

Quickstart
----------
>>> from repro import run_nice_execution, INBAC, nice_execution_complexity
>>> result = run_nice_execution(INBAC, n=5, f=2)
>>> stats = nice_execution_complexity(result.trace)
>>> stats.message_delays, stats.messages
(2.0, 20)
"""

import os as _os

from repro.core import (
    PropertyPair,
    check_nbac,
    delay_lower_bound,
    is_nice_execution,
    message_lower_bound,
    nice_execution_complexity,
    table1_bounds,
)
from repro.errors import (
    ConfigurationError,
    ProtocolViolationError,
    ReproError,
    SimulationError,
    StorageError,
)
from repro.protocols import (
    ABORT,
    ANBAC,
    COMMIT,
    INBAC,
    AvNBACDelayOptimal,
    AvNBACMessageOptimal,
    FasterPaxosCommit,
    NMinus1PlusFNBAC,
    OneNBAC,
    PaxosCommit,
    ThreePhaseCommit,
    TwoNMinus2NBAC,
    TwoNMinus2PlusFNBAC,
    TwoPhaseCommit,
    ZeroNBAC,
    all_protocols,
    get_protocol,
    table5_protocols,
)
from repro.exp import GridSpec, SweepResult, run_sweep
from repro.sim import FaultPlan, FixedDelay, Simulation, SimulationResult, Trace
from repro.sim.runner import run_nice_execution

# Arm the runtime determinism sanitizer (repro.sanitizer) when
# REPRO_SANITIZE=1.  Running this at import time means spawn workers (which
# re-import repro) re-arm automatically; when the flag is unset the module is
# never loaded.
if _os.environ.get("REPRO_SANITIZE") == "1":
    from repro.sanitizer import install as _install_sanitizer

    _install_sanitizer()

__version__ = "1.0.0"

__all__ = [
    "ABORT",
    "ANBAC",
    "AvNBACDelayOptimal",
    "AvNBACMessageOptimal",
    "COMMIT",
    "ConfigurationError",
    "FasterPaxosCommit",
    "FaultPlan",
    "FixedDelay",
    "GridSpec",
    "INBAC",
    "NMinus1PlusFNBAC",
    "OneNBAC",
    "PaxosCommit",
    "PropertyPair",
    "ProtocolViolationError",
    "ReproError",
    "Simulation",
    "SimulationResult",
    "SimulationError",
    "StorageError",
    "SweepResult",
    "ThreePhaseCommit",
    "Trace",
    "TwoNMinus2NBAC",
    "TwoNMinus2PlusFNBAC",
    "TwoPhaseCommit",
    "ZeroNBAC",
    "all_protocols",
    "check_nbac",
    "delay_lower_bound",
    "get_protocol",
    "is_nice_execution",
    "message_lower_bound",
    "nice_execution_complexity",
    "run_nice_execution",
    "run_sweep",
    "table1_bounds",
    "table5_protocols",
    "__version__",
]
