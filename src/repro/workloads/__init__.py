"""Workload generators for the database benchmarks and examples.

* :mod:`repro.workloads.transactions` — multi-partition transaction workloads
  (uniform and Zipfian key access, configurable read/write mix, bank-transfer
  style transfers, adjustable contention).
* :mod:`repro.workloads.votes` — vote-pattern generators for protocol-level
  experiments (all-yes, all-no, one-no, random-no with a given probability).
"""

from repro.workloads.transactions import (
    TransactionWorkload,
    bank_transfer_workload,
    hotspot_workload,
    uniform_workload,
)
from repro.workloads.votes import all_no, all_yes, one_no, random_votes

__all__ = [
    "TransactionWorkload",
    "all_no",
    "all_yes",
    "bank_transfer_workload",
    "hotspot_workload",
    "one_no",
    "random_votes",
    "uniform_workload",
]
