"""Transactions as sets of per-partition operations (minitransaction style)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError

READ = "read"
WRITE = "write"


@dataclass(frozen=True, slots=True)
class Operation:
    """One read or write of one key on one partition."""

    kind: str
    partition: int
    key: str
    value: Optional[object] = None

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise ConfigurationError(f"unknown operation kind {self.kind!r}")
        if self.kind == WRITE and self.value is None:
            raise ConfigurationError(f"write of {self.key!r} needs a value")

    @classmethod
    def read(cls, partition: int, key: str) -> "Operation":
        return cls(kind=READ, partition=partition, key=key)

    @classmethod
    def write(cls, partition: int, key: str, value: object) -> "Operation":
        return cls(kind=WRITE, partition=partition, key=key, value=value)


@dataclass(slots=True)
class Transaction:
    """A distributed transaction: an id plus operations spanning partitions."""

    txn_id: str
    operations: List[Operation] = field(default_factory=list)
    submit_time: float = 0.0

    def participants(self) -> List[int]:
        """Sorted list of partitions touched by the transaction."""
        return sorted({op.partition for op in self.operations})

    def read_set(self, partition: Optional[int] = None) -> List[str]:
        return [
            op.key
            for op in self.operations
            if op.kind == READ and (partition is None or op.partition == partition)
        ]

    def write_set(self, partition: Optional[int] = None) -> Dict[str, object]:
        return {
            op.key: op.value
            for op in self.operations
            if op.kind == WRITE and (partition is None or op.partition == partition)
        }

    @classmethod
    def of(
        cls, txn_id: str, operations: Sequence[Operation], submit_time: float = 0.0
    ) -> "Transaction":
        if not operations:
            raise ConfigurationError(f"transaction {txn_id!r} has no operations")
        return cls(txn_id=txn_id, operations=list(operations), submit_time=submit_time)
