"""Multi-partition transaction workload generators.

All generators are deterministic given their seed and produce
:class:`~repro.db.transaction.Transaction` objects ready to be handed to
:func:`repro.db.cluster.run_cluster`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.db.transaction import Operation, Transaction
from repro.errors import ConfigurationError


@dataclass
class TransactionWorkload:
    """A named batch of transactions plus the parameters that produced it."""

    name: str
    transactions: List[Transaction]
    parameters: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.transactions)


def _key(partition: int, index: int) -> str:
    return f"p{partition}:k{index}"


def uniform_workload(
    num_transactions: int,
    num_partitions: int,
    keys_per_partition: int = 100,
    participants_per_txn: int = 3,
    writes_per_participant: int = 1,
    reads_per_participant: int = 1,
    inter_arrival: float = 4.0,
    seed: int = 0,
) -> TransactionWorkload:
    """Transactions touching uniformly random partitions and keys.

    ``inter_arrival`` spaces submissions apart (in message-delay units); small
    values create overlapping transactions and hence lock conflicts.
    """
    if participants_per_txn > num_partitions:
        raise ConfigurationError(
            f"participants_per_txn={participants_per_txn} exceeds partitions={num_partitions}"
        )
    rng = random.Random(seed)
    transactions: List[Transaction] = []
    for i in range(num_transactions):
        participants = rng.sample(range(1, num_partitions + 1), participants_per_txn)
        # one value object for every write of the transaction: the stores
        # keep it
        value = f"txn-{i}"
        operations: List[Operation] = []
        for partition in participants:
            for _ in range(reads_per_participant):
                operations.append(
                    Operation.read(partition, _key(partition, rng.randrange(keys_per_partition)))
                )
            for _ in range(writes_per_participant):
                operations.append(
                    Operation.write(
                        partition,
                        _key(partition, rng.randrange(keys_per_partition)),
                        value,
                    )
                )
        transactions.append(
            Transaction.of(f"tx-{i}", operations, submit_time=i * inter_arrival)
        )
    return TransactionWorkload(
        name="uniform",
        transactions=transactions,
        parameters={
            "num_transactions": num_transactions,
            "num_partitions": num_partitions,
            "participants_per_txn": participants_per_txn,
            "inter_arrival": inter_arrival,
            "seed": seed,
        },
    )


def hotspot_workload(
    num_transactions: int,
    num_partitions: int,
    hot_keys: int = 2,
    hot_probability: float = 0.8,
    participants_per_txn: int = 2,
    inter_arrival: float = 1.0,
    seed: int = 0,
) -> TransactionWorkload:
    """A contended workload: most writes hit a few hot keys.

    With a small ``inter_arrival`` several transactions are in flight at once
    and collide on the hot keys, so partitions vote 0 and the commit protocols
    abort — the conflict behaviour of the Helios scenario in the paper's
    introduction.
    """
    rng = random.Random(seed)
    transactions: List[Transaction] = []
    for i in range(num_transactions):
        participants = rng.sample(range(1, num_partitions + 1), participants_per_txn)
        value = f"txn-{i}"  # shared by the transaction's writes, as above
        operations: List[Operation] = []
        for partition in participants:
            if rng.random() < hot_probability:
                key = _key(partition, rng.randrange(hot_keys))
            else:
                key = _key(partition, hot_keys + rng.randrange(1000))
            operations.append(Operation.write(partition, key, value))
        transactions.append(
            Transaction.of(f"tx-{i}", operations, submit_time=i * inter_arrival)
        )
    return TransactionWorkload(
        name="hotspot",
        transactions=transactions,
        parameters={
            "hot_keys": hot_keys,
            "hot_probability": hot_probability,
            "participants_per_txn": participants_per_txn,
            "inter_arrival": inter_arrival,
            "seed": seed,
        },
    )


def bank_transfer_workload(
    num_transfers: int,
    num_partitions: int,
    accounts_per_partition: int = 10,
    initial_balance: int = 100,
    amount: int = 10,
    inter_arrival: float = 5.0,
    seed: int = 0,
) -> TransactionWorkload:
    """Classic cross-partition money transfers (the quickstart scenario).

    Each transfer reads the two account balances and writes them back with the
    amount moved; source and destination accounts always live on different
    partitions so every transfer requires a distributed commit.
    """
    if num_partitions < 2:
        raise ConfigurationError("bank transfers need at least 2 partitions")
    rng = random.Random(seed)
    transactions: List[Transaction] = []
    for i in range(num_transfers):
        src_partition, dst_partition = rng.sample(range(1, num_partitions + 1), 2)
        src_account = f"acct:{src_partition}:{rng.randrange(accounts_per_partition)}"
        dst_account = f"acct:{dst_partition}:{rng.randrange(accounts_per_partition)}"
        operations = [
            Operation.read(src_partition, src_account),
            Operation.read(dst_partition, dst_account),
            Operation.write(src_partition, src_account, initial_balance - amount),
            Operation.write(dst_partition, dst_account, initial_balance + amount),
        ]
        transactions.append(
            Transaction.of(f"transfer-{i}", operations, submit_time=i * inter_arrival)
        )
    return TransactionWorkload(
        name="bank-transfer",
        transactions=transactions,
        parameters={
            "num_transfers": num_transfers,
            "num_partitions": num_partitions,
            "amount": amount,
            "seed": seed,
        },
    )
