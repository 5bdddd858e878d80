"""Consensus substrate.

The paper's optimal protocols (INBAC, 1NBAC, 0NBAC, (2n-2+f)NBAC, ...) use an
underlying *uniform consensus* module — called ``uc`` or ``iuc`` in the
pseudocode — only when something goes wrong (a crash is suspected or a message
is late).  Definition 5 requires validity (only proposed values are decided),
agreement and termination in a network-failure (eventually synchronous)
system.

This package provides two interchangeable implementations of that module:

* :class:`~repro.consensus.paxos.PaxosConsensus` — single-decree Paxos with
  retrying proposers; this is the default and is what gives the commit
  protocols their indulgence (safety under arbitrary delays, liveness once the
  system stabilises with a correct majority).
* :class:`~repro.consensus.fixed_leader.FixedLeaderConsensus` — a minimal
  fixed-coordinator consensus used by fast unit tests and by executions where
  the coordinator is known to be correct.

Both are :class:`~repro.env.ProcessComponent` sub-protocols: they are
attached to a host process and share its network links and timers.
"""

from repro.consensus.fixed_leader import FixedLeaderConsensus
from repro.consensus.interfaces import ConsensusComponent
from repro.consensus.paxos import PaxosConsensus

__all__ = ["ConsensusComponent", "FixedLeaderConsensus", "PaxosConsensus"]
