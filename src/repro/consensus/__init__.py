"""Consensus substrate.

The paper's optimal protocols (INBAC, 1NBAC, 0NBAC, (2n-2+f)NBAC, ...) use an
underlying *uniform consensus* module — called ``uc`` or ``iuc`` in the
pseudocode — only when something goes wrong (a crash is suspected or a message
is late).  Definition 5 requires validity (only proposed values are decided),
agreement and termination in a network-failure (eventually synchronous)
system.

:class:`~repro.consensus.paxos.PaxosConsensus` is that module in every run:
single-decree Paxos with retrying proposers, which gives the commit protocols
their indulgence (safety under arbitrary delays, liveness once the system
stabilises with a correct majority).  It is a
:class:`~repro.env.ProcessComponent` sub-protocol: attached to a host process,
it shares the host's network links and timers.  A commit protocol builds it
the first time it is used, so a nice execution holds none
(:meth:`repro.protocols.base.AtomicCommitProcess.consensus`).
"""

from repro.consensus.paxos import PaxosConsensus

__all__ = ["PaxosConsensus"]
