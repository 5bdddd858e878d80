"""Atomic-commit protocol implementations.

The paper's own optimal protocols (Tables 2 and 3):

======================  =========================================  ==================
name                    class                                      cell (CF, NF)
======================  =========================================  ==================
INBAC                   :class:`~repro.protocols.inbac.INBAC`      (AVT, AVT)
1NBAC                   :class:`~repro.protocols.one_nbac.OneNBAC` (AVT, VT)
avNBAC (delay-optimal)  :class:`AvNBACDelayOptimal`                (AV, AV)
avNBAC (msg-optimal)    :class:`AvNBACMessageOptimal`              (AV, AV)
0NBAC                   :class:`~repro.protocols.zero_nbac.ZeroNBAC` (AT, AT)
aNBAC                   :class:`~repro.protocols.a_nbac.ANBAC`     (AV, A)
(n-1+f)NBAC             :class:`NMinus1PlusFNBAC`                  (AVT, T)
(2n-2)NBAC              :class:`TwoNMinus2NBAC`                    (AVT, VT)
(2n-2+f)NBAC            :class:`TwoNMinus2PlusFNBAC`               (AVT, AVT)
======================  =========================================  ==================

Baselines used for comparison (Section 6 / Table 5): 2PC, 3PC, PaxosCommit and
Faster PaxosCommit.
"""

from repro.protocols.a_nbac import ANBAC
from repro.protocols.av_nbac import AvNBACDelayOptimal, AvNBACMessageOptimal
from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess, logical_and
from repro.protocols.inbac import INBAC
from repro.protocols.n1f_nbac import NMinus1PlusFNBAC
from repro.protocols.one_nbac import OneNBAC
from repro.protocols.paxos_commit import FasterPaxosCommit, PaxosCommit
from repro.protocols.registry import (
    ProtocolInfo,
    all_protocols,
    get_protocol,
    protocol_names,
    table5_protocols,
)
from repro.protocols.three_phase import ThreePhaseCommit
from repro.protocols.two_n_minus_2 import TwoNMinus2NBAC
from repro.protocols.two_n_minus_2_f import TwoNMinus2PlusFNBAC
from repro.protocols.two_phase import TwoPhaseCommit
from repro.protocols.zero_nbac import ZeroNBAC

__all__ = [
    "ABORT",
    "ANBAC",
    "AtomicCommitProcess",
    "AvNBACDelayOptimal",
    "AvNBACMessageOptimal",
    "COMMIT",
    "FasterPaxosCommit",
    "INBAC",
    "NMinus1PlusFNBAC",
    "OneNBAC",
    "PaxosCommit",
    "ProtocolInfo",
    "ThreePhaseCommit",
    "TwoNMinus2NBAC",
    "TwoNMinus2PlusFNBAC",
    "TwoPhaseCommit",
    "ZeroNBAC",
    "all_protocols",
    "get_protocol",
    "logical_and",
    "protocol_names",
    "table5_protocols",
]
