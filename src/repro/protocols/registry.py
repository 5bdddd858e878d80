"""Protocol registry: every implemented commit protocol plus its metadata.

Each entry records

* which problem cell of Table 1 the protocol matches (its robustness),
* the *measured* best-case complexity we expect from the simulator in nice
  executions (used as test oracles in ``tests/protocols``), and
* Tables 2 and 3 (``TABLE2_DELAY_OPTIMAL``, ``TABLE3_MESSAGE_OPTIMAL``).

The paper's Table 5 (:mod:`repro.analysis.formulas`) is read off these
entries: its delay count is ``expected_delays`` less the class's
``timer_origin_shift``, because the paper counts a chain protocol's delays
from its first send.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.lattice import PropertyPair
from repro.errors import ConfigurationError
from repro.protocols.a_nbac import ANBAC
from repro.protocols.av_nbac import AvNBACDelayOptimal, AvNBACMessageOptimal
from repro.protocols.inbac import INBAC
from repro.protocols.n1f_nbac import NMinus1PlusFNBAC
from repro.protocols.one_nbac import OneNBAC
from repro.protocols.paxos_commit import FasterPaxosCommit, PaxosCommit
from repro.protocols.three_phase import ThreePhaseCommit
from repro.protocols.two_n_minus_2 import TwoNMinus2NBAC
from repro.protocols.two_n_minus_2_f import TwoNMinus2PlusFNBAC
from repro.protocols.two_phase import TwoPhaseCommit
from repro.protocols.zero_nbac import ZeroNBAC


@dataclass(frozen=True)
class ProtocolInfo:
    """Registry entry for one protocol."""

    name: str
    cls: type
    cell: Optional[PropertyPair]
    expected_delays: Callable[[int, int], float]
    expected_messages: Callable[[int, int], int]
    solves_indulgent: bool = False
    blocking: bool = False
    notes: str = ""


_REGISTRY: Dict[str, ProtocolInfo] = {}


def _register(info: ProtocolInfo) -> None:
    _REGISTRY[info.name] = info


_register(
    ProtocolInfo(
        name="2PC",
        cls=TwoPhaseCommit,
        cell=None,
        expected_delays=lambda n, f: 2,
        expected_messages=lambda n, f: 2 * n - 2,
        blocking=True,
        notes="classical baseline; agreement+validity always, blocks on coordinator crash",
    )
)
_register(
    ProtocolInfo(
        name="3PC",
        cls=ThreePhaseCommit,
        cell=PropertyPair.of("AVT", ""),
        expected_delays=lambda n, f: 4,
        expected_messages=lambda n, f: 4 * n - 4,
        notes="Skeen's non-blocking commit; termination protocol unsafe under network failures",
    )
)
_register(
    ProtocolInfo(
        name="INBAC",
        cls=INBAC,
        cell=PropertyPair.indulgent_atomic_commit(),
        expected_delays=lambda n, f: 2,
        expected_messages=lambda n, f: 2 * f * n,
        solves_indulgent=True,
        notes="delay-optimal indulgent atomic commit; message-optimal among 2-delay protocols",
    )
)
_register(
    ProtocolInfo(
        name="1NBAC",
        cls=OneNBAC,
        cell=PropertyPair.of("AVT", "VT"),
        expected_delays=lambda n, f: 1,
        expected_messages=lambda n, f: n * n - n,
        notes="delay-optimal synchronous NBAC (one message delay)",
    )
)
_register(
    ProtocolInfo(
        name="avNBAC-delay",
        cls=AvNBACDelayOptimal,
        cell=PropertyPair.of("AV", "AV"),
        expected_delays=lambda n, f: 1,
        expected_messages=lambda n, f: n * n - n,
        notes="delay-optimal protocol for cell (AV, AV)",
    )
)
_register(
    ProtocolInfo(
        name="avNBAC",
        cls=AvNBACMessageOptimal,
        cell=PropertyPair.of("AV", "AV"),
        expected_delays=lambda n, f: 2,
        expected_messages=lambda n, f: 2 * n - 2,
        notes="message-optimal protocol for cell (AV, AV)",
    )
)
_register(
    ProtocolInfo(
        name="0NBAC",
        cls=ZeroNBAC,
        cell=PropertyPair.of("AT", "AT"),
        expected_delays=lambda n, f: 1,
        expected_messages=lambda n, f: 0,
        notes="zero messages in nice executions; no time/message tradeoff for its cell",
    )
)
_register(
    ProtocolInfo(
        name="aNBAC",
        cls=ANBAC,
        cell=PropertyPair.of("AV", "A"),
        expected_delays=lambda n, f: n + 2 * f,
        expected_messages=lambda n, f: n - 1 + f,
        notes="message-optimal protocol for cell (AV, A)",
    )
)
_register(
    ProtocolInfo(
        name="(n-1+f)NBAC",
        cls=NMinus1PlusFNBAC,
        cell=PropertyPair.of("AVT", "T"),
        expected_delays=lambda n, f: n + 2 * f,
        expected_messages=lambda n, f: n - 1 + f,
        notes="message-optimal synchronous NBAC; generalises Dwork-Skeen to f crashes",
    )
)
_register(
    ProtocolInfo(
        name="(2n-2)NBAC",
        cls=TwoNMinus2NBAC,
        cell=PropertyPair.of("AVT", "VT"),
        expected_delays=lambda n, f: 2 + f,
        expected_messages=lambda n, f: 2 * n - 2,
        notes="message-optimal protocol for cell (AVT, VT)",
    )
)
_register(
    ProtocolInfo(
        name="(2n-2+f)NBAC",
        cls=TwoNMinus2PlusFNBAC,
        cell=PropertyPair.indulgent_atomic_commit(),
        expected_delays=lambda n, f: 2 * n + f - 2,
        expected_messages=lambda n, f: 2 * n - 2 + f,
        solves_indulgent=True,
        notes="message-optimal indulgent atomic commit",
    )
)
_register(
    ProtocolInfo(
        name="PaxosCommit",
        cls=PaxosCommit,
        cell=PropertyPair.indulgent_atomic_commit(),
        expected_delays=lambda n, f: 3,
        expected_messages=lambda n, f: n * f + 2 * n - 2,
        solves_indulgent=True,
        notes="Gray & Lamport 2006, normal-case optimised (f+1 acceptors)",
    )
)
_register(
    ProtocolInfo(
        name="FasterPaxosCommit",
        cls=FasterPaxosCommit,
        cell=PropertyPair.indulgent_atomic_commit(),
        expected_delays=lambda n, f: 2,
        expected_messages=lambda n, f: 2 * f * n + 2 * n - 2 * f - 2,
        solves_indulgent=True,
        notes="Gray & Lamport 2006, acceptors broadcast phase-2b to all RMs",
    )
)


def protocol_names() -> List[str]:
    """All registered protocol names."""
    return list(_REGISTRY)


def get_protocol(name: str) -> ProtocolInfo:
    """Look up a protocol by its registry name (raises on unknown names)."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown protocol {name!r}; known: {known}") from exc


def all_protocols() -> Dict[str, ProtocolInfo]:
    return dict(_REGISTRY)


# Which registered protocol matches each optimal cell, as in Tables 2 and 3.
TABLE2_DELAY_OPTIMAL: Dict[Tuple[str, str], str] = {
    ("AV", "AV"): "avNBAC-delay",
    ("AT", "AT"): "0NBAC",
    ("AVT", "VT"): "1NBAC",
    ("AVT", "AVT"): "INBAC",
}

TABLE3_MESSAGE_OPTIMAL: Dict[Tuple[str, str], str] = {
    ("AT", "AT"): "0NBAC",
    ("AV", "A"): "aNBAC",
    ("AVT", "T"): "(n-1+f)NBAC",
    ("AV", "AV"): "avNBAC",
    ("AVT", "VT"): "(2n-2)NBAC",
    ("AVT", "AVT"): "(2n-2+f)NBAC",
}


def table5_protocols() -> List[str]:
    """The six protocols compared in Table 5, in the paper's column order."""
    return ["1NBAC", "(n-1+f)NBAC", "INBAC", "2PC", "PaxosCommit", "FasterPaxosCommit"]
