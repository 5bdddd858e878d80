"""The paper's published complexity formulas (Tables 4 and 5).

Table 5 compares the protocols "assuming that each protocol starts when n
processes send messages spontaneously" (footnote 13); under that convention
the paper removes one delay from 2PC and two delays from the PaxosCommit
variants relative to their original descriptions, and ``n - 1`` messages from
each of the three.  The formulas below are the table entries as printed.

The simulator's own accounting (registry ``expected_*`` formulas) agrees with
the printed message count of every column and with the printed *delay* count
of every column but one: for the chain protocol (n-1+f)NBAC the measured delay
count is one unit larger than the paper's, because the paper counts delays
from the first chain message rather than from the spontaneous start.
:func:`repro.analysis.tables.build_table5` reports both numbers side by side.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import ConfigurationError


def _check(n: int, f: int) -> None:
    if n < 2 or not 1 <= f <= n - 1:
        raise ConfigurationError(f"invalid parameters n={n}, f={f}")


# --------------------------------------------------------------------------- #
# Table 5 — INBAC vs (n-1+f)NBAC vs 1NBAC vs 2PC vs PaxosCommit vs Faster PC
# --------------------------------------------------------------------------- #
_TABLE5_DELAYS: Dict[str, Callable[[int, int], float]] = {
    "1NBAC": lambda n, f: 1,
    "(n-1+f)NBAC": lambda n, f: 2 * f + n - 1,
    "INBAC": lambda n, f: 2,
    "2PC": lambda n, f: 2,
    "PaxosCommit": lambda n, f: 3,
    "FasterPaxosCommit": lambda n, f: 2,
}

_TABLE5_MESSAGES: Dict[str, Callable[[int, int], int]] = {
    "1NBAC": lambda n, f: n * n - n,
    "(n-1+f)NBAC": lambda n, f: f + n - 1,
    "INBAC": lambda n, f: 2 * f * n,
    "2PC": lambda n, f: 2 * n - 2,
    "PaxosCommit": lambda n, f: n * f + 2 * n - 2,
    "FasterPaxosCommit": lambda n, f: 2 * f * n + 2 * n - 2 * f - 2,
}

_TABLE5_PROBLEM: Dict[str, str] = {
    "1NBAC": "Sync. NBAC",
    "(n-1+f)NBAC": "Sync. NBAC",
    "INBAC": "Indulgent",
    "2PC": "Blocking",
    "PaxosCommit": "Indulgent",
    "FasterPaxosCommit": "Indulgent",
}


def _check_column(protocol: str) -> None:
    if protocol not in _TABLE5_PROBLEM:
        raise ConfigurationError(
            f"{protocol!r} is not a Table 5 column; the columns are "
            f"{', '.join(_TABLE5_PROBLEM)}"
        )


def paper_table5_delays(protocol: str, n: int, f: int) -> float:
    """The #delays entry of Table 5 for ``protocol``."""
    _check_column(protocol)
    _check(n, f)
    return _TABLE5_DELAYS[protocol](n, f)


def paper_table5_messages(protocol: str, n: int, f: int) -> int:
    """The #messages entry of Table 5 for ``protocol``."""
    _check_column(protocol)
    _check(n, f)
    return _TABLE5_MESSAGES[protocol](n, f)


def paper_table5_problem(protocol: str) -> str:
    """The "atomic commit (problem solved)" row of Table 5."""
    _check_column(protocol)
    return _TABLE5_PROBLEM[protocol]


# --------------------------------------------------------------------------- #
# Table 4 — indulgent atomic commit and synchronous NBAC, this paper vs prior
# --------------------------------------------------------------------------- #
def paper_table4(n: int, f: int) -> Dict[str, Dict[str, object]]:
    """Table 4: tight bounds for indulgent atomic commit and synchronous NBAC."""
    _check(n, f)
    return {
        "indulgent atomic commit (this paper)": {
            "delays": 2,
            "messages": 2 * n - 2 + f,
            "note": "message bound holds for f >= 2",
        },
        "synchronous NBAC (this paper)": {
            "delays": 1,
            "messages": n - 1 + f,
            "note": "",
        },
        "synchronous NBAC (Dwork-Skeen et al.)": {
            "delays": None,
            "messages": 2 * n - 2,
            "note": "known only for f = n - 1",
        },
    }


# --------------------------------------------------------------------------- #
# Theorem 5 — messages needed by any 2-delay indulgent protocol
# --------------------------------------------------------------------------- #
def two_delay_message_lower_bound(n: int, f: int) -> int:
    """Theorem 5: any 2-delay protocol for the (AVT, A)-or-stronger problems
    exchanges at least ``2 f n`` messages in nice executions."""
    _check(n, f)
    return 2 * f * n


def one_delay_message_lower_bound(n: int, f: int) -> int:
    """Section 3.2 remark: a 1-delay protocol with validity under crashes
    needs at least ``n (n - 1)`` messages."""
    _check(n, f)
    return n * (n - 1)
