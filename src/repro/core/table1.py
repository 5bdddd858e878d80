"""Table 1: tight lower bounds on message delays and messages per problem.

The paper's Table 1 gives, for each of the 27 non-empty cells ``(X, Y)``, a
fraction ``d / m``: the tight lower bound on the number of message delays and
on the number of messages exchanged in nice executions of any protocol that
solves the cell's problem.  The bounds follow two simple rules (proved in
Section 3 and used verbatim here):

* **delays** — 2 if ``X = {A, V, T}`` and ``A ∈ Y`` (the four most robust
  cells, culminating in indulgent atomic commit); otherwise 1.
* **messages** —
  ``2n - 2 + f``  if ``X = {A, V, T}`` and ``A ∈ Y``;
  ``2n - 2``      else if ``V ∈ Y``;
  ``n - 1 + f``   else if ``V ∈ X``;
  ``0``           otherwise.

These closed forms are checked against the literal contents of the paper's
table in the test-suite (``tests/core/test_table1.py`` contains the table
transcribed cell by cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.lattice import Prop, PropertyPair, all_cells
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CellBound:
    """The tight lower bounds of one Table 1 cell."""

    cell: PropertyPair
    delays: int
    messages_symbolic: str
    messages: Callable[[int, int], int]

    def messages_for(self, n: int, f: int) -> int:
        _validate_nf(n, f)
        return self.messages(n, f)

    def as_fraction(self, n: int = None, f: int = None) -> str:
        """Render the cell the way the paper does, e.g. ``2/2n-2+f``."""
        if n is None or f is None:
            return f"{self.delays}/{self.messages_symbolic}"
        return f"{self.delays}/{self.messages_for(n, f)}"


def _validate_nf(n: int, f: int) -> None:
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if not 1 <= f <= n - 1:
        raise ConfigurationError(f"f must satisfy 1 <= f <= n-1, got f={f}, n={n}")


def delay_lower_bound(cell: PropertyPair) -> int:
    """Tight lower bound on message delays in nice executions for this cell."""
    cell = cell.canonicalised()
    if cell.cf == frozenset(Prop) and Prop.AGREEMENT in cell.nf:
        return 2
    return 1


_ZERO = ("0", lambda n, f: 0)
_N1F = ("n-1+f", lambda n, f: n - 1 + f)
_2N2 = ("2n-2", lambda n, f: 2 * n - 2)
_2N2F = ("2n-2+f", lambda n, f: 2 * n - 2 + f)


def _message_rule(cell: PropertyPair) -> Tuple[str, Callable[[int, int], int]]:
    cell = cell.canonicalised()
    if cell.cf == frozenset(Prop) and Prop.AGREEMENT in cell.nf:
        return _2N2F
    if Prop.VALIDITY in cell.nf:
        return _2N2
    if Prop.VALIDITY in cell.cf:
        return _N1F
    return _ZERO


def message_lower_bound(cell: PropertyPair, n: int = None, f: int = None):
    """Tight lower bound on messages; symbolic if ``n``/``f`` are omitted."""
    symbolic, fn = _message_rule(cell)
    if n is None or f is None:
        return symbolic
    _validate_nf(n, f)
    return fn(n, f)


def cell_bound(cell: PropertyPair) -> CellBound:
    symbolic, fn = _message_rule(cell)
    return CellBound(
        cell=cell.canonicalised(),
        delays=delay_lower_bound(cell),
        messages_symbolic=symbolic,
        messages=fn,
    )


def table1_bounds() -> Dict[Tuple[str, str], CellBound]:
    """All 27 cells keyed by their ``(CF label, NF label)`` pair."""
    return {cell.label(): cell_bound(cell) for cell in all_cells()}


def complexity_groups() -> Dict[str, List[PropertyPair]]:
    """Group the 27 cells by their message lower bound (the paper's proof strategy)."""
    groups: Dict[str, List[PropertyPair]] = {}
    for cell in all_cells():
        symbolic, _ = _message_rule(cell)
        groups.setdefault(symbolic, []).append(cell)
    return groups


def delay_groups() -> Dict[int, List[PropertyPair]]:
    """Group the 27 cells by their delay lower bound."""
    groups: Dict[int, List[PropertyPair]] = {}
    for cell in all_cells():
        groups.setdefault(delay_lower_bound(cell), []).append(cell)
    return groups


def tradeoff_cells() -> List[PropertyPair]:
    """Cells where delay- and message-optimality cannot be achieved together.

    The paper identifies 18 of the 27 problems with such a tradeoff:

    * the 14 cells whose message bound is ``n-1+f`` or ``2n-2`` (validity at
      least in crash-failure executions forces a 1-delay protocol to use at
      least ``n(n-1)`` messages), and
    * the 4 most robust cells (``2fn`` messages are needed by any 2-delay
      protocol, Theorem 5).
    """
    result = []
    for cell in all_cells():
        symbolic, _ = _message_rule(cell)
        if symbolic in ("n-1+f", "2n-2", "2n-2+f"):
            result.append(cell)
    return result
