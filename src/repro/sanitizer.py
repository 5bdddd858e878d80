"""Runtime determinism sanitizer (``REPRO_SANITIZE=1``).

The static analyser (``python -m tools.lint``, a developer tool outside the
package) catches the *patterns* that break the fingerprint contract; this
module catches the *behaviour*.  :func:`install` monkey-patches the digest
pipeline so that every ``Trace.fingerprint()`` and ``CellAccumulator.row()``
is recomputed from a clone whose dicts were rebuilt in reversed insertion
order.  If the bytes change, the result depended on insertion order (which
differs between the per-trial and chunked fold paths) and a
:class:`~repro.errors.DeterminismError` is raised naming the diverging field.
``record_send`` (and the counters level's ``record_send_batch``) is also
wrapped to reject payloads carrying bare ``set``/``frozenset`` values — their
repr order is implementation-defined and feeds the full-level fingerprint.

``repro/__init__`` imports this module and calls :func:`install` only when
``REPRO_SANITIZE=1`` is set, so spawn pool workers — which re-import
:mod:`repro` — re-arm the wrappers themselves, and an unsanitized
``import repro`` never loads it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

#: originals saved by install(), keyed by (class, attribute name)
_originals: Dict[Tuple[type, str], Any] = {}

#: how many checks each wrapper ran (for tests and reporting)
observations: Dict[str, int] = {"fingerprint": 0, "record_send": 0, "row": 0}


def is_installed() -> bool:
    return bool(_originals)


# --------------------------------------------------------------------------- #
# payload canonicalisation check
# --------------------------------------------------------------------------- #
def _find_unordered(value: Any, depth: int = 0) -> Optional[Any]:
    """First ``set``/``frozenset`` nested anywhere inside ``value``."""
    if isinstance(value, (set, frozenset)):
        return value
    if depth > 6:
        return None
    if isinstance(value, (tuple, list)):
        for item in value:
            hit = _find_unordered(item, depth + 1)
            if hit is not None:
                return hit
    elif isinstance(value, dict):
        for key, item in value.items():
            hit = _find_unordered(key, depth + 1)
            if hit is None:
                hit = _find_unordered(item, depth + 1)
            if hit is not None:
                return hit
    return None


def _reversed_dict(d: Dict[Any, Any]) -> Dict[Any, Any]:
    return dict(reversed(list(d.items())))


def _perturbed_trace(trace: Any) -> Any:
    """Shallow clone with every internal dict rebuilt in reversed order."""
    import copy

    clone = copy.copy(trace)
    for attr in ("decisions", "proposals", "crashes", "module_counts",
                 "recv_time_counts", "metadata"):
        value = getattr(clone, attr, None)
        if isinstance(value, dict):
            setattr(clone, attr, _reversed_dict(value))
    return clone


def _first_divergence(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    for key in sorted(set(a) | set(b)):
        if json.dumps(a.get(key), sort_keys=True, default=str) != json.dumps(
            b.get(key), sort_keys=True, default=str
        ):
            return key
    return "<unknown>"


# --------------------------------------------------------------------------- #
# install / uninstall
# --------------------------------------------------------------------------- #
def install() -> None:
    """Wrap the digest pipeline with order-perturbation checks (idempotent)."""
    if _originals:
        return
    from repro.errors import DeterminismError
    from repro.exp.results import CellAccumulator
    from repro.sim.trace import CounterTrace, Trace

    orig_fingerprint = Trace.fingerprint
    orig_send_full = Trace.record_send
    orig_send_counters = CounterTrace.record_send
    orig_send_batch = CounterTrace.record_send_batch
    orig_row = CellAccumulator.row

    def checked_fingerprint(self):
        observations["fingerprint"] += 1
        fingerprint = orig_fingerprint(self)
        perturbed = orig_fingerprint(_perturbed_trace(self))
        if perturbed != fingerprint:
            key = _first_divergence(
                self._canonical(), _perturbed_trace(self)._canonical()
            )
            raise DeterminismError(
                f"{type(self).__name__}.fingerprint() depends on dict "
                f"insertion order (diverges at {key!r}); canonicalise with "
                f"sorted(...) in _canonical (src/repro/sim/trace.py)"
            )
        return fingerprint

    def _check_payload(trace, payload):
        observations["record_send"] += 1
        unordered = _find_unordered(payload)
        if unordered is not None:
            raise DeterminismError(
                f"protocol {trace.protocol or '?'} sent a payload "
                f"containing an unordered {type(unordered).__name__} "
                f"({payload!r}); its repr feeds the trace fingerprint — "
                f"send tuple(sorted(...)) instead"
            )

    def _checked_send(orig):
        def checked_record_send(self, msg_id, src, dst, payload, send_time,
                                recv_time, counted, module="main"):
            _check_payload(self, payload)
            return orig(self, msg_id, src, dst, payload, send_time,
                        recv_time, counted, module=module)

        return checked_record_send

    def checked_record_send_batch(self, payload, module, recv_time, count):
        # the counters level sees a broadcast's counted messages as one call
        _check_payload(self, payload)
        return orig_send_batch(self, payload, module, recv_time, count)

    def checked_row(self):
        observations["row"] += 1
        row = orig_row(self)
        clone = CellAccumulator.__new__(type(self))
        for slot in CellAccumulator.__slots__:
            value = getattr(self, slot)
            if isinstance(value, dict):
                value = _reversed_dict(value)
            setattr(clone, slot, value)
        perturbed = orig_row(clone)
        if perturbed != row:
            column = _first_divergence(row, perturbed)
            raise DeterminismError(
                f"{type(self).__name__}.row() depends on digest insertion "
                f"order (column {column!r} diverges); reduce over "
                f"sorted(counts) at row() time (src/repro/exp/results.py)"
            )
        return row

    _originals[(Trace, "fingerprint")] = orig_fingerprint
    _originals[(Trace, "record_send")] = orig_send_full
    _originals[(CounterTrace, "record_send")] = orig_send_counters
    _originals[(CounterTrace, "record_send_batch")] = orig_send_batch
    _originals[(CellAccumulator, "row")] = orig_row
    Trace.fingerprint = checked_fingerprint
    Trace.record_send = _checked_send(orig_send_full)
    CounterTrace.record_send = _checked_send(orig_send_counters)
    CounterTrace.record_send_batch = checked_record_send_batch
    CellAccumulator.row = checked_row


def uninstall() -> None:
    """Restore the unwrapped methods (test hygiene)."""
    for (cls, name), original in _originals.items():
        setattr(cls, name, original)
    _originals.clear()


