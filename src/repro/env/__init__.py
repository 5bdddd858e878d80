"""The runtime-neutral process/environment contract.

Every protocol in this library (atomic commit, consensus, database partitions)
is written as a subclass of :class:`Process` whose methods mirror the paper's
pseudocode structure:

* ``on_propose(value)``   — the ``<Propose | v>`` event;
* ``on_deliver(src, msg)``— the ``<pl, Deliver | p, m>`` event;
* ``on_timeout(name)``    — the ``<timer, Timeout>`` event.

A process interacts with the world exclusively through its :class:`ProcessEnv`
(send, send_many, set_timer, cancel_timer, decide, now).  Two runtimes provide
it:

* the discrete-event simulator (:class:`repro.sim.runner.SimEnv`) — virtual
  time, deterministic, the repo's test oracle;
* the asyncio transport runtime (:class:`repro.runtime.AsyncRuntime`) — the
  simulator's scheduler and env paced by the wall clock, one unit of
  simulated time ``U`` per ``AsyncRuntime.unit`` seconds, real concurrency.

Embedding adapters (e.g. :class:`repro.db.partition.EmbeddedCommitEnv`, which
hosts a per-transaction commit instance inside a partition server) tunnel the
same contract through a host process, which is what lets the very same
protocol classes be measured for the paper's tables, reused as the commit
layer of the transactional key-value store, and served over a live asyncio
cluster — without a single protocol-side edit.

The contract (normative)
------------------------
Any ``ProcessEnv`` implementation must satisfy the semantics below; the
executable version is the conformance battery under ``tests/``
(``tests/conformance.py``), which both bundled runtimes pass
(``tests/test_env_conformance.py``).

* **send** is a perfect point-to-point link under the configured fault model:
  no duplication, no corruption; a message to self arrives locally and is not
  counted as a network message (footnote 10 of the paper).
* **send_many(dsts, payload, module)** is *exactly*
  ``for dst in dsts: send(dst, payload, module)`` — same messages, same order,
  same counting, and an error at the i-th destination leaves the first i-1
  sent — offered so a runtime can post a broadcast as one operation.  ``dsts``
  is any iterable (consumed once); the one ``payload`` object is shared by
  every destination, so receivers must treat payloads as immutable.
* **set_timer(at_units, name)** (re-)arms the *named* timer to fire at the
  absolute time ``at_units`` (units of U).  Re-arming before the fire
  supersedes the pending fire — the timer fires exactly once, at the last
  requested time.  A deadline in the past fires as soon as possible, never
  before the current event handler returns.
* **cancel_timer(name)** disarms the named timer if pending; cancelling a
  timer that already fired (or was never armed) is a no-op, not an error.
* **decide(value)** records this process' decision exactly once; a second
  call raises :class:`~repro.errors.ProtocolViolationError` (the integrity
  property, enforced at the environment boundary).
* **now()** is monotonically non-decreasing within a process, expressed in
  units of U, and a timer never fires at ``now() < at_units``.

Sub-modules
-----------
Protocols that rely on an underlying service (the consensus module ``uc`` /
``iuc`` in the paper) attach a *component* to the process.  Components receive
the messages addressed to them through a module-tagged envelope
``("__mod__", module_name, inner_payload)`` and share the host's timers via
namespaced timer names (``"module:name"``).  A process may declare a
component it builds only on first use (:meth:`Process.build_component`): an
envelope for it builds it and is then delivered to it, so a run that never
uses the service never allocates it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional, Protocol

from repro.errors import ProtocolViolationError

MODULE_ENVELOPE = "__mod__"


class ProcessEnv(Protocol):
    """The environment a process runs in (simulation, embedded, or asyncio)."""

    def send(self, dst: int, payload: Any, module: str = "main") -> None:
        """Send ``payload`` to process ``dst`` over a perfect point-to-point link."""
        ...  # pragma: no cover

    def send_many(self, dsts: Iterable[int], payload: Any, module: str = "main") -> None:
        """Exactly ``for dst in dsts: send(dst, payload, module)``, as one call."""
        ...  # pragma: no cover

    def set_timer(self, at_units: float, name: str = "timer") -> None:
        """(Re-)arm the named timer to fire at absolute time ``at_units`` (units of U)."""
        ...  # pragma: no cover

    def cancel_timer(self, name: str = "timer") -> None:
        """Disarm the named timer if pending."""
        ...  # pragma: no cover

    def decide(self, value: Any) -> None:
        """Record this process' decision."""
        ...  # pragma: no cover

    def now(self) -> float:
        """Current virtual (or wall-clock) time in units of U."""
        ...  # pragma: no cover


class ProcessComponent:
    """A sub-protocol hosted inside a process (e.g. the consensus module).

    Subclasses override :meth:`on_deliver` and :meth:`on_timeout`; they talk to
    peers through :meth:`send`, which wraps payloads in the module envelope so
    the host process on the other side can route them back to the peer
    component with the same name.
    """

    def __init__(self, host: "Process", name: str):
        self.host = host
        self.name = name

    # -- outgoing ------------------------------------------------------- #
    def send(self, dst: int, payload: Any) -> None:
        self.host.env.send(dst, (MODULE_ENVELOPE, self.name, payload), module=self.name)

    def send_many(self, dsts: Iterable[int], payload: Any) -> None:
        """One envelope for every destination in ``dsts``."""
        self.host.env.send_many(
            dsts, (MODULE_ENVELOPE, self.name, payload), module=self.name
        )

    def broadcast(self, payload: Any, include_self: bool = True) -> None:
        host = self.host
        self.send_many(host.all_pids() if include_self else host.other_pids(), payload)

    def set_timer(self, at_units: float, name: str = "timer") -> None:
        self.host.env.set_timer(at_units, name=f"{self.name}:{name}")

    def cancel_timer(self, name: str = "timer") -> None:
        self.host.env.cancel_timer(name=f"{self.name}:{name}")

    def now(self) -> float:
        return self.host.env.now()

    def release(self) -> None:
        """Drop the edge back to the host (see :meth:`Process.release`)."""
        self.host = None

    # -- incoming ------------------------------------------------------- #
    def on_deliver(self, src: int, payload: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_timeout(self, name: str) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


#: the components of a process that has attached none: shared, read-only
_NO_COMPONENTS: Mapping[str, ProcessComponent] = MappingProxyType({})


class Process:
    """Base class for all processes, independent of the hosting runtime.

    Parameters
    ----------
    pid:
        1-based process id, matching the paper's ``P1 ... Pn`` notation.
    n:
        Total number of processes.
    f:
        Maximum number of processes that may crash (``1 <= f <= n - 1``).
    env:
        The :class:`ProcessEnv` this process uses to interact with the world.
    """

    #: the values a proposal to this process may take (compared with ``==``),
    #: or None for any; the kernel refuses another before queuing it
    proposal_values: Optional[tuple] = None
    #: the attached components by name; the first attach gives the process
    #: its own mapping
    _components: Mapping[str, ProcessComponent] = _NO_COMPONENTS

    def __init__(self, pid: int, n: int, f: int, env: ProcessEnv):
        self.pid = pid
        self.n = n
        self.f = f
        self.env = env
        self.crashed = False

    # ------------------------------------------------------------------ #
    # identity helpers mirroring the paper's notation
    # ------------------------------------------------------------------ #
    def all_pids(self) -> range:
        """``Ω`` — every process id, 1..n."""
        return range(1, self.n + 1)

    def other_pids(self) -> list:
        """``Ω \\ {self}``."""
        return [p for p in self.all_pids() if p != self.pid]

    def mod_index(self, i: int) -> int:
        """The paper's ``%`` convention: modulo n, but 0 maps to n."""
        r = i % self.n
        return self.n if r == 0 else r

    # ------------------------------------------------------------------ #
    # component plumbing
    # ------------------------------------------------------------------ #
    def attach_component(self, component: ProcessComponent) -> ProcessComponent:
        if component.name in self._components:
            raise ProtocolViolationError(
                f"component {component.name!r} already attached to P{self.pid}"
            )
        self._components = {**self._components, component.name: component}
        return component

    def build_component(self, name: str) -> Optional[ProcessComponent]:
        """Build and attach the component this process declares as ``name``.

        Called when an envelope arrives for a component not attached yet;
        returns None for a name the process does not declare, and the
        envelope is dropped.  The base class declares none; a subclass whose
        component is built on first use answers for it here.
        """
        return None

    # ------------------------------------------------------------------ #
    # convenience wrappers over the environment
    # ------------------------------------------------------------------ #
    def send(self, dst: int, payload: Any) -> None:
        self.env.send(dst, payload)

    def send_many(self, dsts: Iterable[int], payload: Any) -> None:
        """Send one payload to every process in ``dsts``, in order."""
        self.env.send_many(dsts, payload)

    def send_all(self, payload: Any, include_self: bool = True) -> None:
        """Send to every process in ``Ω`` (``forall q ∈ Ω`` in the pseudocode)."""
        self.env.send_many(
            self.all_pids() if include_self else self.other_pids(), payload
        )

    def set_timer(self, at_units: float, name: str = "timer") -> None:
        self.env.set_timer(at_units, name=name)

    def decide(self, value: Any) -> None:
        self.env.decide(value)

    def now(self) -> float:
        return self.env.now()

    # ------------------------------------------------------------------ #
    # event dispatch (called by the scheduler / embedding adapter)
    # ------------------------------------------------------------------ #
    def deliver(self, src: int, payload: Any) -> None:
        """Route an incoming message either to a component or to the protocol."""
        if (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == MODULE_ENVELOPE
        ):
            _, module_name, inner = payload
            component = self._components.get(module_name)
            if component is None:
                component = self.build_component(module_name)
            if component is not None:
                component.on_deliver(src, inner)
            return
        self.on_deliver(src, payload)

    def timeout(self, name: str) -> None:
        """Route a timer expiry either to a component or to the protocol."""
        if ":" in name:
            module_name, inner_name = name.split(":", 1)
            component = self._components.get(module_name)
            if component is not None:
                component.on_timeout(inner_name)
                return
        self.on_timeout(name)

    # ------------------------------------------------------------------ #
    # handlers protocols override
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        """Called once, at time 0, before any propose/deliver event."""

    def on_propose(self, value: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_deliver(self, src: int, payload: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_timeout(self, name: str) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_crash(self) -> None:
        """Hook invoked when the fault plan crashes this process."""

    def on_recover(self) -> None:
        """Hook invoked when this (possibly rebuilt) process rejoins.

        Called by the hosting runtime after a crash recovery, once the
        process is live again: timers of the previous incarnation have been
        cancelled and the network accepts its traffic.  Recovery-aware
        processes re-arm timers and issue termination queries here.
        """

    def release(self) -> None:
        """Cut the edges from this process' parts back to it; the run is over.

        A component holds its host (and a consensus component a bound method
        of it), so a process with components is a reference cycle of its
        own.  The hosting runtime calls this once nothing will run the
        process again (:meth:`repro.sim.runner.Scheduler.release`); its state
        stays readable.  Subclasses holding more such edges cut them too.
        """
        for component in self._components.values():
            component.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(P{self.pid}, n={self.n}, f={self.f})"


__all__ = ["MODULE_ENVELOPE", "Process", "ProcessComponent", "ProcessEnv"]
