"""The discrete-event scheduler and the protocol-level simulation driver.

Two layers:

* :class:`Scheduler` — the generic event loop: the event queue, the delay
  model and fault plan, the per-process environments, crash injection and
  the trace recorder.  The database cluster (:mod:`repro.db.cluster`) drives
  this layer directly.
* :class:`Simulation` — the protocol-level driver used for all complexity
  experiments: it instantiates one protocol process per id, injects the votes
  as ``Propose`` events at time 0, runs the loop and returns a
  :class:`SimulationResult` bundling the trace with the process objects (so
  tests can inspect internal state such as INBAC's branch log).  It builds
  that run on any kernel class (:meth:`Simulation.run_on`): the asyncio
  runtime paces the same run on the wall clock.

Trace levels
------------
Both layers take a ``trace_level``:

* ``"full"`` (default) — every message becomes a
  :class:`~repro.sim.trace.MessageRecord` in a :class:`~repro.sim.trace.Trace`;
  the audit-grade level every per-message analysis needs.
* ``"counters"`` — a :class:`~repro.sim.trace.CounterTrace`: the scheduler
  allocates no message records at all and maintains only the running tallies
  (counted-message totals, per-module counts, a receive-time digest) that
  aggregate sweeps consume.  Aggregate queries answer byte-identically to a
  full-trace run of the same execution, at a fraction of the per-event cost;
  :func:`repro.exp.run_sweep` defaults its aggregate mode to this level.

Event bookkeeping is O(1) per event at either level: message delivery marks
records through an msg-id → record map (never a scan of the message log), and
the common "stop once every correct process has decided" condition is a
decremented counter maintained by :meth:`Scheduler.record_decision`, not a
predicate re-evaluated over every process id on every event.  A broadcast is
one kernel operation: :meth:`Scheduler.send_many` is the only place a message
is posted (a single send is a batch of one), so what the k messages of a
broadcast share — send time, delay source, destination bucket under a fixed
delay, the counters-level tally — is paid once, not k times.

The event queue
---------------
There is one queue and one loop.  Every event is a bare tuple in a
:class:`~repro.sim.batch.BucketQueue`: one bucket per distinct timestamp, one
FIFO per event kind inside it (crash, recover, propose, delivery, timer, and
a call from outside every handler, which only the asyncio runtime queues — the
kind constants of :mod:`repro.sim.events` are the FIFO slots).  A timestamp
that holds one delivery and nothing else holds no bucket: the slot is that
delivery's tuple (a *lone entry* — every message under a continuous delay
model), read as the bucket whose only non-empty FIFO is the delivery FIFO, of
length one, and inflated into it when a second event lands on the time.
Popping the minimum timestamp, then the lowest non-empty kind, then the FIFO
front fires events in the strict ``(time, kind, post order)`` order of the
paper's Appendix A, for any delay model and any push pattern (the argument is
in ``docs/performance.md``); :meth:`Scheduler.run` is the only place that
order and the per-kind semantics are written down, and
``tests/goldens/kernel_fingerprints.json`` pins what it must produce.

Schedule controllers
--------------------
By default the scheduler fires events in that strict order.  An optional
``controller`` (see :mod:`repro.explore`) is consulted once per popped event
— from the same loop, through an :class:`~repro.sim.events.Event` view built
only when a controller is attached — and may perturb the schedule within the
paper's admissible-execution space:

* ``("defer", extra)`` — postpone the delivery by ``extra`` time units: the
  same entry is re-queued at its later bucket (extending a message delay is
  exactly what the eventually-synchronous adversary is allowed to do; a
  deferred delivery whose effective delay exceeds the bound ``U`` turns the
  run into a network-failure execution);
* ``("crash", pid)`` — crash ``pid`` immediately, before the current event is
  dispatched, provided the fault budget ``f`` is not exhausted.

Timers, proposals and crashes cannot be reordered (they are local and fire on
time in a synchronous system), so every controlled schedule remains an
admissible execution.  Applied decisions are recorded in
:attr:`Scheduler.applied_schedule_actions`, from which the exploration layer
builds its replayable :class:`~repro.explore.ScheduleTrace`.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import ConfigurationError, ProtocolViolationError, SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.events import (
    EVENT_VIEWS,
    PRIORITY_CRASH,
    PRIORITY_DELIVERY,
    PRIORITY_PROPOSE,
    PRIORITY_RECOVER,
    PRIORITY_TIMER,
)
from repro.sim.batch import BucketQueue, lone_bucket
from repro.sim.faults import FaultPlan
from repro.sim.network import U, DelayModel, FixedDelay
from repro.env import Process
from repro.sim.trace import TRACE_LEVELS, CounterTrace, MessageRecord, Trace

ProcessFactory = Callable[[int, int, int, "SimEnv"], Process]


class SimEnv:
    """The :class:`~repro.env.ProcessEnv` provided by the scheduler."""

    def __init__(self, scheduler: "Scheduler", pid: int):
        self._scheduler = scheduler
        self.pid = pid
        self._random: Optional[random.Random] = None

    @property
    def random(self) -> random.Random:
        """This process' seeded stream, built on first use (few runs read it)."""
        rng = self._random
        if rng is None:
            rng = self._random = random.Random(
                self._scheduler.seed * 1_000_003 + self.pid
            )
        return rng

    # -- ProcessEnv interface ------------------------------------------- #
    def send(self, dst: int, payload: Any, module: str = "main") -> None:
        self._scheduler.send_many(self.pid, (dst,), payload, module)

    def send_many(self, dsts: Iterable[int], payload: Any, module: str = "main") -> None:
        self._scheduler.send_many(self.pid, dsts, payload, module)

    def set_timer(self, at_units: float, name: str = "timer") -> None:
        self._scheduler.set_timer(self.pid, at_units, name)

    def cancel_timer(self, name: str = "timer") -> None:
        self._scheduler.cancel_timer(self.pid, name)

    def decide(self, value: Any) -> None:
        self._scheduler.record_decision(self.pid, value)

    def now(self) -> float:
        return self._scheduler.clock._now


class Scheduler:
    """Deterministic event loop shared by the protocol and database drivers."""

    #: the pacing's name in a cluster report: run as fast as possible
    backend = "sim"

    def __init__(
        self,
        n: int,
        f: int,
        delay_model: Optional[DelayModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 0,
        max_time: float = 500.0,
        trace_level: str = "full",
        controller: Optional[Any] = None,
    ):
        if n < 2:
            raise ConfigurationError(f"need at least 2 processes, got n={n}")
        if not 1 <= f <= n - 1:
            raise ConfigurationError(f"f must satisfy 1 <= f <= n-1, got f={f}, n={n}")
        if trace_level not in TRACE_LEVELS:
            raise ConfigurationError(
                f"unknown trace_level {trace_level!r}; expected one of {TRACE_LEVELS}"
            )
        self.n = n
        self.f = f
        self.seed = seed
        self.max_time = max_time
        self.trace_level = trace_level
        self.clock = VirtualClock()
        self.delay_model = delay_model or FixedDelay()
        self.fault_plan = fault_plan or FaultPlan.failure_free()
        self.fault_plan.validate(n, f)
        # nth_match rules count matches; a plan reused across runs (a literal
        # plan on a sweep's faults axis) must start every execution from zero
        self.fault_plan.reset_rules()
        trace_cls = Trace if trace_level == "full" else CounterTrace
        self.trace = trace_cls(n=n, f=f)
        self.processes: Dict[int, Process] = {}
        self.envs: Dict[int, SimEnv] = {pid: SimEnv(self, pid) for pid in range(1, n + 1)}
        self._queue = BucketQueue()
        # what send_many needs per call and the run fixes once: the delay
        # source — the model's draw() when it offers one and no override rule
        # can fire (the nominal draw IS the delay then), else None for the
        # plan's transit_delay — and the trace's hook: a record per message
        # (full level) or a tally per run of messages (counters level keeps
        # no records)
        full = trace_level == "full"
        self._posting = (
            None
            if self.fault_plan.delay_rules
            else getattr(self.delay_model, "draw", None),
            self.trace.record_send if full else None,
        )
        self._tally = None if full else self.trace.record_send_batch
        self._msg_counter = 0
        #: in-flight records by msg id, so delivery marking is O(1) (records
        #: are popped on delivery); empty at the counters level
        self._pending_records: Dict[int, MessageRecord] = {}
        #: (pid, name) -> token of every timer armed right now; an expiry is
        #: the queued ``(pid, name, token)`` tuple and fires iff its token is
        #: still the armed one (the deadline-table rule, docs/runtime.md)
        self._timers: Dict[tuple, int] = {}
        self._timer_tokens = itertools.count(1)
        self._stopped = False
        # all-correct-decided stop condition as a decremented counter (see
        # stop_when_all_correct_decided); None = not armed
        self._correct_pids: Optional[frozenset] = None
        self._undecided_correct = 0
        # schedule-controller state (None = strict timestamp order)
        self._controller = controller
        self._controller_began = False
        self._schedule_step = 0
        self._schedule_overdue = False
        self._crash_budget = self.f - len(self.fault_plan.crashes)
        #: every controller decision that actually applied, as
        #: ``(step, kind, arg)`` tuples — the raw material of a ScheduleTrace
        self.applied_schedule_actions: List[tuple] = []
        # how a crashed process rejoins: ``factory(pid, scheduler, old)`` must
        # return the replacement Process, or None to refuse the recovery
        # (None = rejoin the crashed object itself, amnesia-free)
        self._recovery_factory: Optional[
            Callable[[int, "Scheduler", Process], Optional[Process]]
        ] = None
        # schedule crashes (and planned rejoins) up front; every queue key is
        # a float, so every time the trace records is one (an int key would
        # turn 2.0 into 2 in the fingerprint JSON)
        for pid, at in self.fault_plan.crashes.items():
            self._queue.push(float(at), PRIORITY_CRASH, (pid,))
        for pid, at in self.fault_plan.recoveries.items():
            self._queue.push(float(at), PRIORITY_RECOVER, (pid,))

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def bind_processes(self, factory: ProcessFactory) -> None:
        """Create one process per id using ``factory(pid, n, f, env)``."""
        for pid in range(1, self.n + 1):
            self.processes[pid] = factory(pid, self.n, self.f, self.envs[pid])

    def bind_process(self, pid: int, process: Process) -> None:
        self.processes[pid] = process

    def env_for(self, pid: int) -> SimEnv:
        return self.envs[pid]

    def start_processes(self) -> None:
        """Run every bound process' ``on_start``, in binding order, at time 0."""
        for process in self.processes.values():
            process.on_start()

    # ------------------------------------------------------------------ #
    # event production
    # ------------------------------------------------------------------ #
    def post_propose(self, pid: int, value: Any, at: float = 0.0) -> None:
        self._queue.push(float(at), PRIORITY_PROPOSE, (pid, value))

    def send_many(
        self, src: int, dsts: Iterable[int], payload: Any, module: str = "main"
    ) -> None:
        """Send ``payload`` from ``src`` to every process in ``dsts``, in order.

        Called (indirectly) by processes through their env; the only place a
        message is posted.  Exactly a loop of single sends — message ids in
        ``dsts`` order, one delay draw per non-self message, and a failure at
        one destination leaves the ones before it sent — but what a broadcast
        shares is paid once: the clock read, the delay source, and per *run*
        of consecutive counted messages with one receive time (a whole
        fixed-delay broadcast is one run) one slot lookup, one live-count
        update and one counters-level tally.  A run is gathered in a list of
        its own and queued when it closes (:meth:`_post_run`): alone at its
        time it becomes the slot itself — a lone entry if it is one message,
        the delivery FIFO of a new bucket if it is more — so under a
        continuous delay model a message costs one dict store and one
        ``heappush``, and under a fixed delay a broadcast still builds one
        bucket.
        """
        send_time = self.clock._now
        n = self.n
        msg_id = self._msg_counter
        draw, record_send = self._posting
        pending = self._pending_records
        queue = self._queue
        run_time = run = None
        try:
            for dst in dsts:
                if dst < 1 or dst > n:
                    raise SimulationError(f"message to unknown process P{dst}")
                msg_id += 1
                if dst == src:
                    # Local "message to self": arrives immediately, not
                    # counted (footnote 10 of the paper).
                    record = self.trace.record_send(
                        msg_id, src, dst, payload, send_time, send_time, False, module
                    )
                    if record is not None:
                        pending[msg_id] = record
                    if send_time == run_time:
                        # a delay that underflowed to zero put the open run
                        # at this very time: it was posted first, so it is
                        # queued first
                        self._post_run(run_time, run, payload, module)
                        run_time = run = None
                    self._push_local(
                        send_time, PRIORITY_DELIVERY, (src, dst, payload, msg_id, send_time)
                    )
                    continue
                if draw is not None:
                    recv_time = send_time + draw()
                else:
                    recv_time = send_time + self.fault_plan.transit_delay(
                        self.delay_model, src, dst, payload, send_time, msg_id
                    )
                if recv_time != run_time:
                    if run:
                        self._post_run(run_time, run, payload, module)
                    run_time = recv_time
                    run = []
                if record_send is not None:
                    pending[msg_id] = record_send(
                        msg_id, src, dst, payload, send_time, recv_time, True, module
                    )
                # deliveries are the hot event: a bare tuple carries
                # everything dispatch (and a controller's view) needs; the
                # slot key is the receive time, position in the run the
                # post order
                run.append((src, dst, payload, msg_id, send_time))
        finally:
            # also on an error mid-batch: the state is then the one the same
            # prefix of single sends would have left
            self._msg_counter = msg_id
            if run:
                self._post_run(run_time, run, payload, module)

    def _push_local(self, time: float, kind: int, entry: tuple) -> None:
        """Queue a message to self (the asyncio runtime also wakes its loop)."""
        self._queue.push(time, kind, entry)

    def _post_run(self, time: float, run: list, payload: Any, module: str) -> None:
        """Queue a closed run of :meth:`send_many` at ``time`` and tally it.

        :meth:`BucketQueue.push_run <repro.sim.batch.BucketQueue.push_run>`
        with the case every message under a continuous delay model takes
        inlined: a run of one whose time nothing else holds is stored as it
        is.
        """
        queue = self._queue
        if len(run) == 1 and time not in queue.buckets:
            queue.buckets[time] = run[0]
            heapq.heappush(queue.times, time)
        else:
            queue.push_run(time, run)
        if self._tally is not None:
            self._tally(payload, module, time, len(run))

    def set_timer(self, pid: int, at_units: float, name: str) -> None:
        """Arm (or re-arm) the named timer; re-arming supersedes the pending fire."""
        token = next(self._timer_tokens)
        self._timers[(pid, name)] = token
        fire_time = max(self.clock.now, float(at_units))
        self._queue.push(fire_time, PRIORITY_TIMER, (pid, name, token))

    def cancel_timer(self, pid: int, name: str) -> None:
        """Disarm the named timer; a fired or never-armed name has no entry."""
        self._timers.pop((pid, name), None)

    def record_decision(self, pid: int, value: Any) -> None:
        if pid in self.trace.decisions:
            raise ProtocolViolationError(
                f"P{pid} attempted to decide twice (integrity violation)"
            )
        self.trace.record_decision(pid, value, self.clock.now)
        if self._correct_pids is not None and pid in self._correct_pids:
            self._undecided_correct -= 1

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def stop_when_all_correct_decided(self) -> None:
        """Stop the loop once every process that has not crashed has decided.

        Correct is what the checker calls correct: a process that never
        crashed in the run (``trace.crashes``), not one the fault plan dooms
        later.  O(1) per event: :meth:`record_decision` and :meth:`_crash`
        decrement a counter of undecided correct processes, and the loop
        stops when it reaches zero — behaviour-identical to (but never
        re-scanning like) the predicate ``all(pid in trace.decisions for pid
        in trace.correct_pids())``.
        """
        correct = frozenset(
            pid for pid in range(1, self.n + 1) if pid not in self.trace.crashes
        )
        self._correct_pids = correct
        self._undecided_correct = sum(
            1 for pid in correct if pid not in self.trace.decisions
        )

    def run(self) -> Trace:
        """Process events until the queue drains, max_time passes, or stop fires.

        The one event loop.  Pops are inlined against the bucket structure
        (:meth:`BucketQueue.pop <repro.sim.batch.BucketQueue.pop>` is the
        reference for their order) and each kind's semantics are written
        exactly once: below, or in the one method a kind calls
        (:meth:`_crash`, :meth:`recover`).  The loop finds the minimum ``(time, kind)``
        FIFO and then stays on it — entry after entry, without re-finding it
        — until it is exhausted, a handler queued something into the same
        bucket (a lower kind would pre-empt the rest), or a stop condition
        fired.  Whether the slot is a bucket or a lone delivery is read once
        per timestamp; a lone delivery is drained as the one-entry FIFO it
        stands for, by the same code.  The max_time check peeks: an overdue
        event stays queued, so raising ``max_time`` and calling ``run()``
        again resumes the execution without losing it; the same holds after
        ``stop()`` or a handler that raised.  A schedule controller, when
        attached, is consulted between the pop and the clock advance; runs
        without one never touch the hook.
        """
        self._stopped = False  # stop() ends the run() it was called from
        consult = None
        if self._controller is not None:
            consult = self._consult_controller
            if not self._controller_began:
                self._controller_began = True
                begin = getattr(self._controller, "begin", None)
                if begin is not None:
                    begin(self)
        times = self._queue.times
        buckets = self._queue.buckets
        lone = lone_bucket()
        clock = self.clock
        max_time = self.max_time
        processes = self.processes
        pending = self._pending_records
        timers = self._timers
        trace = self.trace
        running = True
        while running and times:
            time = times[0]
            if time > max_time:
                break
            bucket = buckets[time]
            if type(bucket) is list:
                cursors = bucket[6]
                for kind in range(6):
                    index = cursors[kind]
                    fifo = bucket[kind]
                    if index < len(fifo):
                        break
            else:
                # a lone delivery: the one-entry FIFO of the bucket it
                # stands for, drained by the same code as any other
                kind = PRIORITY_DELIVERY
                fifo = (bucket,)
                index = 0
                bucket = lone
                cursors = lone[6]
            # drain this (time, kind) FIFO in place; len() is re-read because
            # a handler may append to it (a send to self at the current time)
            advanced = False
            while index < len(fifo):
                entry = fifo[index]
                index += 1
                # cursor and live count are settled before anything can
                # raise or stop, so a later run() resumes at the next entry
                cursors[kind] = index
                live = bucket[7] - 1
                if live:
                    bucket[7] = live
                else:
                    del buckets[time]
                    if times[0] == time:
                        heapq.heappop(times)
                    else:
                        # a handler queued an event in the past while this
                        # FIFO was drained; it is next, and fails the clock
                        # guard below like any event that runs time backwards
                        times.remove(time)
                        heapq.heapify(times)
                if consult is not None and consult(time, kind, entry):
                    continue  # deferred: the entry is back in a later bucket
                if not advanced:
                    # the clock only moves forward
                    now = clock._now
                    if time > now:
                        clock._now = time
                    elif time < now - 1e-12:
                        raise SimulationError(
                            f"clock cannot run backwards: {time} < {now}"
                        )
                    advanced = True
                # ordered by frequency: deliveries dominate every run, then timers
                if kind == PRIORITY_DELIVERY:
                    src, dst, payload, msg_id, _ = entry
                    # popped even when the destination is gone, so the map stays
                    # bounded by in-flight messages; only real deliveries are marked
                    record = pending.pop(msg_id, None) if pending else None
                    process = processes.get(dst)
                    if process is not None and not process.crashed:
                        if record is not None:
                            record.delivered = True
                        process.deliver(src, payload)
                elif kind == PRIORITY_TIMER:
                    pid, name, token = entry
                    key = (pid, name)
                    # a mismatch means superseded or cancelled; the armed
                    # expiry takes its entry whether or not the pid is up
                    if timers.get(key) == token:
                        del timers[key]
                        process = processes.get(pid)
                        if process is not None and not process.crashed:
                            trace.record_timer(pid, name, time)
                            process.timeout(name)
                elif kind == PRIORITY_PROPOSE:
                    pid, value = entry
                    process = processes.get(pid)
                    if process is not None and not process.crashed:
                        trace.record_proposal(pid, value, time)
                        process.on_propose(value)
                elif kind == PRIORITY_CRASH:
                    self._crash(entry[0], time)
                elif kind == PRIORITY_RECOVER:
                    self.recover(entry[0])
                else:  # PRIORITY_CALL: only the asyncio runtime queues one
                    pid, fn = entry
                    process = processes.get(pid)
                    if process is not None and not process.crashed:
                        fn(process)
                if self._stopped or (
                    self._correct_pids is not None and self._undecided_correct == 0
                ):
                    running = False
                    break
                if bucket[7] != live:
                    # the handler queued something at the current time: a
                    # lower kind may now pre-empt the rest of this FIFO
                    break
        trace.end_time = clock.now
        return trace

    def stop(self) -> None:
        """End the ``run()`` in progress once the event it dispatches returns."""
        self._stopped = True

    def release(self) -> None:
        """Cut the edges that make a finished run one reference cycle.

        A run is a cycle: this kernel holds its processes and envs, every
        env holds this kernel, and a recovery factory usually closes over
        something that holds it too.  Without the cut a dead run is freed
        only when the cycle collector traces it.  This
        drops the kernel's side of each edge, and each process cuts its own
        (:meth:`repro.env.Process.release`), so reference counting frees the
        run once its last outside holder lets go.  The record, the queue and
        every process' state stay as they are: callers that still hold the
        processes (a :class:`SimulationResult`) can read them, but not run
        them.  Call it once the run is inspected; nothing calls it for you.
        """
        for process in self.processes.values():
            process.release()
        self.processes = {}
        self.envs = {}
        self._recovery_factory = None

    # ------------------------------------------------------------------ #
    # schedule control (exploration subsystem; see module docstring)
    # ------------------------------------------------------------------ #
    def _consult_controller(self, time: float, kind: int, entry: tuple) -> bool:
        """Offer the popped entry to the controller; apply its decision.

        Returns True when the entry was deferred (it is back in the queue at
        a later time) and must not be dispatched now.  Inapplicable
        decisions (deferring a timer, crashing past the budget) are ignored,
        which keeps replay of a *shrunk* decision list well-defined.
        """
        step = self._schedule_step
        self._schedule_step += 1
        action = self._controller.intercept(self, EVENT_VIEWS[kind](time, *entry), step)
        if not action:
            return False
        verb = action[0]
        if verb == "defer":
            extra = float(action[1])
            if self._defer_delivery(time, kind, entry, extra):
                self.applied_schedule_actions.append((step, "defer", extra))
                return True
            return False
        if verb == "crash":
            pid = int(action[1])
            if self.inject_crash(pid, at=time):
                self.applied_schedule_actions.append((step, "crash", pid))
            return False
        if verb == "recover":
            pid = int(action[1])
            if self.recover(pid):
                self.applied_schedule_actions.append((step, "recover", pid))
            return False
        raise ConfigurationError(f"unknown schedule action {action!r}")

    def _defer_delivery(self, time: float, kind: int, entry: tuple, extra: float) -> bool:
        """Postpone a delivery by ``extra`` time units; True if applied.

        Only real (non-self) message deliveries can be deferred — timers,
        proposals and crashes are local and fire on time in a synchronous
        system, so reordering them would leave the admissible execution
        space.  The pending trace record (or the counters digest) is updated
        to the new receive time, and an effective delay beyond the bound
        ``U`` marks the execution as a network failure.
        """
        if kind != PRIORITY_DELIVERY or extra <= 0:
            return False
        src, dst, _, msg_id, send_time = entry
        if src == dst:
            return False
        new_time = max(self.clock.now, time) + extra
        record = self._pending_records.get(msg_id)
        if record is not None:
            record.recv_time = new_time
        else:
            self.trace.adjust_recv_time(time, new_time)
        if new_time - send_time > U + 1e-9:
            self._schedule_overdue = True
        self._queue.push(new_time, PRIORITY_DELIVERY, entry)
        return True

    def _crash(self, pid: int, time: float) -> None:
        """Crash ``pid`` at ``time``: a fault plan's crash and an injected one.

        The process handles nothing from here on and no longer counts as
        correct for the stop rule; the record keeps ``time``.
        """
        process = self.processes.get(pid)
        if process is not None and not process.crashed:
            process.crashed = True
            process.on_crash()
        self.trace.record_crash(pid, time)
        if self._correct_pids is not None and pid in self._correct_pids:
            self._correct_pids = self._correct_pids - {pid}
            if pid not in self.trace.decisions:
                self._undecided_correct -= 1

    def can_inject_crash(self, pid: int) -> bool:
        """Whether crashing ``pid`` now stays within the fault budget ``f``."""
        process = self.processes.get(pid)
        return (
            process is not None
            and not process.crashed
            and self._crash_budget > 0
            and pid not in self.fault_plan.crashes
        )

    def inject_crash(self, pid: int, at: Optional[float] = None) -> bool:
        """Crash ``pid`` immediately (schedule-controller crash point).

        Unlike fault-plan crashes this happens *between* events: the process
        handles nothing from this moment on.  Ignored (returns False) when
        the process is unknown, already crashed, already doomed by the fault
        plan, or the budget of ``f`` total crashes would be exceeded.
        """
        if not self.can_inject_crash(pid):
            return False
        self._crash_budget -= 1
        self._crash(pid, self.clock.now if at is None else max(self.clock.now, float(at)))
        return True

    # ------------------------------------------------------------------ #
    # crash recovery
    # ------------------------------------------------------------------ #
    def set_recovery_factory(
        self,
        factory: Optional[Callable[[int, "Scheduler", Process], Optional[Process]]],
    ) -> None:
        """Install the hook deciding what a crashed pid rejoins *with*.

        ``factory(pid, scheduler, old_process)`` returns the replacement
        process (the cluster layer rebuilds a partition server from its
        write-ahead log here) or ``None`` to refuse the recovery.  Without a
        factory the crashed object itself rejoins, state intact.
        """
        self._recovery_factory = factory

    def recover(self, pid: int) -> bool:
        """Rejoin a crashed process at the current time; True if applied.

        The pid stays *faulty* for the property checker — it crashed, and
        recovery restores liveness, not correctness accounting — so neither
        ``correct_pids`` nor the crash budget change.  Every timer armed
        before the crash is superseded (the old incarnation must never fire
        into the new one); the rejoining process starts over from
        ``on_recover()``.
        """
        process = self.processes.get(pid)
        if process is None or not process.crashed:
            return False
        for key in [key for key in self._timers if key[0] == pid]:
            del self._timers[key]
        replacement = process
        if self._recovery_factory is not None:
            built = self._recovery_factory(pid, self, process)
            if built is None:
                return False
            replacement = built
        replacement.crashed = False
        self.processes[pid] = replacement
        self.trace.record_recovery(pid, self.clock.now)
        replacement.on_recover()
        return True

    def execution_class(self) -> str:
        """The execution's class, including schedule-controller effects.

        The one classifier, on both backends.  A crash that happened makes a
        run crash-failure: the crashes the run recorded (``trace.crashes``:
        a fault plan's, a controller's and one made by hand alike), not the
        ones the plan scheduled, so a run that stops before its planned
        crash is as failure-free as its record.  A rule that can push a
        delay past the bound (:meth:`FaultPlan.is_network_failure`) makes it
        network-failure, and so does a controller that deferred a delivery
        beyond the bound or a delay model that counts ``late`` draws past
        the bound (:class:`~repro.sim.network.LinkDelay`).
        """
        if (
            self._schedule_overdue
            or self.fault_plan.is_network_failure()
            or getattr(self.delay_model, "late", 0)
        ):
            return "network-failure"
        if self.trace.crashes:
            return "crash-failure"
        return "failure-free"


@dataclass
class SimulationResult:
    """Trace plus the live process objects of one execution, on either kernel."""

    trace: Trace
    processes: Dict[int, Process] = field(default_factory=dict)
    #: the kernel that ran the execution, for :meth:`release` — and, for a run
    #: the asyncio runtime paced, for what the pacing adds: ``timed_out`` and
    #: the handler ``errors`` it captured
    scheduler: Optional[Scheduler] = field(default=None, repr=False, compare=False)

    def process(self, pid: int) -> Process:
        return self.processes[pid]

    def decisions(self) -> Dict[int, Any]:
        return {pid: rec.value for pid, rec in self.trace.decisions.items()}

    def release(self) -> None:
        """Let reference counting free the run (:meth:`Scheduler.release`)."""
        if self.scheduler is not None:
            self.scheduler.release()


class Simulation:
    """Protocol-level driver: one protocol instance, one set of votes, one run.

    The run is put together once, in :meth:`run_on`, for any kernel class:
    :meth:`run` runs it on the :class:`Scheduler` as fast as possible, and
    :func:`repro.runtime.run_paced` paces it on the asyncio runtime.  A
    ``Simulation`` is reusable: :meth:`run` takes per-run ``delay_model=`` /
    ``fault_plan=`` / ``seed=`` / ``controller=`` overrides of the
    constructor's defaults.

    Example
    -------
    >>> from repro.protocols import TwoPhaseCommit
    >>> sim = Simulation(n=4, f=1, process_class=TwoPhaseCommit)
    >>> result = sim.run(votes=[1, 1, 1, 1])
    >>> result.decisions()
    {1: 1, 2: 1, 3: 1, 4: 1}
    """

    def __init__(
        self,
        n: int,
        f: int,
        process_class: Optional[type] = None,
        process_factory: Optional[ProcessFactory] = None,
        delay_model: Optional[DelayModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 0,
        max_time: float = 500.0,
        stop_when_all_correct_decided: bool = True,
        protocol_kwargs: Optional[Dict[str, Any]] = None,
        trace_level: str = "full",
    ):
        if (process_class is None) == (process_factory is None):
            raise ConfigurationError(
                "provide exactly one of process_class= or process_factory="
            )
        if trace_level not in TRACE_LEVELS:
            raise ConfigurationError(
                f"unknown trace_level {trace_level!r}; expected one of {TRACE_LEVELS}"
            )
        self.n = n
        self.f = f
        #: the horizon in units of U; a paced run waits at most this long
        self.max_time = max_time
        self._delay_model = delay_model
        self._fault_plan = fault_plan
        self._seed = seed
        self._stop_when_decided = stop_when_all_correct_decided
        self._trace_level = trace_level
        # a partial, not a closure over self: the Simulation stays acyclic,
        # so reference counting frees it with its trial
        self._factory = (
            process_factory
            if process_factory is not None
            else functools.partial(process_class, **(protocol_kwargs or {}))
        )
        self._protocol_name = (
            process_class.__name__ if process_class is not None else "custom"
        )

    def run(
        self,
        votes: Union[Sequence[Any], Dict[int, Any]],
        *,
        delay_model: Optional[DelayModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: Optional[int] = None,
        controller: Optional[Any] = None,
    ) -> SimulationResult:
        """Run one execution with the given per-process votes, as fast as possible.

        ``delay_model`` / ``fault_plan`` / ``seed`` override the constructor
        defaults for this run only — the sweep engine passes each trial's
        per-trial-seeded models this way.
        ``controller`` attaches a schedule controller (see
        :mod:`repro.explore`) to this run; the applied schedule decisions
        land in ``trace.metadata["schedule_decisions"]``.  ``votes`` is a
        sequence of ``n`` votes or a dict keyed by pid; a partial dict is
        legal (the missing processes never propose).
        """
        return self.run_on(
            Scheduler,
            Scheduler.run,
            votes,
            delay_model=delay_model,
            fault_plan=fault_plan,
            seed=seed,
            controller=controller,
            max_time=self.max_time,
            trace_level=self._trace_level,
        )

    def run_on(
        self,
        kernel: Callable[..., Scheduler],
        pace: Callable[[Scheduler], Any],
        votes: Union[Sequence[Any], Dict[int, Any]],
        *,
        delay_model: Optional[DelayModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: Optional[int] = None,
        controller: Optional[Any] = None,
        **pacing: Any,
    ) -> SimulationResult:
        """Build this run on ``kernel``, let ``pace(kernel)`` run it, stamp it.

        The one place a protocol run is put together, whichever kernel runs
        it.  ``kernel`` is the scheduler class — :class:`Scheduler`, which
        :meth:`run` paces with :meth:`Scheduler.run`, or the asyncio runtime,
        which :func:`repro.runtime.run_paced` paces on the wall clock — built
        with this simulation's delay model, faults and seed (or :meth:`run`'s
        overrides) and the ``pacing`` keywords only that class takes.  Then:
        one process per pid, every ``on_start``, the votes proposed at time
        0, the all-correct-decided stop unless it is disabled, ``pace``, and
        ``trace.metadata``'s fault plan, execution class, votes and — with a
        controller — applied schedule decisions.
        """
        if isinstance(votes, dict):
            vote_map = dict(votes)
            for pid in vote_map:
                if not (isinstance(pid, int) and 1 <= pid <= self.n):
                    raise ConfigurationError(
                        f"vote for unknown process {pid!r}: pids are 1..{self.n}"
                    )
        else:
            if len(votes) != self.n:
                raise ConfigurationError(
                    f"expected {self.n} votes, got {len(votes)}"
                )
            vote_map = {pid: votes[pid - 1] for pid in range(1, self.n + 1)}

        scheduler = kernel(
            self.n,
            self.f,
            delay_model=delay_model if delay_model is not None else self._delay_model,
            fault_plan=fault_plan if fault_plan is not None else self._fault_plan,
            seed=seed if seed is not None else self._seed,
            controller=controller,
            **pacing,
        )
        trace = scheduler.trace
        trace.protocol = self._protocol_name
        scheduler.bind_processes(self._factory)
        scheduler.start_processes()
        for pid, vote in vote_map.items():
            scheduler.post_propose(pid, vote, at=0.0)

        if self._stop_when_decided:
            scheduler.stop_when_all_correct_decided()

        pace(scheduler)
        trace.metadata["fault_plan"] = scheduler.fault_plan.description
        # the plan's crashes and rules, upgraded by what a controller or a
        # delay model did during the run
        trace.metadata["execution_class"] = scheduler.execution_class()
        trace.metadata["votes"] = vote_map
        if controller is not None:
            trace.metadata["schedule_decisions"] = list(
                scheduler.applied_schedule_actions
            )
        return SimulationResult(
            trace=trace, processes=scheduler.processes, scheduler=scheduler
        )


def run_nice_execution(process_class: type, n: int, f: int) -> SimulationResult:
    """Convenience helper: run the protocol's *nice execution*.

    A nice execution is failure-free, every process votes 1, and every message
    takes exactly one message delay ``U`` — the setting in which the paper
    measures best-case complexity.
    """
    sim = Simulation(
        n=n,
        f=f,
        process_class=process_class,
        delay_model=FixedDelay(1.0),
        fault_plan=FaultPlan.failure_free(),
    )
    return sim.run(votes=[1] * n)
