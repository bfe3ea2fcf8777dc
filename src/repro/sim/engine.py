"""Discrete-event simulation core: environment, events and processes.

Design notes
------------

* The event queue, a binary heap, holds ``(time, sequence, target,
  args)`` entries.  A callback entry (:meth:`Environment.schedule_call`)
  carries the function and its argument tuple and no :class:`Event` at
  all; an event entry carries the event and ``None``.  The
  monotonically increasing sequence number guarantees FIFO ordering
  among same-time entries, so runs are bit-for-bit deterministic.
* An entry due at the current instant skips the queue and goes on the
  *same-instant lane*, a FIFO ``deque``.  Routing is on the computed
  fire instant, not on ``delay == 0``: ``now + delay`` can round to
  ``now``.  A queued entry due now was scheduled before the clock
  reached now, so its sequence number is lower than every lane entry's;
  dispatch therefore takes queued entries due now first and then the
  lane in FIFO order, which is exact ``(time, sequence)`` order.  The
  zero-delay hops of the train data path and ``Event.succeed()`` thus
  cost a ``deque`` append and pop instead of a heap push and pop.
* A zero-delay hop that is the last action of the entry being
  dispatched, made while the lane is empty and no queued entry is due
  now, would be the very next entry dispatched.  :meth:`Environment.then`
  calls it directly instead, which costs no entry at all.  A step that
  is not the entry's last action runs under
  :meth:`Environment.call_nested`, which sends its hops to the lane.
* Processes are plain Python generators.  A process yields an
  :class:`Event`; the engine registers the process as a callback and
  resumes it (``send``/``throw``) when the event fires.  This is the same
  execution model as SimPy's, reduced to the features the repro needs.
* There is one dispatch loop, inlined into ``Environment.run``: every
  ``until`` (none, an instant, an event) becomes a ``(stop, horizon)``
  pair that the loop tests.  Following the profiling guidance in the
  HPC-Python guides this hot path avoids attribute lookups in the inner
  loop and allocates nothing beyond the entries themselves.  Internal
  model code can additionally use
  :meth:`Environment._fast_timeout`, which recycles processed
  :class:`Timeout` objects through a free pool instead of allocating a
  fresh one per event.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from math import isnan
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.chaos.hooks import attach_environment as _attach_chaos
from repro.errors import ScheduleInPastError, SimulationError
from repro.telemetry.profiling import component_of as _component_of
from repro.telemetry.session import attach_environment as _attach_environment

__all__ = ["Environment", "Event", "Timeout", "Process", "Interrupt",
           "PeriodicCall"]

_heappush = heapq.heappush
_heappop = heapq.heappop


def _noop(event: "Event") -> None:
    """Marker callback: registers interest in an event without acting."""


#: The ``stop`` of a :meth:`Environment.run` without an ``until`` event:
#: its ``callbacks`` never becomes ``None``, so it never ends the loop.
_NO_EVENT = SimpleNamespace(callbacks=())
_INF = float("inf")


class PeriodicCall:
    """A cancellable fixed-interval callback (see :meth:`Environment.every`).

    The first call fires one ``interval`` after creation, then every
    ``interval`` thereafter until :meth:`cancel` — the primitive behind
    the hybrid mode's fluid coupling tick.  Each firing schedules the
    next through :meth:`Environment.schedule_call`, so a periodic call
    costs one queue entry per tick and no event object.

    With ``while_pending=True`` the call re-arms only while *other*
    events are still pending after it fires, so a drain-mode
    ``run()`` still terminates: once the periodic call would be the
    sole thing keeping the queue alive, it stops.  Nothing can wake a
    drained DES except its own events, so stopping then loses no
    coverage — this is how the live-telemetry heartbeat rides along
    without turning every run into an infinite loop.
    """

    __slots__ = ("env", "interval", "fn", "args", "fires", "while_pending",
                 "_active")

    def __init__(self, env: "Environment", interval: float,
                 fn: Callable[..., None], args: tuple,
                 while_pending: bool = False):
        if not interval > 0:  # also refuses NaN
            raise ScheduleInPastError(
                f"periodic interval must be positive: {interval!r}")
        self.env = env
        self.interval = interval
        self.fn = fn
        self.args = args
        self.fires = 0
        self.while_pending = while_pending
        self._active = True
        env.schedule_call(interval, self._fire)

    def _fire(self) -> None:
        if not self._active:
            return
        self.fires += 1
        self.fn(*self.args)
        if self._active and not (self.while_pending
                                 and not self.env.pending_count()):
            self.env.schedule_call(self.interval, self._fire)

    def cancel(self) -> None:
        """Stop firing; the pending entry becomes a no-op."""
        self._active = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "cancelled"
        return f"<PeriodicCall every {self.interval}s {state} fires={self.fires}>"


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (scheduled on the event queue) and *processed* (callbacks ran).  Use
    :meth:`succeed` or :meth:`fail` to trigger it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_pooled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._pooled = False

    # -- state inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only after triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` / the exception of :meth:`fail`."""
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with an exception after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately;
        this removes a whole class of lost-wakeup races.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds from creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also refuses NaN
            raise ScheduleInPastError(f"invalid timeout delay: {delay!r}")
        # Inlined Event.__init__ + scheduling: Timeouts are the single
        # most-allocated object in a simulation, so skip the extra calls.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        self._pooled = False
        env._seq += 1
        now = env._now
        at = now + delay
        if at <= now:  # due this instant (delay zero or absorbed)
            env._lane.append((self, None))
        else:
            env._push((at, env._seq, self, None))


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator's ``return`` value becomes the event value, so parent
    processes can ``result = yield env.process(child())``.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the process at the current time (fast path —
        # the init event needs none of succeed()'s re-trigger checks).
        init = Event(env)
        init._triggered = True
        init.callbacks.append(self._resume)
        env._schedule_at(init, env._now)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is detached (its callback
        removed) so it cannot resume the process a second time.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        waiting = self._waiting_on
        if waiting is not None and waiting.callbacks is not None:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        wake = Event(self.env)
        wake.succeed(value=Interrupt(cause))
        wake._ok = False  # deliver via throw()
        wake.add_callback(self._resume)

    # -- engine internals ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        gen = self._generator
        try:
            if event._ok:
                target = gen.send(event._value)
            else:
                exc = event._value
                target = gen.throw(exc)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:  # reprolint: disable=RPR007 -- a process generator can die with anything (incl. GeneratorExit/KeyboardInterrupt); all of it must be captured as the process outcome
            self._finish(False, exc)
            return
        if not isinstance(target, Event):
            # Close the generator, then report a clear error.
            gen.close()
            self._finish(False, SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes must yield Event instances"))
            return
        if target.env is not self.env:
            gen.close()
            self._finish(False, SimulationError(
                f"process {self.name!r} yielded an event from another environment"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def _finish(self, ok: bool, value: Any) -> None:
        self._triggered = True
        self._ok = ok
        self._value = value
        self.env._schedule_at(self, self.env._now)
        if not ok and not self.callbacks:
            # Nobody is waiting on this process: surface the crash rather
            # than swallowing it (mirrors SimPy's behaviour).
            self.env._record_crash(self, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


def _label(fn: Callable[..., Any]) -> str:
    """Profiler row of a callback that is not a process: the qualified
    name of the function or bound method (``TenGigAdapter._rx_charge``)."""
    return getattr(fn, "__qualname__", None) or type(fn).__qualname__


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Any, Optional[tuple]]] = []
        #: entries due at ``_now``, in FIFO (= sequence) order, as
        #: ``(target, args)`` pairs
        self._lane: Deque[Tuple[Any, Optional[tuple]]] = deque()
        self._seq = 0
        #: True while :meth:`then` runs a hop directly; a nested hop
        #: goes on the lane, so a chain of hops never deepens the stack
        self._inline = False
        self._crashes: Deque[Tuple[Process, BaseException]] = deque()
        self._timeout_pool: List[Timeout] = []
        self._profiler: Optional[Any] = None
        # partial() keeps the heap push a single C call from the
        # Timeout hot path (no bound-method dispatch).
        self._push: Callable[[tuple], None] = partial(_heappush, self._queue)
        # Chaos first: a non-empty fault plan schedules its arm/fire/
        # recover entries before anything else can, so they win (time,
        # seq) ties against frame deliveries; with no plan this is a
        # single is-None test.
        _attach_chaos(self)
        _attach_environment(self)

    @property
    def events_scheduled(self) -> int:
        """Total entries ever scheduled — the events-simulated counter
        used for events/sec reporting (every scheduled entry is
        eventually dispatched in a drained run)."""
        return self._seq

    def pending_count(self) -> int:
        """Number of not-yet-dispatched entries (lane included)."""
        return len(self._queue) + len(self._lane)

    def enable_profiling(self, profiler: Any) -> None:
        """Route dispatch through the self-profiling loop.

        ``profiler`` is an :class:`~repro.telemetry.profiling.
        EngineProfiler` (or anything with the same counters).  The
        unprofiled ``run()`` path is untouched: the only cost when
        profiling is off is one ``is None`` test per ``run()`` call.
        """
        self._profiler = profiler

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event constructors ---------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def _fast_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A pooled timeout for trusted internal callers.

        Identical semantics to :meth:`timeout` except the returned object
        is recycled through a free pool once processed, so hot model
        loops (CPU occupancy, DMA holds, wire times) allocate nothing in
        steady state.  Callers must *only* ``yield`` the event and must
        not keep a reference to it after it fires — holding one would
        observe the object being reused for a later, unrelated timeout.
        """
        if not delay >= 0:  # also refuses NaN
            raise ScheduleInPastError(f"invalid timeout delay: {delay!r}")
        pool = self._timeout_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = value
            ev._ok = True
            ev._processed = False
            ev.delay = delay
            self._seq += 1
            now = self._now
            at = now + delay
            if at <= now:  # due this instant (delay zero or absorbed)
                self._lane.append((ev, None))
            else:
                self._push((at, self._seq, ev, None))
            return ev
        ev = Timeout(self, delay, value)
        ev._pooled = True
        return ev

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Start running ``generator`` as a process."""
        return Process(self, generator, name=name)

    def schedule_call(self, delay: float, fn: Callable[..., None],
                      *args: Any) -> None:
        """Call ``fn(*args)`` after ``delay`` (plain callback, no process).

        The queue entry carries ``fn`` and ``args`` directly — no event
        object — so there is nothing to wait on or cancel; callers that
        need a handle use :meth:`timeout` or :meth:`every`."""
        if not delay >= 0:  # also refuses NaN
            raise ScheduleInPastError(f"invalid call delay: {delay!r}")
        self._seq += 1
        now = self._now
        at = now + delay
        if at <= now:  # due this instant (delay zero or absorbed)
            self._lane.append((fn, args))
        else:
            self._push((at, self._seq, fn, args))

    def then(self, fn: Callable[..., None], *args: Any) -> None:
        """Call ``fn(*args)`` as the next entry due now: a zero-delay hop.

        The caller's contract: ``then`` must be the last action of the
        entry being dispatched, in the caller and in every caller above
        it up to the dispatch loop.  When the lane is empty and no
        queued entry is due now, that hop is the very next entry in
        ``(time, sequence)`` order, so ``fn`` is called directly and no
        entry is scheduled.  Otherwise, or when ``fn`` is itself reached
        through a direct ``then`` call (a chain of hops must not deepen
        the stack), the hop goes on the lane exactly as
        ``schedule_call(0.0, fn, *args)`` puts it there.  A call that is
        not the entry's last action could run ``fn`` ahead of the rest
        of the entry; lint rule RPR010 flags a ``then`` that is not its
        function's last statement.
        """
        queue = self._queue
        if (self._lane or self._inline
                or (queue and queue[0][0] <= self._now)):
            self._seq += 1
            self._lane.append((fn, args))
            return
        self._inline = True
        try:
            fn(*args)
        finally:
            self._inline = False

    def then_runs_direct(self) -> bool:
        """True when a :meth:`then` made now would call its hop directly:
        the lane is empty, no queued entry is due now and no hop is
        running inline.  A zero-delay entry scheduled now would then be
        the very next one dispatched."""
        queue = self._queue
        return not (self._lane or self._inline
                    or (queue and queue[0][0] <= self._now))

    def call_nested(self, fn: Callable[..., None], *args: Any) -> None:
        """Call ``fn(*args)`` now as a step that is *not* the last action
        of the entry being dispatched: every :meth:`then` it reaches
        goes on the lane, as ``schedule_call(0.0, ...)`` would put it."""
        inline = self._inline
        self._inline = True
        try:
            fn(*args)
        finally:
            self._inline = inline

    def schedule_call_at(self, at_time: float, fn: Callable[..., None],
                         *args: Any) -> None:
        """Call ``fn(*args)`` at the absolute instant ``at_time``.

        Unlike ``schedule_call(at_time - now, ...)`` the target is used
        verbatim — no ``now + delay`` round trip — so a callback chain
        that computes its instants arithmetically (a DMA or wire
        completion) fires exactly there.  Like :meth:`schedule_call` it
        returns nothing.
        """
        now = self._now
        if not at_time >= now:  # also refuses NaN
            raise ScheduleInPastError(
                f"cannot schedule call at {at_time!r} < now {now!r}")
        self._seq += 1
        if at_time <= now:  # due this instant
            self._lane.append((fn, args))
        else:
            self._push((at_time, self._seq, fn, args))

    def every(self, interval: float, fn: Callable[..., None],
              *args: Any, while_pending: bool = False) -> PeriodicCall:
        """Call ``fn(*args)`` every ``interval`` seconds until cancelled.

        The first firing happens at ``now + interval``.  Returns the
        :class:`PeriodicCall` handle; call its :meth:`~PeriodicCall.cancel`
        to stop the ticking.  ``while_pending=True`` makes the call
        self-terminating: it re-arms only while other events remain
        pending, so drain-mode runs still finish."""
        return PeriodicCall(self, interval, fn, args,
                            while_pending=while_pending)

    # -- engine internals ---------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if not delay >= 0:  # also refuses NaN
            raise ScheduleInPastError(
                f"cannot schedule event {delay!r}s in the past")
        self._seq += 1
        now = self._now
        at = now + delay
        if at <= now:  # due this instant (delay zero or absorbed)
            self._lane.append((event, None))
        else:
            self._push((at, self._seq, event, None))

    def _schedule_at(self, event: Event, at_time: float) -> None:
        """Fast-path scheduling at an absolute time for trusted internal
        callers: skips the validation of :meth:`_schedule` (the caller
        guarantees ``at_time >= now``)."""
        self._seq += 1
        if at_time <= self._now:  # due this instant
            self._lane.append((event, None))
        else:
            self._push((at_time, self._seq, event, None))

    def _record_crash(self, process: Process, exc: BaseException) -> None:
        self._crashes.append((process, exc))

    def _raise_crash(self) -> None:
        process, exc = self._crashes.popleft()
        raise SimulationError(
            f"process {process.name!r} crashed: {exc!r}") from exc

    def _pop(self) -> Tuple[Any, Optional[tuple]]:
        """Remove the next entry in ``(time, seq)`` order, advance the
        clock to it and return its ``(target, args)``: queued entries
        due now, then the lane, then the earliest queued entry."""
        queue = self._queue
        if self._lane:
            if queue and queue[0][0] <= self._now:
                return _heappop(queue)[2:]
            return self._lane.popleft()
        if not queue:
            raise SimulationError("step() on an empty event queue")
        entry = _heappop(queue)
        self._now = entry[0]
        return entry[2:]

    # -- execution -------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next entry, or ``float('inf')`` if none."""
        if self._lane:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one entry."""
        target, args = self._pop()
        if args is not None:
            target(*args)
        else:
            callbacks = target.callbacks
            target.callbacks = None
            target._processed = True
            if callbacks:
                for fn in callbacks:
                    fn(target)
            if target._pooled:
                self._timeout_pool.append(target)
        if self._crashes:
            self._raise_crash()

    def run(self, until: Any = None) -> Any:
        """Run entries until none are left, ``until`` fires or time passes.

        ``until`` may be ``None`` (drain the queue), a number (stop when the
        clock reaches it) or an :class:`Event` (stop when it fires; its
        value is returned — an exception value is raised).

        ``until`` becomes a ``(stop, horizon)`` pair once: the loop runs
        while ``stop`` is unprocessed and dispatches no entry later than
        ``horizon``.  Without an event, ``stop`` is a sentinel that never
        fires; ``horizon`` is infinite unless ``until`` is a number.  The
        loop is :meth:`step` inlined: per-entry dispatch is the
        simulator's single hottest path, and the method-call +
        attribute-lookup overhead of delegating to ``step()`` is
        measurable at millions of entries per run.  It takes queued
        entries due now, then the same-instant lane, and only then
        advances the clock to the next queued entry.  When engine
        self-profiling is enabled :meth:`_run_profiled` runs the same
        loop with accounting instead, keeping this one free of
        instrumentation.
        """
        stop = _NO_EVENT
        horizon = _INF
        if isinstance(until, Event):
            # `callbacks` flips to None exactly when the event is
            # processed — that is the loop condition.  The no-op marks
            # `until` as waited-on so a failing process delivers its
            # exception here instead of recording an unwaited crash.
            stop = until
            if until.callbacks is not None:
                until.callbacks.append(_noop)
        elif until is not None:
            horizon = float(until)
            if isnan(horizon):
                raise SimulationError(f"run(until={horizon!r}) is not a time")
            if horizon < self._now:
                raise ScheduleInPastError(
                    f"run(until={horizon!r}) is before now={self._now!r}")
        if self._profiler is not None:
            self._run_profiled(stop, horizon)
        else:
            queue = self._queue
            lane = self._lane
            popleft = lane.popleft
            pool = self._timeout_pool
            crashes = self._crashes
            while stop.callbacks is not None:
                if lane:
                    if queue and queue[0][0] <= self._now:
                        _, _, target, args = _heappop(queue)
                    else:
                        target, args = popleft()
                elif queue and queue[0][0] <= horizon:
                    self._now, _, target, args = _heappop(queue)
                else:
                    break
                if args is not None:
                    target(*args)
                else:
                    callbacks = target.callbacks
                    target.callbacks = None
                    target._processed = True
                    if callbacks:
                        for fn in callbacks:
                            fn(target)
                    if target._pooled:
                        pool.append(target)
                if crashes:
                    self._raise_crash()
        if stop is not _NO_EVENT:
            if stop.callbacks is not None:
                raise SimulationError(
                    "event queue drained before `until` event fired")
            if not stop._ok:
                raise stop._value from None
            return stop._value
        if until is not None:
            self._now = horizon
        return None

    # -- self-profiling -------------------------------------------------------
    def _step_profiled(self, prof: Any) -> None:
        """One :meth:`step` with event/queue accounting and wall-clock
        attribution of each callback: a process callback to its owning
        component, any other to its function's qualified name."""
        depth = self.pending_count()
        if depth > prof.heap_hwm:
            prof.heap_hwm = depth
        target, args = self._pop()
        prof.events_total += 1
        counts = prof.event_counts
        if args is not None:
            counts["Call"] = counts.get("Call", 0) + 1
            calls = [(_label(target), target, args)]
        else:
            tname = type(target).__name__
            counts[tname] = counts.get(tname, 0) + 1
            callbacks = target.callbacks
            target.callbacks = None
            target._processed = True
            calls = []
            for fn in callbacks or ():
                owner = getattr(fn, "__self__", None)
                label = (_component_of(owner.name)
                         if isinstance(owner, Process) else _label(fn))
                calls.append((label, fn, (target,)))
        cb_counts = prof.callback_counts
        cb_time = prof.callback_time_s
        for label, fn, fn_args in calls:
            start = perf_counter()  # reprolint: disable=RPR002 -- profiler wall-clock accounting; never feeds back into sim state
            fn(*fn_args)
            elapsed = perf_counter() - start  # reprolint: disable=RPR002 -- profiler wall-clock accounting; never feeds back into sim state
            cb_counts[label] = cb_counts.get(label, 0) + 1
            cb_time[label] = cb_time.get(label, 0.0) + elapsed
        if args is None and target._pooled:
            self._timeout_pool.append(target)
        if self._crashes:
            self._raise_crash()

    def _run_profiled(self, stop: Any, horizon: float) -> None:
        """:meth:`run`'s loop, one :meth:`_step_profiled` per entry, under
        the same ``(stop, horizon)`` condition; :meth:`run` resolves
        ``until`` before and produces the result after."""
        prof = self._profiler
        run_start = perf_counter()  # reprolint: disable=RPR002 -- profiler wall-clock accounting; never feeds back into sim state
        try:
            while (stop.callbacks is not None and self.pending_count()
                   and self.peek() <= horizon):
                self._step_profiled(prof)
        finally:
            prof.wall_time_s += perf_counter() - run_start  # reprolint: disable=RPR002 -- profiler wall-clock accounting; never feeds back into sim state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Environment now={self._now:.9f} "
                f"pending={self.pending_count()}>")
