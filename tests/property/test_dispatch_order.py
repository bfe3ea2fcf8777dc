"""Dispatch order contract: every entry fires in exact ``(time, seq)``
order, whatever mix of scheduling calls and run modes produced it.

Each generated schedule labels every entry it makes with the instant
it was scheduled for (computed exactly as the engine computes it) and
its sequence number (``events_scheduled`` right after the call), runs
the environment through a random mix of ``step()``, ``run(until=t)``,
``run(until=event)`` and crashes, then drains it, with or without the
engine self-profiler.  The firing log must equal the sorted list of
labels, and every entry must fire with the clock at its label's
instant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Environment
from repro.telemetry import EngineProfiler

#: Zero, delays that ``1.0 + d == 1.0`` absorbs, and real future delays.
DELAYS = st.one_of(
    st.sampled_from([0.0, 1e-30, 1e-17, 1e-12, 1e-9, 2.5e-6, 1e-3]),
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False))

KINDS = ("call", "call_at", "timeout", "succeed", "succeed_later",
         "raise", "crash")

OPS = st.recursive(
    st.tuples(st.sampled_from(KINDS), DELAYS, st.just(())),
    lambda children: st.tuples(st.sampled_from(KINDS), DELAYS,
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=24)

ACTIONS = st.lists(st.one_of(
    st.just(("step",)),
    st.tuples(st.just("until_time"), DELAYS),
    st.tuples(st.just("until_event"), DELAYS),
), max_size=10)


class Boom(Exception):
    """The deliberate failure of a ``raise``/``crash`` entry."""


def _is_boom(exc):
    return isinstance(exc, Boom) or (
        isinstance(exc, SimulationError) and isinstance(exc.__cause__, Boom))


class Schedule:
    """Makes labelled entries and logs them as they fire."""

    def __init__(self, env):
        self.env = env
        self.labels = []
        self.fired = []

    def _label(self, box, at):
        label = (at, self.env.events_scheduled)
        box.append(label)
        self.labels.append(label)

    def fire(self, box, children, raises=False):
        at, seq = box[0]
        self.fired.append((at, seq, self.env.now))
        for child in children:
            self.make(child)
        if raises:
            raise Boom(seq)

    def make(self, op):
        kind, delay, children = op
        env = self.env
        now = env.now
        box = []
        if kind in ("call", "raise"):
            env.schedule_call(delay, self.fire, box, children,
                              kind == "raise")
            self._label(box, now + delay)
        elif kind == "call_at":
            env.schedule_call_at(now + delay, self.fire, box, children)
            self._label(box, now + delay)
        elif kind == "timeout":
            self.timeout(delay, children)
        elif kind in ("succeed", "succeed_later"):
            ev = env.event()
            ev.add_callback(lambda _e: self.fire(box, children))
            if kind == "succeed":
                ev.succeed()
                self._label(box, now)
            else:
                ev.succeed(delay=delay)
                self._label(box, now + delay)
        else:  # crash: a process that dies with nobody waiting on it
            def body():
                self.fire(box, children, raises=True)
                yield env.timeout(0)

            env.process(body())
            self._label(box, now)

    def timeout(self, delay, children=()):
        box = []
        ev = self.env.timeout(delay)
        self._label(box, self.env.now + delay)
        ev.add_callback(lambda _e: self.fire(box, children))
        return ev


def _guarded(action):
    try:
        action()
    except Exception as exc:  # noqa: BLE001 - only deliberate failures pass
        if not _is_boom(exc):
            raise


def run_schedule(env, roots, actions):
    sched = Schedule(env)
    for op in roots:
        sched.make(op)
    for action in actions:
        kind = action[0]
        if kind == "step":
            if env.pending_count():
                _guarded(env.step)
        elif kind == "until_time":
            _guarded(lambda: env.run(until=env.now + action[1]))
        else:  # until_event
            stop = sched.timeout(action[1])
            _guarded(lambda: env.run(until=stop))
    while True:
        try:
            env.run()
            break
        except Exception as exc:  # noqa: BLE001 - resume after a crash
            if not _is_boom(exc):
                raise
    return sched


@given(start=st.sampled_from([0.0, 1.0]),
       roots=st.lists(OPS, min_size=1, max_size=6),
       actions=ACTIONS, profiled=st.booleans())
@settings(max_examples=150, deadline=None)
def test_dispatch_follows_time_seq_order(start, roots, actions, profiled):
    env = Environment(initial_time=start)
    if profiled:
        env.enable_profiling(EngineProfiler())
    sched = run_schedule(env, roots, actions)
    assert [(at, seq) for at, seq, _ in sched.fired] == sorted(sched.labels)
    assert all(now == at for at, _, now in sched.fired)
    assert env.pending_count() == 0
