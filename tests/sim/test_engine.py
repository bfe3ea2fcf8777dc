"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import ScheduleInPastError, SimulationError
from repro.sim import Environment, Interrupt


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(2.5)
    env.run()
    assert env.now == 2.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ScheduleInPastError):
        env.timeout(-1.0)


def test_run_until_time_stops_exactly():
    env = Environment()
    fired = []
    env.schedule_call(1.0, fired.append, "a")
    env.schedule_call(3.0, fired.append, "b")
    env.run(until=2.0)
    assert fired == ["a"]
    assert env.now == 2.0
    env.run(until=4.0)
    assert fired == ["a", "b"]


def test_run_until_past_raises():
    env = Environment()
    env.run(until=3.0)
    with pytest.raises(ScheduleInPastError):
        env.run(until=1.0)


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []
    for i in range(10):
        env.schedule_call(1.0, order.append, i)
    env.run()
    assert order == list(range(10))


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    env.run()
    assert got == [42]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callback_after_processed_runs_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("x")
    env.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == ["x"]


def test_process_sequences_timeouts():
    env = Environment()
    times = []

    def proc():
        yield env.timeout(1.0)
        times.append(env.now)
        yield env.timeout(2.0)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [1.0, 3.0]


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "done"

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == ["done"]


def test_process_yielding_non_event_crashes_cleanly():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_process_exception_surfaces_when_unwaited():
    env = Environment()

    def boom():
        yield env.timeout(1.0)
        raise ValueError("kaput")

    env.process(boom())
    with pytest.raises(SimulationError, match="kaput"):
        env.run()


def test_process_exception_delivered_to_waiter():
    env = Environment()
    caught = []

    def boom():
        yield env.timeout(1.0)
        raise ValueError("kaput")

    def waiter():
        try:
            yield env.process(boom())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["kaput"]


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, env.now))

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(2.0)
        proc.interrupt("wakeup")

    env.process(interrupter())
    env.run()
    assert ("interrupted", "wakeup", 2.0) in log
    assert "slept" not in log


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(0.1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3.0)
        return 99

    p = env.process(proc())
    assert env.run(until=p) == 99
    assert env.now == 3.0


def test_run_until_event_never_fires():
    env = Environment()
    ev = env.event()  # never triggered
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_peek_and_step():
    env = Environment()
    env.timeout(5.0)
    assert env.peek() == 5.0
    env.step()
    assert env.now == 5.0
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_cross_environment_event_rejected():
    env1 = Environment()
    env2 = Environment()
    foreign = env2.timeout(1.0)

    def proc():
        yield foreign

    env1.process(proc())
    with pytest.raises(SimulationError, match="another environment"):
        env1.run()


def test_nested_processes_three_deep():
    env = Environment()

    def leaf():
        yield env.timeout(1.0)
        return 1

    def middle():
        v = yield env.process(leaf())
        yield env.timeout(1.0)
        return v + 1

    def root():
        v = yield env.process(middle())
        return v + 1

    p = env.process(root())
    assert env.run(until=p) == 3
    assert env.now == 2.0


def test_run_until_failing_process_raises_original_exception():
    env = Environment()

    def boom():
        yield env.timeout(1.0)
        raise ValueError("payload too large")

    p = env.process(boom())
    with pytest.raises(ValueError, match="payload too large") as excinfo:
        env.run(until=p)
    # raised `from None`: the original error, not a chained wrapper
    assert excinfo.value.__suppress_context__


def test_run_until_failed_event_raises_original_exception():
    env = Environment()
    ev = env.event()
    env.schedule_call(1.0, ev.fail, RuntimeError("link down"))
    with pytest.raises(RuntimeError, match="link down") as excinfo:
        env.run(until=ev)
    assert excinfo.value.__suppress_context__
    assert env.now == 1.0


def test_unwaited_crashes_surface_in_fifo_order():
    env = Environment()

    def boom(delay, msg):
        yield env.timeout(delay)
        raise RuntimeError(msg)

    env.process(boom(1.0, "first"), name="p1")
    env.process(boom(2.0, "second"), name="p2")
    with pytest.raises(SimulationError, match="'p1' crashed"):
        env.run()
    with pytest.raises(SimulationError, match="'p2' crashed"):
        env.run()


def test_fast_timeout_recycles_processed_objects():
    env = Environment()
    seen = []

    def proc():
        for i in range(3):
            ev = env._fast_timeout(1.0, value=i)
            seen.append(id(ev))
            got = yield ev
            assert got == i

    p = env.process(proc())
    env.run(until=p)
    assert env.now == 3.0
    # The generator asks for its next timeout while the previous one is
    # still being dispatched (its recycle happens after callbacks), so
    # two objects alternate — and nothing new is allocated after that.
    assert seen[2] == seen[0]
    assert len(set(seen)) == 2


def test_fast_timeout_matches_timeout_semantics():
    env = Environment()
    log = []

    def a():
        yield env._fast_timeout(1.0)
        log.append(("a", env.now))

    def b():
        yield env.timeout(1.0)
        log.append(("b", env.now))

    env.process(a())
    env.process(b())
    env.run()
    assert log == [("a", 1.0), ("b", 1.0)]  # FIFO order preserved


def test_fast_timeout_negative_rejected():
    env = Environment()
    with pytest.raises(ScheduleInPastError):
        env._fast_timeout(-0.5)


class TestPeriodicCall:
    def test_fires_at_fixed_interval(self):
        env = Environment()
        at = []
        handle = env.every(0.5, lambda: at.append(env.now))
        env.run(until=2.25)
        assert at == [0.5, 1.0, 1.5, 2.0]
        assert handle.fires == 4

    def test_cancel_stops_future_firings(self):
        env = Environment()
        at = []

        def tick():
            at.append(env.now)
            if len(at) == 2:
                handle.cancel()

        handle = env.every(0.25, tick)
        env.run(until=5.0)
        assert at == [0.25, 0.5]
        assert handle.fires == 2

    def test_args_are_forwarded(self):
        env = Environment()
        seen = []
        env.every(1.0, seen.append, "x")
        env.run(until=2.5)
        assert seen == ["x", "x"]

    def test_rejects_non_positive_interval(self):
        env = Environment()
        with pytest.raises(ScheduleInPastError):
            env.every(0.0, lambda: None)
        with pytest.raises(ScheduleInPastError):
            env.every(-1.0, lambda: None)


NAN = float("nan")


class TestNanRejected:
    """A NaN compares false with everything, so it must be refused at
    the door: in the queue it would fire out of order."""

    def test_timeout(self):
        with pytest.raises(ScheduleInPastError):
            Environment().timeout(NAN)

    def test_fast_timeout_fresh_and_pooled(self):
        env = Environment()
        with pytest.raises(ScheduleInPastError):
            env._fast_timeout(NAN)

        def proc():
            yield env._fast_timeout(1.0)  # returns to the pool

        env.process(proc())
        env.run()
        assert env._timeout_pool
        with pytest.raises(ScheduleInPastError):
            env._fast_timeout(NAN)

    def test_schedule_call(self):
        env = Environment()
        fired = []
        for delay in (3.0, 1.0):
            env.schedule_call(delay, fired.append, delay)
        with pytest.raises(ScheduleInPastError):
            env.schedule_call(NAN, fired.append, NAN)
        for delay in (2.0, 0.5):
            env.schedule_call(delay, fired.append, delay)
        env.run()
        assert fired == [0.5, 1.0, 2.0, 3.0]

    def test_schedule_call_at(self):
        with pytest.raises(ScheduleInPastError):
            Environment().schedule_call_at(NAN, lambda: None)

    def test_every(self):
        with pytest.raises(ScheduleInPastError):
            Environment().every(NAN, lambda: None)

    def test_succeed_and_fail_delay(self):
        env = Environment()
        with pytest.raises(ScheduleInPastError):
            env.event().succeed(delay=NAN)
        with pytest.raises(ScheduleInPastError):
            env.event().fail(ValueError("x"), delay=NAN)

    def test_run_until(self):
        env = Environment()
        env.schedule_call(1.0, lambda: None)
        with pytest.raises(SimulationError, match="not a time") as info:
            env.run(until=NAN)
        assert not isinstance(info.value, ScheduleInPastError)
        assert env.now == 0.0
        assert env.pending_count() == 1


class TestSameInstantLane:
    """Entries due at the current instant bypass the queue; dispatch
    order must still be exact (time, seq)."""

    def test_schedule_calls_return_none(self):
        env = Environment()
        assert env.schedule_call(0.0, lambda: None) is None
        assert env.schedule_call(1.0, lambda: None) is None
        assert env.schedule_call_at(2.0, lambda: None) is None
        assert env.schedule_call_at(0.0, lambda: None) is None

    def test_queued_entries_due_now_run_before_the_lane(self):
        env = Environment()
        order = []

        def first():
            order.append("first")
            env.schedule_call(0.0, order.append, "lane")

        env.schedule_call(1.0, first)
        env.schedule_call(1.0, order.append, "queued")
        env.run()
        assert order == ["first", "queued", "lane"]

    def test_absorbed_delay_is_due_now(self):
        env = Environment(initial_time=1.0)
        order = []
        env.schedule_call(1e-30, order.append, "absorbed")  # 1.0 + 1e-30 == 1.0
        env.schedule_call(0.0, order.append, "zero")
        env.timeout(1e-30).add_callback(lambda _e: order.append("timeout"))
        assert env.peek() == 1.0
        env.run()
        assert order == ["absorbed", "zero", "timeout"]
        assert env.now == 1.0

    def test_events_scheduled_counts_lane_entries(self):
        env = Environment()
        env.schedule_call(0.0, lambda: None)
        env.event().succeed()
        env.timeout(0.0)
        env.schedule_call(1.0, lambda: None)
        assert env.events_scheduled == 4
        assert env.pending_count() == 4
        env.run()
        assert env.pending_count() == 0

    def test_crash_leaves_the_lane_resumable(self):
        env = Environment()
        order = []

        def boom():
            env.schedule_call(0.0, order.append, "after")
            raise RuntimeError("boom")

        env.schedule_call(1.0, boom)
        with pytest.raises(RuntimeError):
            env.run()
        assert env.pending_count() == 1
        env.run()
        assert order == ["after"] and env.now == 1.0
