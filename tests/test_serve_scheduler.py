"""Tests for the generalized serving scheduler (repro.serve.scheduler)."""

import pytest

from repro.errors import ReproError
from repro.serve.scheduler import Scheduler, Task, TaskState, interleave
from repro.sim.clock import VirtualClock


def _worker(clock, chunks, log, name):
    def gen():
        for cost in chunks:
            clock.advance(cost)
            log.append((name, clock.now))
            yield
        return name
    return gen()


def test_smallest_clock_first_ordering():
    log = []
    a, b = VirtualClock(), VirtualClock()
    scheduler = Scheduler()
    scheduler.add(Task("a", a, _worker(a, [10, 10, 10], log, "a")))
    scheduler.add(Task("b", b, _worker(b, [25, 25], log, "b")))
    scheduler.run()
    # Selection is by the clock *before* each step (the micro semantics):
    # whoever is furthest behind in virtual time runs next.
    assert log == [("a", 10), ("b", 25), ("a", 20), ("a", 30), ("b", 50)]


def test_completion_callback_and_result():
    done = []
    clock = VirtualClock()
    scheduler = Scheduler()
    task = scheduler.add(Task(
        "t", clock, _worker(clock, [5], [], "t"),
        on_complete=lambda t, at: done.append((t.name, at)),
    ))
    scheduler.run()
    assert done == [("t", clock.now)]
    assert task.state == TaskState.DONE
    assert task.result == "t"


def test_arrival_time_delays_first_step():
    log = []
    a, b = VirtualClock(), VirtualClock()
    scheduler = Scheduler()
    scheduler.add(Task("early", a, _worker(a, [10], log, "early")))
    scheduler.add(Task("late", b, _worker(b, [1], log, "late"),
                       arrival_ps=100))
    scheduler.run()
    assert log == [("early", 10), ("late", 101)]
    assert b.now == 101


def test_negative_arrival_rejected():
    with pytest.raises(ReproError):
        Task("bad", VirtualClock(), iter(()), arrival_ps=-1)


def test_effect_without_handler_fails():
    clock = VirtualClock()

    def gen():
        yield object()

    scheduler = Scheduler()
    task = scheduler.add(Task("t", clock, gen()))
    with pytest.raises(ReproError, match="no effect handler"):
        scheduler.run()
    assert task.state == TaskState.FAILED


def test_effect_handler_resume_delivers_value():
    clock = VirtualClock()
    seen = []

    def gen():
        value = yield "effect"
        seen.append(value)

    def handler(scheduler, task, effect):
        assert effect == "effect"
        scheduler.resume(task, 42)

    scheduler = Scheduler(effect_handler=handler)
    scheduler.add(Task("t", clock, gen()))
    scheduler.run()
    assert seen == [42]


def test_effect_handler_throw_delivers_exception():
    clock = VirtualClock()
    seen = []

    def gen():
        try:
            yield "effect"
        except ReproError as exc:
            seen.append(str(exc))

    scheduler = Scheduler(
        effect_handler=lambda s, t, e: s.throw(t, ReproError("boom"))
    )
    scheduler.add(Task("t", clock, gen()))
    scheduler.run()
    assert seen == ["boom"]


def test_blocked_task_with_no_event_source_deadlocks():
    clock = VirtualClock()

    def gen():
        yield "park"

    scheduler = Scheduler(effect_handler=lambda s, t, e: s.block(t))
    scheduler.add(Task("t", clock, gen()))
    with pytest.raises(ReproError, match="deadlock"):
        scheduler.run()


def test_event_source_interleaves_by_virtual_time():
    """An event at time T fires only after runnable clocks reach T."""
    order = []
    clock = VirtualClock()

    class Source:
        def __init__(self):
            self.pending = [15, 45]

        def next_event_ps(self):
            return self.pending[0] if self.pending else None

        def fire(self, now):
            self.pending.pop(0)
            order.append(("event", now))

    def gen():
        for _ in range(3):
            clock.advance(20)
            order.append(("task", clock.now))
            yield

    scheduler = Scheduler(event_source=Source())
    scheduler.add(Task("t", clock, gen()))
    scheduler.run()
    # The task's clock must *reach* an event's time before it fires: the
    # 15ps event waits out the 0→20ps work chunk (any submission inside
    # that chunk is timestamped 20 > 15, so causality holds), and the
    # 45ps event waits out the 40→60ps chunk.
    assert order == [
        ("task", 20), ("event", 15), ("task", 40),
        ("task", 60), ("event", 45),
    ]


def test_interleave_preserves_micro_semantics():
    """The promoted entry point behaves like the original two-thread one."""
    log = []
    a, b = VirtualClock(), VirtualClock()
    interleave([
        (a, _worker(a, [10, 10], log, "a")),
        (b, _worker(b, [15], log, "b")),
    ])
    assert log == [("a", 10), ("b", 15), ("a", 20)]


def test_resume_finished_task_rejected():
    def empty():
        return
        yield  # pragma: no cover

    clock = VirtualClock()
    scheduler = Scheduler()
    task = scheduler.add(Task("t", clock, empty()))
    scheduler.run()
    assert task.state == TaskState.DONE
    with pytest.raises(ReproError):
        scheduler.resume(task)
    with pytest.raises(ReproError):
        scheduler.throw(task, ReproError("x"))
