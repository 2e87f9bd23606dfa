"""The generalized deterministic serving scheduler.

This is the promotion of the microbenchmarks' ``interleave`` into a first-class
discrete-event loop. Tasks are Python generators that perform one bounded
chunk of charged work per step; the scheduler always advances the task
with the smallest virtual clock, which yields a deterministic, causally
consistent interleaving across any number of concurrent tenants.

Beyond the microbenchmark version, tasks gain:

* **names** — every task is addressable in traces and reports;
* **arrival times** — a task does not run before ``arrival_ps``; its
  clock starts there (open-loop multi-tenant arrival plans);
* **completion callbacks** — ``on_complete(task, at_ps)`` fires when the
  generator finishes, which is how the serving layer records latencies;
* **effects** — a step may ``yield`` an effect object (e.g. an
  :class:`~repro.serve.offload.OffloadRequest`); the scheduler hands it
  to the installed handler, which either resolves it inline or parks the
  task until an external event (a memory-pool dispatch) resumes it;
* **event sources** — the loop interleaves task steps with timed events
  from a source such as the :class:`~repro.serve.pool.PoolScheduler`,
  choosing whichever comes first in virtual time.

The ordering invariant that makes queueing policies sound: an event at
virtual time T fires only once every runnable task's clock has reached T,
so every request that could arrive before T has already been submitted.
"""

from repro.errors import ReproError


class TaskState:
    """Lifecycle of a scheduled task (plain constants, not an enum, so
    state checks stay cheap in the inner loop)."""

    PENDING = "pending"      # admitted, waiting for its arrival time
    RUNNABLE = "runnable"    # may be stepped
    BLOCKED = "blocked"      # waiting on an external event (queued pushdown)
    DONE = "done"            # generator exhausted
    FAILED = "failed"        # generator raised


class Task:
    """One named, clocked flow of execution driven by the scheduler."""

    __slots__ = (
        "name", "clock", "gen", "arrival_ps", "on_complete", "payload",
        "state", "seq", "result", "_resume_value", "_throw_exc",
    )

    def __init__(self, name, clock, gen, arrival_ps=0, on_complete=None,
                 payload=None):
        if type(arrival_ps) is not int or arrival_ps < 0:
            raise ReproError(f"task {name!r}: arrival_ps must be an int >= 0")
        self.name = name
        self.clock = clock
        self.gen = gen
        self.arrival_ps = arrival_ps
        self.on_complete = on_complete
        #: Arbitrary owner data (the serving layer stores the Tenant here).
        self.payload = payload
        self.state = TaskState.PENDING
        self.seq = -1  # assigned on add(); deterministic tie-break
        #: The generator's return value once DONE.
        self.result = None
        self._resume_value = None
        self._throw_exc = None

    @property
    def ready_ps(self):
        """Virtual time at which this task could next be stepped."""
        return max(self.clock.now, self.arrival_ps)

    def __repr__(self):
        return f"Task({self.name!r}, {self.state}, now={self.clock.now}ps)"


class Scheduler:
    """Deterministic smallest-clock-first executor of concurrent tasks.

    ``effect_handler(scheduler, task, effect)`` receives every non-None
    value a task yields; it must leave the task RUNNABLE (after calling
    :meth:`resume`) or BLOCKED (after calling :meth:`block`).

    ``event_source`` is an optional object with ``next_event_ps()`` (the
    virtual time of its earliest pending event, or None) and
    ``fire(now)``; the loop interleaves these events with task
    steps in virtual-time order. Ties go to task steps so an event at
    time T observes every submission that happened at or before T.
    """

    def __init__(self, effect_handler=None, event_source=None):
        self.tasks = []
        self.effect_handler = effect_handler
        self.event_source = event_source
        self._seq = 0

    # ------------------------------------------------------------------
    # Admission and state transitions
    # ------------------------------------------------------------------
    def add(self, task):
        """Admit a task; returns it for chaining."""
        task.seq = self._seq
        self._seq += 1
        self.tasks.append(task)
        return task

    def resume(self, task, value=None):
        """Make a task runnable again, delivering ``value`` to its yield."""
        if task.state in (TaskState.DONE, TaskState.FAILED):
            raise ReproError(f"cannot resume finished task {task.name!r}")
        task._resume_value = value
        task.state = TaskState.RUNNABLE

    def throw(self, task, exc):
        """Make a task runnable, delivering ``exc`` at its yield point."""
        if task.state in (TaskState.DONE, TaskState.FAILED):
            raise ReproError(f"cannot throw into finished task {task.name!r}")
        task._throw_exc = exc
        task.state = TaskState.RUNNABLE

    def block(self, task):
        """Park a task until an external event resumes it."""
        task.state = TaskState.BLOCKED

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self):
        """Run every task to completion; returns the task list."""
        while True:
            runnable = [
                task for task in self.tasks
                if task.state in (TaskState.PENDING, TaskState.RUNNABLE)
            ]
            event_ps = (
                self.event_source.next_event_ps()
                if self.event_source is not None else None
            )
            if not runnable and event_ps is None:
                blocked = [t.name for t in self.tasks if t.state == TaskState.BLOCKED]
                if blocked:
                    raise ReproError(
                        f"deadlock: tasks {blocked} blocked with no pending event"
                    )
                return self.tasks
            task = min(runnable, key=lambda t: (t.ready_ps, t.seq)) if runnable else None
            if task is None or (event_ps is not None and event_ps < task.ready_ps):
                self.event_source.fire(event_ps)
                continue
            self._step(task)

    def _step(self, task):
        if task.state == TaskState.PENDING:
            task.clock.advance_to(task.arrival_ps)
            task.state = TaskState.RUNNABLE
        throw, value = task._throw_exc, task._resume_value
        task._throw_exc = None
        task._resume_value = None
        try:
            if throw is not None:
                effect = task.gen.throw(throw)
            else:
                # send(None) == next(); also valid on an unstarted generator.
                effect = task.gen.send(value)
        except StopIteration as stop:
            task.state = TaskState.DONE
            task.result = stop.value
            if task.on_complete is not None:
                task.on_complete(task, task.clock.now)
            return
        except BaseException:
            task.state = TaskState.FAILED
            raise
        if effect is None:
            return
        if self.effect_handler is None:
            task.state = TaskState.FAILED
            raise ReproError(
                f"task {task.name!r} yielded {effect!r} but no effect handler "
                "is installed"
            )
        self.effect_handler(self, task, effect)
        if task.state == TaskState.PENDING:
            raise ReproError(
                f"effect handler left task {task.name!r} pending; it must "
                "resume or block the task"
            )


def interleave(tasks):
    """Run (clock, generator) pairs to completion, smallest clock first.

    The microbenchmark-era entry point, preserved verbatim: anonymous
    tasks, zero arrival times, no effects. New code should build
    :class:`Task` objects and use :class:`Scheduler` directly.
    """
    scheduler = Scheduler()
    for index, (clock, gen) in enumerate(tasks):
        scheduler.add(Task(f"task-{index}", clock, gen))
    scheduler.run()
