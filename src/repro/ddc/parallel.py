"""Fork/join parallelism over simulated threads.

``run_parallel`` models a parallel phase: every task gets its own thread
forked at the parent's current time; the parent resumes at the latest child
completion. Tasks execute sequentially in host Python (the simulation is
single-threaded and deterministic) but their virtual clocks overlap.

Shared-state effects (the compute-pool cache, the TELEPORT workqueue) are
applied in task order, which is a deterministic approximation of true
interleaving; the fine-grained interleaved scheduler in
:func:`repro.serve.scheduler.interleave` is used where interleaving order matters
(coherence contention experiments).
"""


def run_parallel(parent_ctx, tasks, name_prefix="worker"):
    """Run ``tasks`` (callables taking a context) as parallel siblings.

    Returns the list of task results. The parent context's clock advances
    to the slowest child's completion time.
    """
    platform = parent_ctx.platform
    process = parent_ctx.thread.process
    start = parent_ctx.now
    results = []
    clocks = []
    for index, task in enumerate(tasks):
        thread = platform.spawn_thread(process, name=f"{name_prefix}-{index}", start_ps=start)
        ctx = platform.context_for(thread)
        results.append(task(ctx))
        clocks.append(thread.clock)
    parent_ctx.thread.clock.join(clocks)
    return results
