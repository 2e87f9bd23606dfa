"""Graph algorithms over the GAS engine.

The paper's three PowerGraph queries — SSSP (single-source shortest
path), RE (single-source reachability) and CC (connected components).
Each superstep runs the gather, apply and scatter phases through the
engine's phase plumbing, so any of them can be TELEPORTed and each gets
its own Figure 10-style profile.

All algorithms are message-passing (push-style):

* **scatter** expands the frontier's adjacency and combines messages to
  neighbours (the expensive phase for SSSP/RE/CC);
* **gather** reads the pending vertices' messages;
* **apply** merges messages into vertex state and emits the next frontier.
"""

import numpy as np


def sssp(engine, source):
    """Weighted single-source shortest paths; returns the distance array."""
    engine.finalize()
    dist = engine.alloc_state("sssp.dist", np.inf)
    msg = engine.alloc_state("sssp.msg", np.inf)
    dist.array[source] = 0.0

    def scatter(ctx, frontier):
        sources, neighbours, weights = engine.expand(ctx, frontier)
        if len(neighbours) == 0:
            return np.empty(0, dtype=np.int64)
        engine.read_state(dist, frontier, ctx)  # own distances
        candidate = dist.array[sources] + weights
        ctx.compute(len(neighbours) * 2)
        pending, combined = _min_combine(neighbours, candidate)
        # Send: combined messages land at each destination vertex.
        current = engine.read_state(msg, pending, ctx)
        improved = combined < current
        engine.write_state(msg, pending[improved], combined[improved], ctx)
        return pending[improved]

    def gather(ctx, pending):
        return engine.read_state(msg, pending, ctx)

    def apply(ctx, pending, incoming):
        current = engine.read_state(dist, pending, ctx)
        better = incoming < current
        ctx.compute(len(pending) * 2)
        engine.write_state(dist, pending[better], incoming[better], ctx)
        return pending[better]

    _message_loop(engine, np.array([source], dtype=np.int64), gather, apply, scatter)
    return dist.array.copy()


def reachability(engine, source):
    """Single-source reachability (RE); returns a boolean array."""
    engine.finalize()
    visited = engine.alloc_state("re.visited", 0.0)
    visited.array[source] = 1.0

    def scatter(ctx, frontier):
        _sources, neighbours, _weights = engine.expand(ctx, frontier)
        if len(neighbours) == 0:
            return np.empty(0, dtype=np.int64)
        pending = np.unique(neighbours)
        ctx.compute(len(neighbours))
        return pending

    def gather(ctx, pending):
        return engine.read_state(visited, pending, ctx)

    def apply(ctx, pending, seen):
        fresh = pending[seen == 0.0]
        ctx.compute(len(pending))
        if len(fresh):
            engine.write_state(visited, fresh, np.ones(len(fresh)), ctx)
        return fresh

    _message_loop(engine, np.array([source], dtype=np.int64), gather, apply, scatter)
    return visited.array.astype(bool)


def connected_components(engine):
    """Label propagation CC (undirected graphs); returns component labels."""
    engine.finalize()
    n = engine.n_vertices
    labels = engine.alloc_state("cc.labels", 0.0)
    msg = engine.alloc_state("cc.msg", np.inf)
    labels.array[:] = np.arange(n, dtype=np.float64)

    def scatter(ctx, frontier):
        sources, neighbours, _weights = engine.expand(ctx, frontier)
        if len(neighbours) == 0:
            return np.empty(0, dtype=np.int64)
        engine.read_state(labels, frontier, ctx)  # own labels
        candidate = labels.array[sources]
        ctx.compute(len(neighbours) * 2)
        pending, combined = _min_combine(neighbours, candidate)
        current = engine.read_state(msg, pending, ctx)
        improved = combined < current
        engine.write_state(msg, pending[improved], combined[improved], ctx)
        return pending[improved]

    def gather(ctx, pending):
        return engine.read_state(msg, pending, ctx)

    def apply(ctx, pending, incoming):
        current = engine.read_state(labels, pending, ctx)
        better = incoming < current
        ctx.compute(len(pending) * 2)
        engine.write_state(labels, pending[better], incoming[better], ctx)
        return pending[better]

    _message_loop(
        engine, np.arange(n, dtype=np.int64), gather, apply, scatter
    )
    return labels.array.astype(np.int64)


def _min_combine(destinations, values):
    """Combine messages per destination with MIN; returns (unique, best)."""
    unique, inverse = np.unique(destinations, return_inverse=True)
    best = np.full(len(unique), np.inf)
    np.minimum.at(best, inverse, values)
    return unique, best


def _message_loop(engine, initial_frontier, gather, apply, scatter):
    """Drive supersteps until the frontier drains."""
    frontier = initial_frontier
    while len(frontier):
        pending = engine.run_phase("scatter", scatter, frontier)
        if len(pending) == 0:
            break
        incoming = engine.run_phase("gather", gather, pending)
        frontier = engine.run_phase("apply", apply, pending, incoming)
