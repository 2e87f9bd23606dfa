"""The GAS graph engine: CSR storage, phases, pushdown wiring.

Execution follows the paper's PowerGraph description: a *finalize* phase
partitions and shuffles the loaded edge list into per-worker CSR storage
(scattered writes over the whole adjacency — the 249 GB-of-remote-traffic
phase in Figure 10), then algorithms run gather/apply/scatter supersteps.
Each named phase can be TELEPORTed independently.
"""

import numpy as np

from repro.ddc.phases import PhaseProfile, PhaseRunner
from repro.errors import ReproError


class GraphEngine:
    """Runs GAS algorithms over a CSR graph in simulated memory."""

    PHASES = ("finalize", "gather", "apply", "scatter")

    def __init__(self, ctx, n_vertices, src, dst, weight=None,
                 pushdown=(), pushdown_options=None):
        self.ctx = ctx
        self.process = ctx.thread.process
        self.n_vertices = int(n_vertices)
        self.n_edges = len(src)
        if len(dst) != self.n_edges:
            raise ReproError("src and dst must have equal length")
        self._phases = PhaseRunner(ctx, self.PHASES, pushdown, pushdown_options)
        # Loading the graph is setup: the edge list lands in the memory
        # pool uncharged, like any allocation.
        self._src = self.process.alloc_array("graph.edges.src", np.asarray(src, np.int64))
        self._dst = self.process.alloc_array("graph.edges.dst", np.asarray(dst, np.int64))
        if weight is None:
            weight = np.ones(self.n_edges)
        self._weight = self.process.alloc_array(
            "graph.edges.weight", np.asarray(weight, np.float64)
        )
        self.indptr = None
        self.indices = None
        self.weights = None
        self._states = {}

    # ------------------------------------------------------------------
    # Phase plumbing (delegated to the shared PhaseRunner)
    # ------------------------------------------------------------------
    @property
    def profiles(self):
        return self._phases.profiles

    def run_phase(self, name, body, *args):
        return self._phases.run(name, body, *args)

    def profile(self, name):
        return self._phases.profile(name)

    def total_time_ns(self):
        return self._phases.total_time_ns()

    # ------------------------------------------------------------------
    # Finalize: partition + shuffle the edge list into CSR
    # ------------------------------------------------------------------
    def finalize(self):
        """Build CSR storage; must run before any algorithm."""
        if self.indptr is not None:
            return
        self.run_phase("finalize", self._finalize_body)

    def _finalize_body(self, ctx):
        m = self.n_edges
        n = self.n_vertices
        src = ctx.load_slice(self._src)
        dst = ctx.load_slice(self._dst)
        weight = ctx.load_slice(self._weight)
        # Partitioning is CPU-heavy even locally: PowerGraph's ingress does
        # per-edge vertex-cut assignment and hash-map inserts (~0.5 us per
        # edge), plus the sort into CSR order.
        ctx.compute(m * (1200 + 2 * max(1.0, np.log2(max(2, m)))))
        order = np.argsort(src, kind="stable")
        counts = np.bincount(src, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

        name = self.process.unique_name
        self.indptr = self.process.alloc_array(name("graph.indptr"), indptr)
        self.indices = self.process.alloc_array(name("graph.indices"), dst[order])
        self.weights = self.process.alloc_array(name("graph.weights"), weight[order])
        ctx.touch_seq(self.indptr, 0, len(indptr), write=True)
        # The shuffle writes: edge i lands at CSR slot inverse[i], which is
        # scattered with respect to the input scan order.
        inverse = np.empty(m, dtype=np.int64)
        inverse[order] = np.arange(m, dtype=np.int64)
        ctx.touch_random(self.indices, inverse, write=True)
        ctx.touch_random(self.weights, inverse, write=True)
        self._degrees = counts

    # ------------------------------------------------------------------
    # Vertex state and adjacency access helpers (used by algorithms)
    # ------------------------------------------------------------------
    def alloc_state(self, name, fill, dtype=np.float64):
        """Allocate a per-vertex state region (setup, uncharged)."""
        array = np.full(self.n_vertices, fill, dtype=dtype)
        region = self.process.alloc_array(
            self.process.unique_name(f"graph.state.{name}"), array
        )
        self._states[name] = region
        return region

    def read_state(self, region, vertices, ctx=None):
        """Random reads of per-vertex state."""
        return (ctx or self.ctx).gather(region, vertices)

    def write_state(self, region, vertices, values, ctx=None):
        """Random writes of per-vertex state."""
        (ctx or self.ctx).scatter(region, vertices, values)

    def expand(self, ctx, frontier):
        """Out-edges of a frontier: (sources, neighbours, weights).

        Charges: random reads of indptr for the frontier, clustered
        streaming of the adjacency/weight runs.
        """
        self._require_finalized()
        frontier = np.asarray(frontier, dtype=np.int64)
        if len(frontier) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        indptr = self.indptr.array
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ctx.touch_random(self.indptr, frontier)
        edge_idx = _ranges(starts, counts)
        if len(edge_idx) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        ctx.touch_clustered(self.indices, edge_idx)
        ctx.touch_clustered(self.weights, edge_idx)
        # Per-edge work: message construction and combiner updates.
        ctx.compute(len(edge_idx) * 8)
        sources = np.repeat(frontier, counts)
        return sources, self.indices.array[edge_idx], self.weights.array[edge_idx]

    def _require_finalized(self):
        if self.indptr is None:
            raise ReproError("call finalize() before running algorithms")


def _ranges(starts, counts):
    """Concatenate ranges [start, start+count) for each (start, count)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nonzero = counts > 0
    starts = np.asarray(starts, dtype=np.int64)[nonzero]
    counts = counts[nonzero]
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    ends = np.cumsum(counts)
    steps[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(steps)
