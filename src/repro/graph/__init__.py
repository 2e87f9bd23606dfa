"""A GAS-model graph processing engine (the reproduction's PowerGraph).

The engine mirrors the execution structure the paper describes (Section
5.2): load the input graph, run a *finalize* phase that partitions and
shuffles it among worker threads, then iterate *gather*, *apply*,
*scatter* supersteps until the algorithm converges. The graph lives in
CSR regions of the process address space (the memory pool on DDCs);
vertex state and message buffers are regions too, so every phase's access
pattern — the scattered writes of finalize and scatter, the random reads
of gather — is charged faithfully.

Any of the phases can be pushed down with TELEPORT; the paper pushes
finalize, gather and scatter, each with under 100 lines of code.
"""

from repro.graph.algorithms import (
    connected_components,
    reachability,
    sssp,
)
from repro.graph.datagen import social_graph
from repro.graph.engine import GraphEngine

__all__ = [
    "GraphEngine",
    "connected_components",
    "reachability",
    "social_graph",
    "sssp",
]
