"""Microbenchmarks from the paper's ablation studies.

Section 4's running example: an application with two threads, one
compute-intensive (arithmetic, e.g. expression evaluation) and one
memory-intensive (random accesses over a large space, e.g. hash-table
probing). The two threads may share memory, with a configurable
contention rate — both sides requesting write access to the same pages.

This package drives that workload on every platform and TELEPORT ablation
(Figures 6 and 7), sweeps the contention rate against the default and
relaxed coherence protocols (Figures 21 and 22), and runs the parallel
aggregation experiment behind Figure 17.
"""

from repro.micro.parallel import parallel_aggregation_speedups
from repro.micro.spec import MicroResult, MicroSpec
from repro.micro.workloads import run_micro, shared_space

__all__ = [
    "MicroResult",
    "MicroSpec",
    "parallel_aggregation_speedups",
    "run_micro",
    "shared_space",
]
