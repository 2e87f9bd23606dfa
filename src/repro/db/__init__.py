"""A columnar in-memory DBMS (the reproduction's MonetDB analogue).

Tables are collections of typed columns, each stored in a
:class:`~repro.mem.region.Region` of the owning process's address space —
i.e. in the memory pool on DDC platforms. Queries are physical plans of
materialising operators (MonetDB-style operator-at-a-time execution); the
executor can run any subset of operators as TELEPORT pushdowns, which is
exactly how the paper applies pushdown to MonetDB (Section 5.1).

Sub-packages:

* :mod:`repro.db.operators` — selection, projection, aggregation, hash and
  merge joins, group-by, expression evaluation, sort/top-N;
* :mod:`repro.db.tpch` — a scaled-down TPC-H generator and queries Q1, Q3,
  Q6, Q9 plus the paper's synthetic ``Q_filter``;
* :mod:`repro.db.intensity` — the memory-intensity metric and pushdown
  planner of Section 7.4.
"""

from repro.db.executor import QueryExecutor, QueryResult
from repro.db.intensity import IntensityPlanner
from repro.db.optimizer import CostBasedOptimizer, PlacementEstimate
from repro.db.plan import PhysicalPlan
from repro.db.table import Column, Table
from repro.db.vector import Vector

__all__ = [
    "Column",
    "CostBasedOptimizer",
    "IntensityPlanner",
    "PhysicalPlan",
    "PlacementEstimate",
    "QueryExecutor",
    "QueryResult",
    "Table",
    "Vector",
]
