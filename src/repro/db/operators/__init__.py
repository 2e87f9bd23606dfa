"""Physical operators of the columnar DBMS.

All operators follow MonetDB's operator-at-a-time model: they consume fully
materialised inputs from the plan environment and materialise their output
before the next operator runs. Every operator is pushdown-capable — the
executor can run it inline in the compute pool or ship it to the memory
pool with TELEPORT, with identical results.
"""

from repro.db.operators.aggregate import Aggregate
from repro.db.operators.base import JoinResult, Operator, resolve
from repro.db.operators.exprmap import ExpressionMap
from repro.db.operators.groupby import GroupAggregate
from repro.db.operators.hashjoin import HashJoin
from repro.db.operators.mergejoin import MergeJoin
from repro.db.operators.project import Projection
from repro.db.operators.select import Selection
from repro.db.operators.sort import SortPermutation, TopN

__all__ = [
    "Aggregate",
    "ExpressionMap",
    "GroupAggregate",
    "HashJoin",
    "JoinResult",
    "MergeJoin",
    "Operator",
    "Projection",
    "Selection",
    "SortPermutation",
    "TopN",
    "resolve",
]
