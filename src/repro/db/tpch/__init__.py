"""A scaled-down TPC-H workload.

The paper evaluates MonetDB on TPC-H at scale factors 50 and 200 (50 GB /
200 GB databases). A pure-Python simulation cannot materialise that, so
this generator keeps TPC-H's *relative* table sizes, key relationships,
skews and selectivities while shrinking absolute row counts by a constant
factor (``BASE_ROWS`` rows per scale factor per table). Experiments keep
the paper's compute-cache-to-working-set ratio instead of its absolute
gigabytes, which is what the cost shapes depend on.

String attributes are dictionary-encoded into integer tokens; the
``p_name like '%green%'`` predicate of Q9 becomes a token-set membership
test with the same selectivity (1 colour out of TPC-H's palette).
"""

from repro.db.tpch.datagen import BASE_ROWS, TpchDataset, generate
from repro.db.tpch.queries import (
    build_q1,
    build_q3,
    build_q6,
    build_q9,
    build_qfilter,
    reference_q1,
    reference_q3,
    reference_q6,
    reference_q9,
    reference_qfilter,
)

__all__ = [
    "BASE_ROWS",
    "TpchDataset",
    "build_q1",
    "build_q3",
    "build_q6",
    "build_q9",
    "build_qfilter",
    "generate",
    "reference_q1",
    "reference_q3",
    "reference_q6",
    "reference_q9",
    "reference_qfilter",
]
