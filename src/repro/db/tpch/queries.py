"""Physical plans and reference implementations for the TPC-H queries.

The paper's evaluation uses the three most expensive TPC-H queries — Q9,
Q3, Q6 — plus the synthetic ``Q_filter`` of Section 5.1 (selection +
projection + aggregation over Lineitem) and Q1 appears in examples. Each
``build_*`` function returns a :class:`~repro.db.plan.PhysicalPlan` over
already-loaded tables; each ``reference_*`` computes the exact expected
answer directly with numpy for testing.
"""

import numpy as np

from repro.db.expr import Col, Like
from repro.db.operators import (
    Aggregate,
    ExpressionMap,
    GroupAggregate,
    HashJoin,
    MergeJoin,
    Projection,
    Selection,
    TopN,
)
from repro.db.plan import PhysicalPlan
from repro.db.tpch.datagen import DATE_MAX

#: Q9's '%green%' predicate: the matching set of name tokens (roughly the
#: selectivity of one colour in TPC-H's 92-word palette spread over
#: multi-word names).
GREEN_TOKENS = tuple(range(40, 46))
#: Default dates for the filtered queries.
Q3_DATE = 1200
Q6_DATE = 1100
QFILTER_DATE = 1500
#: Group key packing for Q9: nationkey * 16 + year index.
YEAR_STRIDE = 16


# ----------------------------------------------------------------------
# Q_filter (Section 5.1): SELECT SUM(quantity) FROM lineitem
#                         WHERE shipdate < $DATE
# ----------------------------------------------------------------------
def build_qfilter(tables, date=QFILTER_DATE):
    lineitem = tables["lineitem"]
    return PhysicalPlan(
        "Qfilter",
        [
            Selection(lineitem, Col("shipdate") < date, out="sel"),
            Projection(lineitem["quantity"], out="qty", candidates="sel"),
            Aggregate("qty", "sum", out="result"),
        ],
        result="result",
        description="SELECT SUM(quantity) FROM Lineitem WHERE shipdate < $DATE",
    )


def reference_qfilter(dataset, date=QFILTER_DATE):
    lineitem = dataset.tables["lineitem"]
    mask = lineitem["shipdate"] < date
    return float(lineitem["quantity"][mask].sum())


# ----------------------------------------------------------------------
# Q6: forecasting revenue change
# ----------------------------------------------------------------------
def build_q6(tables, date=Q6_DATE):
    lineitem = tables["lineitem"]
    predicate = (
        (Col("shipdate") >= date)
        & (Col("shipdate") < date + 365)
        & (Col("discount") >= 0.05)
        & (Col("discount") <= 0.07)
        & (Col("quantity") < 24)
    )
    return PhysicalPlan(
        "Q6",
        [
            Selection(lineitem, predicate, out="sel"),
            Projection(lineitem["extendedprice"], out="ep", candidates="sel"),
            Projection(lineitem["discount"], out="disc", candidates="sel"),
            ExpressionMap(
                {"ep": "ep", "disc": "disc"}, Col("ep") * Col("disc"), out="revenue"
            ),
            Aggregate("revenue", "sum", out="result"),
        ],
        result="result",
        description="TPC-H Q6: revenue from discounted small-quantity lineitems",
    )


def reference_q6(dataset, date=Q6_DATE):
    li = dataset.tables["lineitem"]
    mask = (
        (li["shipdate"] >= date)
        & (li["shipdate"] < date + 365)
        & (li["discount"] >= 0.05)
        & (li["discount"] <= 0.07)
        & (li["quantity"] < 24)
    )
    return float((li["extendedprice"][mask] * li["discount"][mask]).sum())


# ----------------------------------------------------------------------
# Q1: pricing summary report
# ----------------------------------------------------------------------
def build_q1(tables, delta=90):
    lineitem = tables["lineitem"]
    cutoff = DATE_MAX - delta
    one = 1.0
    return PhysicalPlan(
        "Q1",
        [
            Selection(lineitem, Col("shipdate") <= cutoff, out="sel"),
            Projection(lineitem["quantity"], out="qty", candidates="sel"),
            Projection(lineitem["extendedprice"], out="ep", candidates="sel"),
            Projection(lineitem["discount"], out="disc", candidates="sel"),
            Projection(lineitem["tax"], out="tax", candidates="sel"),
            Projection(lineitem["returnflag"], out="rf", candidates="sel"),
            Projection(lineitem["linestatus"], out="ls", candidates="sel"),
            ExpressionMap(
                {"ep": "ep", "disc": "disc"},
                Col("ep") * (one - Col("disc")),
                out="disc_price",
            ),
            ExpressionMap(
                {"dp": "disc_price", "tax": "tax"},
                Col("dp") * (one + Col("tax")),
                out="charge",
            ),
            ExpressionMap(
                {"rf": "rf", "ls": "ls"}, Col("rf") * 2 + Col("ls"), out="gkey"
            ),
            GroupAggregate("gkey", "qty", "sum", out="g_qty"),
            GroupAggregate("gkey", "ep", "sum", out="g_base"),
            GroupAggregate("gkey", "disc_price", "sum", out="g_disc_price"),
            GroupAggregate("gkey", "charge", "sum", out="g_charge"),
            GroupAggregate("gkey", "qty", "count", out="g_count"),
        ],
        result="g_charge",
        description="TPC-H Q1: pricing summary grouped by returnflag/linestatus",
    )


def reference_q1(dataset, delta=90):
    li = dataset.tables["lineitem"]
    cutoff = DATE_MAX - delta
    mask = li["shipdate"] <= cutoff
    gkey = li["returnflag"][mask] * 2 + li["linestatus"][mask]
    charge = (
        li["extendedprice"][mask]
        * (1.0 - li["discount"][mask])
        * (1.0 + li["tax"][mask])
    )
    result = {}
    for key in np.unique(gkey):
        result[int(key)] = float(charge[gkey == key].sum())
    return result


# ----------------------------------------------------------------------
# Q3: shipping priority (customer x orders x lineitem, top 10 revenue)
# ----------------------------------------------------------------------
def build_q3(tables, segment=1, date=Q3_DATE):
    customer = tables["customer"]
    orders = tables["orders"]
    lineitem = tables["lineitem"]
    one = 1.0
    return PhysicalPlan(
        "Q3",
        [
            Selection(customer, Col("mktsegment") == segment, out="sel_cust"),
            Projection(customer["custkey"], out="cust_keys", candidates="sel_cust"),
            Selection(orders, Col("orderdate") < date, out="sel_ord"),
            Projection(orders["custkey"], out="ord_cust", candidates="sel_ord"),
            HashJoin(build="cust_keys", probe="ord_cust", out="j_cust"),
            Projection("sel_ord", out="ord_rows", candidates="j_cust.probe"),
            Projection(orders["orderkey"], out="ord_keys", candidates="ord_rows"),
            Selection(lineitem, Col("shipdate") > date, out="sel_li"),
            Projection(lineitem["orderkey"], out="li_ord", candidates="sel_li"),
            HashJoin(build="ord_keys", probe="li_ord", out="j_ord"),
            Projection("sel_li", out="li_rows", candidates="j_ord.probe"),
            Projection(lineitem["extendedprice"], out="ep", candidates="li_rows"),
            Projection(lineitem["discount"], out="disc", candidates="li_rows"),
            ExpressionMap(
                {"ep": "ep", "disc": "disc"},
                Col("ep") * (one - Col("disc")),
                out="rev",
            ),
            Projection("li_ord", out="okey", candidates="j_ord.probe"),
            GroupAggregate("okey", "rev", "sum", out="g_rev"),
            TopN("g_rev", 10, out="result"),
        ],
        result="result",
        description="TPC-H Q3: top-10 unshipped orders by revenue",
    )


def reference_q3(dataset, segment=1, date=Q3_DATE, n=10):
    tables = dataset.tables
    cust = tables["customer"]
    orders = tables["orders"]
    li = tables["lineitem"]
    good_cust = set(cust["custkey"][cust["mktsegment"] == segment].tolist())
    ord_mask = orders["orderdate"] < date
    good_orders = {
        int(key)
        for key, ck in zip(orders["orderkey"][ord_mask], orders["custkey"][ord_mask])
        if int(ck) in good_cust
    }
    li_mask = li["shipdate"] > date
    revenue = {}
    rev = li["extendedprice"] * (1.0 - li["discount"])
    for okey, amount, keep in zip(li["orderkey"], rev, li_mask):
        if keep and int(okey) in good_orders:
            revenue[int(okey)] = revenue.get(int(okey), 0.0) + float(amount)
    ranked = sorted(revenue.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:n]


# ----------------------------------------------------------------------
# Q9: product type profit measure (the paper's most expensive query)
# ----------------------------------------------------------------------
def build_q9(tables, tokens=GREEN_TOKENS):
    part = tables["part"]
    supplier = tables["supplier"]
    lineitem = tables["lineitem"]
    partsupp = tables["partsupp"]
    orders = tables["orders"]
    n_supp = supplier.nrows
    one = 1.0
    composite = Col("pk") * n_supp + Col("sk")
    return PhysicalPlan(
        "Q9",
        [
            Selection(part, Like("name_token", tokens), out="sel_part"),
            Projection(part["partkey"], out="part_keys", candidates="sel_part"),
            HashJoin(build="part_keys", probe=lineitem["partkey"], out="j_part"),
            Projection(lineitem["suppkey"], out="li_supp", candidates="j_part.probe"),
            Projection(lineitem["partkey"], out="li_part", candidates="j_part.probe"),
            Projection(lineitem["orderkey"], out="li_ord", candidates="j_part.probe"),
            Projection(lineitem["quantity"], out="li_qty", candidates="j_part.probe"),
            Projection(
                lineitem["extendedprice"], out="li_ep", candidates="j_part.probe"
            ),
            Projection(lineitem["discount"], out="li_disc", candidates="j_part.probe"),
            ExpressionMap(
                {"pk": partsupp["partkey"], "sk": partsupp["suppkey"]},
                composite,
                out="ps_key",
            ),
            ExpressionMap({"pk": "li_part", "sk": "li_supp"}, composite, out="li_pskey"),
            HashJoin(build="ps_key", probe="li_pskey", out="j_ps"),
            Projection(partsupp["supplycost"], out="sc", candidates="j_ps.build"),
            MergeJoin(left=orders["orderkey"], right="li_ord", out="j_orders"),
            Projection(orders["orderdate"], out="odate", candidates="j_orders.build"),
            HashJoin(build=supplier["suppkey"], probe="li_supp", out="j_supp"),
            Projection(supplier["nationkey"], out="nk", candidates="j_supp.build"),
            ExpressionMap(
                {"ep": "li_ep", "disc": "li_disc", "sc": "sc", "qty": "li_qty"},
                Col("ep") * (one - Col("disc")) - Col("sc") * Col("qty"),
                out="amount",
            ),
            ExpressionMap({"od": "odate"}, Col("od") // 365, out="year"),
            ExpressionMap(
                {"nk": "nk", "yr": "year"},
                Col("nk") * YEAR_STRIDE + Col("yr"),
                out="gkey",
            ),
            GroupAggregate("gkey", "amount", "sum", out="g_profit"),
            TopN("g_profit", 1000, out="result"),
        ],
        result="result",
        description="TPC-H Q9: profit by nation and year for matching parts",
    )


def reference_q9(dataset, tokens=GREEN_TOKENS):
    tables = dataset.tables
    part = tables["part"]
    supplier = tables["supplier"]
    li = tables["lineitem"]
    ps = tables["partsupp"]
    orders = tables["orders"]
    n_supp = len(supplier["suppkey"])

    matching_parts = np.isin(part["name_token"], np.asarray(tokens))
    good_parts = set(part["partkey"][matching_parts].tolist())
    li_mask = np.fromiter(
        (int(pk) in good_parts for pk in li["partkey"]), dtype=bool, count=len(li["partkey"])
    )

    ps_cost = {
        int(pk) * n_supp + int(sk): float(cost)
        for pk, sk, cost in zip(ps["partkey"], ps["suppkey"], ps["supplycost"])
    }
    order_date = dict(
        zip(orders["orderkey"].tolist(), orders["orderdate"].tolist())
    )
    supp_nation = dict(
        zip(supplier["suppkey"].tolist(), supplier["nationkey"].tolist())
    )

    profit = {}
    rows = np.nonzero(li_mask)[0]
    for row in rows:
        pk = int(li["partkey"][row])
        sk = int(li["suppkey"][row])
        amount = float(
            li["extendedprice"][row] * (1.0 - li["discount"][row])
            - ps_cost[pk * n_supp + sk] * li["quantity"][row]
        )
        year = int(order_date[int(li["orderkey"][row])]) // 365
        key = supp_nation[sk] * YEAR_STRIDE + year
        profit[int(key)] = profit.get(int(key), 0.0) + amount
    return profit
