"""Tests for the TPC-H generator and query correctness on all platforms."""

import numpy as np
import pytest

from repro.db import QueryExecutor
from repro.db.tpch import (
    BASE_ROWS,
    build_q1,
    build_q3,
    build_q6,
    build_q9,
    build_qfilter,
    generate,
    reference_q1,
    reference_q3,
    reference_q6,
    reference_q9,
    reference_qfilter,
)
from repro.db.tpch.datagen import DATE_MAX, SUPPLIERS_PER_PART
from repro.ddc import make_platform
from repro.errors import ConfigError
from repro.sim.config import DdcConfig, scaled_config
from repro.sim.units import MIB


@pytest.fixture(scope="module")
def dataset():
    return generate(scale_factor=1.0, seed=7)


class TestDatagen:
    def test_row_counts_scale(self, dataset):
        assert dataset.rows("orders") == BASE_ROWS["orders"]
        assert dataset.rows("customer") == BASE_ROWS["customer"]
        big = generate(scale_factor=2.0, seed=7)
        assert big.rows("orders") == 2 * BASE_ROWS["orders"]

    def test_fixed_tables_do_not_scale(self):
        big = generate(scale_factor=4.0, seed=7)
        assert big.rows("nation") == 25
        assert big.rows("region") == 5

    def test_deterministic_given_seed(self):
        a = generate(scale_factor=1.0, seed=42)
        b = generate(scale_factor=1.0, seed=42)
        assert (a.tables["lineitem"]["quantity"] == b.tables["lineitem"]["quantity"]).all()
        c = generate(scale_factor=1.0, seed=43)
        qa = a.tables["lineitem"]["quantity"]
        qc = c.tables["lineitem"]["quantity"]
        assert len(qa) != len(qc) or not (qa == qc).all()

    def test_primary_keys_unique(self, dataset):
        for table, key in [
            ("orders", "orderkey"),
            ("customer", "custkey"),
            ("part", "partkey"),
            ("supplier", "suppkey"),
        ]:
            keys = dataset.tables[table][key]
            assert len(np.unique(keys)) == len(keys)

    def test_partsupp_composite_key_unique(self, dataset):
        ps = dataset.tables["partsupp"]
        n_supp = dataset.rows("supplier")
        composite = ps["partkey"] * n_supp + ps["suppkey"]
        assert len(np.unique(composite)) == len(composite)
        assert len(composite) == dataset.rows("part") * SUPPLIERS_PER_PART

    def test_lineitem_foreign_keys_valid(self, dataset):
        li = dataset.tables["lineitem"]
        ps = dataset.tables["partsupp"]
        n_supp = dataset.rows("supplier")
        assert li["orderkey"].max() < dataset.rows("orders")
        assert li["partkey"].max() < dataset.rows("part")
        # Every (partkey, suppkey) pair must exist in partsupp.
        ps_keys = set((ps["partkey"] * n_supp + ps["suppkey"]).tolist())
        li_keys = set((li["partkey"] * n_supp + li["suppkey"]).tolist())
        assert li_keys <= ps_keys

    def test_lineitem_orderkeys_sorted(self, dataset):
        # Q9's merge join relies on lineitem being clustered by orderkey.
        okeys = dataset.tables["lineitem"]["orderkey"]
        assert (np.diff(okeys) >= 0).all()

    def test_dates_in_range(self, dataset):
        li = dataset.tables["lineitem"]
        assert li["shipdate"].min() >= 0
        assert li["shipdate"].max() <= DATE_MAX + 122

    def test_invalid_scale_factor(self):
        with pytest.raises(ConfigError):
            generate(scale_factor=0)

    def test_load_into_creates_tables(self, dataset):
        platform = make_platform("local")
        process = platform.new_process()
        tables = dataset.load_into(process)
        assert set(tables) == set(dataset.tables)
        assert tables["lineitem"].nrows == dataset.rows("lineitem")


@pytest.fixture(scope="module", params=["local", "ddc", "teleport"])
def query_env(request, dataset):
    platform = make_platform(
        request.param, DdcConfig(compute_cache_bytes=1 * MIB)
    )
    process = platform.new_process()
    tables = dataset.load_into(process)
    ctx = platform.main_context(process)
    pushdown = "all" if request.param == "teleport" else None
    return QueryExecutor(ctx, pushdown=pushdown), tables, ctx


class TestQueryCorrectness:
    def test_qfilter(self, query_env, dataset):
        executor, tables, _ctx = query_env
        result = executor.execute(build_qfilter(tables))
        assert result.value == pytest.approx(reference_qfilter(dataset))

    def test_q6(self, query_env, dataset):
        executor, tables, _ctx = query_env
        result = executor.execute(build_q6(tables))
        assert result.value == pytest.approx(reference_q6(dataset))

    def test_q1(self, query_env, dataset):
        executor, tables, ctx = query_env
        result = executor.execute(build_q1(tables))
        expected = reference_q1(dataset)
        got = result.value.as_dict(ctx)
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value)

    def test_q3(self, query_env, dataset):
        executor, tables, _ctx = query_env
        result = executor.execute(build_q3(tables))
        expected = reference_q3(dataset)
        assert len(result.value) == len(expected)
        got_sorted = sorted(result.value, key=lambda kv: (-kv[1], kv[0]))
        for (gk, gv), (ek, ev) in zip(got_sorted, expected):
            assert gv == pytest.approx(ev)

    def test_q9(self, query_env, dataset):
        executor, tables, _ctx = query_env
        result = executor.execute(build_q9(tables))
        expected = reference_q9(dataset)
        got = dict(result.value)
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value)

    def test_q9_has_the_papers_operator_mix(self, query_env, dataset):
        executor, tables, _ctx = query_env
        plan = build_q9(tables)
        kinds = {op.kind for op in plan.operators}
        # Figure 10's Q9 breakdown: projection, hash join, merge join,
        # expression, aggregation (group).
        assert {"projection", "hashjoin", "mergejoin", "expression", "group"} <= kinds


class TestCrossPlatformTiming:
    def test_ddc_pays_and_teleport_recovers(self, dataset):
        times = {}
        for kind, pushdown in [("local", None), ("ddc", None), ("teleport", "all")]:
            platform = make_platform(kind, scaled_config(dataset.nbytes, cache_ratio=0.02))
            process = platform.new_process()
            tables = dataset.load_into(process)
            executor = QueryExecutor(platform.main_context(process), pushdown=pushdown)
            times[kind] = executor.execute(build_q9(tables)).time_ns
        assert times["ddc"] > 1.5 * times["local"]
        assert times["teleport"] < times["ddc"]
