"""Tests for plans, the executor, profiling, and the intensity planner."""

import numpy as np
import pytest

from repro.db import IntensityPlanner, PhysicalPlan, QueryExecutor
from repro.db.expr import Col
from repro.db.operators import Aggregate, Projection, Selection
from repro.db.table import Table
from repro.ddc import make_platform
from repro.errors import ReproError
from repro.sim.config import DdcConfig
from repro.sim.units import KIB


def make_table(process, rows=20_000, seed=3):
    rng = np.random.default_rng(seed)
    return Table.create(
        process,
        "t",
        {
            "key": np.arange(rows, dtype=np.int64),
            "value": rng.random(rows),
        },
    )


def simple_plan(table):
    return PhysicalPlan(
        "simple",
        [
            Selection(table, Col("value") < 0.5, out="sel"),
            Projection(table["value"], out="v", candidates="sel"),
            Aggregate("v", "sum", out="result"),
        ],
        result="result",
    )


def pushed_labels(result):
    return {profile.name for profile in result.profiles if profile.pushed_down}


@pytest.fixture
def env():
    platform = make_platform("teleport", DdcConfig(compute_cache_bytes=64 * KIB))
    process = platform.new_process()
    table = make_table(process)
    ctx = platform.main_context(process)
    return platform, process, table, ctx


class TestPlan:
    def test_plan_requires_operators(self):
        with pytest.raises(ReproError):
            PhysicalPlan("empty", [], result=None)

    def test_plan_rejects_duplicate_labels(self, env):
        _platform, _process, table, _ctx = env
        with pytest.raises(ReproError):
            PhysicalPlan(
                "dup",
                [
                    Selection(table, Col("value") < 0.5, out="sel"),
                    Selection(table, Col("value") < 0.2, out="sel"),
                ],
                result="sel",
            )

    def test_len_counts_operators(self, env):
        _platform, _process, table, _ctx = env
        assert len(simple_plan(table)) == 3


class TestExplain:
    def test_explain_lists_operators_and_placement(self, env):
        _platform, _process, table, _ctx = env
        plan = simple_plan(table)
        text = plan.explain(pushdown={"selection"})
        assert "plan 'simple'" in text
        assert "selection:sel" in text
        assert "[memory pool ]" in text
        assert "[compute pool]" in text
        assert text.count("\n") >= 3

    def test_explain_without_pushdown_all_compute(self, env):
        _platform, _process, table, _ctx = env
        text = simple_plan(table).explain()
        assert "[memory pool ]" not in text


class TestExecutor:
    def test_executes_and_returns_value(self, env):
        _platform, _process, table, ctx = env
        result = QueryExecutor(ctx).execute(simple_plan(table))
        values = table["value"].region.array
        assert result.value == pytest.approx(values[values < 0.5].sum())
        assert result.time_ns > 0
        assert result.plan_name == "simple"

    def test_profiles_one_per_operator(self, env):
        _platform, _process, table, ctx = env
        result = QueryExecutor(ctx).execute(simple_plan(table))
        assert len(result.profiles) == 3
        assert [p.kind for p in result.profiles] == [
            "selection",
            "projection",
            "aggregation",
        ]
        assert all(p.time_ns > 0 for p in result.profiles)
        assert not any(p.pushed_down for p in result.profiles)

    def test_pushdown_all(self, env):
        platform, _process, table, ctx = env
        result = QueryExecutor(ctx, pushdown="all").execute(simple_plan(table))
        assert all(p.pushed_down for p in result.profiles)
        assert platform.stats.pushdown_calls == 3

    def test_pushdown_by_kind(self, env):
        platform, _process, table, ctx = env
        result = QueryExecutor(ctx, pushdown={"selection"}).execute(simple_plan(table))
        assert pushed_labels(result) == {"selection:sel"}

    def test_pushdown_by_label(self, env):
        _platform, _process, table, ctx = env
        result = QueryExecutor(ctx, pushdown={"projection:v", "aggregation"}).execute(
            simple_plan(table)
        )
        assert pushed_labels(result) == {"projection:v", "aggregation:result"}
        # An operator's output name does not select it.
        result = QueryExecutor(ctx, pushdown={"v", "result"}).execute(simple_plan(table))
        assert pushed_labels(result) == set()

    def test_pushdown_same_answer_as_inline(self, env):
        platform, _process, table, ctx = env
        inline = QueryExecutor(ctx).execute(simple_plan(table))
        pushed = QueryExecutor(ctx, pushdown="all").execute(simple_plan(table))
        assert pushed.value == pytest.approx(inline.value)

    def test_bad_pushdown_spec_rejected(self, env):
        _platform, _process, _table, ctx = env
        for spec in (42, True, lambda op: True):
            with pytest.raises(ReproError):
                QueryExecutor(ctx, pushdown=spec)

    def test_requires_physical_plan(self, env):
        _platform, _process, _table, ctx = env
        with pytest.raises(ReproError):
            QueryExecutor(ctx).execute("not a plan")

    def test_breakdown_by_kind_sums_to_total(self, env):
        _platform, _process, table, ctx = env
        result = QueryExecutor(ctx).execute(simple_plan(table))
        assert sum(result.breakdown_by_kind().values()) == pytest.approx(result.time_ns)

    def test_remote_traffic_recorded_per_operator(self, env):
        _platform, _process, table, ctx = env
        result = QueryExecutor(ctx).execute(simple_plan(table))
        selection = result.profiles[0]
        assert selection.name == "selection:sel"
        assert selection.remote_bytes == selection.remote_pages * ctx.config.page_size > 0


class TestIntensityPlanner:
    def planner(self):
        """A planner over the simple plan's profile on a fresh DDC."""
        platform = make_platform("ddc", DdcConfig(compute_cache_bytes=64 * KIB))
        process = platform.new_process()
        table = make_table(process)
        ctx = platform.main_context(process)
        return IntensityPlanner(QueryExecutor(ctx).execute(simple_plan(table)).profiles)

    def test_planner_ranks_by_intensity(self):
        planner = self.planner()
        labels = planner.ranked_labels()
        intensities = [planner.intensity_of(label) for label in labels]
        assert intensities == sorted(intensities, reverse=True)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ReproError):
            IntensityPlanner([])

    def test_unknown_label_rejected(self):
        planner = self.planner()
        with pytest.raises(ReproError):
            planner.intensity_of("nope")
