"""Tests for the physical operators (correctness on every platform)."""

import numpy as np
import pytest

from repro.db.expr import Col
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
from repro.db.operators.base import resolve
from repro.db.table import Table
from repro.ddc import make_platform
from repro.errors import ReproError
from repro.sim.config import DdcConfig
from repro.sim.units import MIB


@pytest.fixture(params=["local", "ddc", "teleport"])
def env(request):
    platform = make_platform(request.param, DdcConfig(compute_cache_bytes=1 * MIB))
    process = platform.new_process()
    rng = np.random.default_rng(13)
    table = Table.create(
        process,
        "t",
        {
            "key": np.arange(5000, dtype=np.int64),
            "value": rng.random(5000),
            "bucket": rng.integers(0, 7, size=5000),
        },
    )
    ctx = platform.main_context(process)
    return platform, process, table, ctx


def test_selection_returns_matching_positions(env):
    _platform, _process, table, ctx = env
    op = Selection(table, Col("value") < 0.25, out="sel")
    result = op.run(ctx, {})
    positions = result.read(ctx)
    expected = np.nonzero(table["value"].region.array < 0.25)[0]
    assert (positions == expected).all()


def test_selection_with_candidates_composes(env):
    _platform, _process, table, ctx = env
    env_map = {}
    env_map["first"] = Selection(table, Col("value") < 0.5, out="first").run(ctx, env_map)
    second = Selection(table, Col("bucket") == 3, out="second", candidates="first")
    positions = second.run(ctx, env_map).read(ctx)
    values = table["value"].region.array
    buckets = table["bucket"].region.array
    expected = np.nonzero((values < 0.5) & (buckets == 3))[0]
    assert (positions == expected).all()


def test_projection_gathers_at_candidates(env):
    _platform, _process, table, ctx = env
    env_map = {}
    env_map["sel"] = Selection(table, Col("bucket") == 1, out="sel").run(ctx, env_map)
    proj = Projection(table["value"], out="v", candidates="sel")
    values = proj.run(ctx, env_map).read(ctx)
    mask = table["bucket"].region.array == 1
    assert values == pytest.approx(table["value"].region.array[mask])


def test_projection_without_candidates_copies_column(env):
    _platform, _process, table, ctx = env
    values = Projection(table["key"], out="k").run(ctx, {}).read(ctx)
    assert (values == np.arange(5000)).all()


@pytest.mark.parametrize(
    "func,expected",
    [
        ("sum", lambda a: a.sum()),
        ("count", lambda a: len(a)),
        ("min", lambda a: a.min()),
        ("max", lambda a: a.max()),
        ("avg", lambda a: a.mean()),
    ],
)
def test_aggregates(env, func, expected):
    _platform, _process, table, ctx = env
    result = Aggregate(table["value"], func, out="agg").run(ctx, {})
    assert result == pytest.approx(expected(table["value"].region.array))


def test_aggregate_unknown_func_rejected(env):
    _platform, _process, table, _ctx = env
    with pytest.raises(ReproError):
        Aggregate(table["value"], "median", out="agg")


def test_aggregate_empty_min_is_none(env):
    _platform, process, table, ctx = env
    env_map = {"empty": Selection(table, Col("value") < -1, out="empty").run(ctx, {})}
    agg = Aggregate(table["value"], "min", out="m", candidates="empty")
    assert agg.run(ctx, env_map) is None


def test_expression_map(env):
    _platform, _process, table, ctx = env
    expr = Col("v") * 2.0 + 1.0
    env_map = {"v": Projection(table["value"], out="v").run(ctx, {})}
    out = ExpressionMap({"v": "v"}, expr, out="doubled").run(ctx, env_map)
    assert out.read(ctx) == pytest.approx(table["value"].region.array * 2.0 + 1.0)


def test_hashjoin_fk_join(env):
    _platform, process, table, ctx = env
    build = Table.create(
        process,
        "dim",
        {"key": np.arange(0, 5000, 7, dtype=np.int64)},
    )
    join = HashJoin(build=build["key"], probe=table["key"], out="j")
    result = join.run(ctx, {})
    build_pos = result.build.read(ctx)
    probe_pos = result.probe.read(ctx)
    build_keys = build["key"].region.array
    # Every probe match must pair equal keys.
    assert (build_keys[build_pos] == probe_pos).all()  # key == its own value here
    expected_matches = len(build_keys)
    assert len(result) == expected_matches


def test_hashjoin_rejects_duplicate_build_keys(env):
    _platform, process, table, ctx = env
    dup = Table.create(process, "dup", {"key": np.array([1, 1, 2], dtype=np.int64)})
    join = HashJoin(build=dup["key"], probe=table["key"], out="j")
    with pytest.raises(ReproError):
        join.run(ctx, {})


def test_hashjoin_empty_probe(env):
    _platform, process, table, ctx = env
    empty = Table.create(process, "e", {"key": np.empty(0, dtype=np.int64)})
    join = HashJoin(build=table["key"], probe=empty["key"], out="j")
    result = join.run(ctx, {})
    assert len(result) == 0


def test_mergejoin_matches_hashjoin(env):
    _platform, process, table, ctx = env
    left = Table.create(process, "l", {"key": np.arange(0, 5000, 3, dtype=np.int64)})
    merge = MergeJoin(left=left["key"], right=table["key"], out="m").run(ctx, {})
    hashed = HashJoin(build=left["key"], probe=table["key"], out="h").run(ctx, {})
    assert (merge.probe.read(ctx) == hashed.probe.read(ctx)).all()
    left_keys = left["key"].region.array
    assert (left_keys[merge.build.read(ctx)] == left_keys[hashed.build.read(ctx)]).all()


def test_mergejoin_rejects_unsorted(env):
    _platform, process, table, ctx = env
    unsorted = Table.create(process, "u", {"key": np.array([5, 1, 3], dtype=np.int64)})
    with pytest.raises(ReproError):
        MergeJoin(left=unsorted["key"], right=table["key"], out="m").run(ctx, {})


def test_group_aggregate_sums_per_group(env):
    _platform, _process, table, ctx = env
    grouped = GroupAggregate(table["bucket"], table["value"], "sum", out="g").run(ctx, {})
    got = grouped.as_dict(ctx)
    buckets = table["bucket"].region.array
    values = table["value"].region.array
    for bucket in np.unique(buckets):
        assert got[int(bucket)] == pytest.approx(values[buckets == bucket].sum())


@pytest.mark.parametrize("func", ["count", "min", "max"])
def test_group_aggregate_other_funcs(env, func):
    _platform, _process, table, ctx = env
    grouped = GroupAggregate(table["bucket"], table["value"], func, out="g").run(ctx, {})
    got = grouped.as_dict(ctx)
    buckets = table["bucket"].region.array
    values = table["value"].region.array
    reducer = {"count": lambda a: len(a), "min": np.min, "max": np.max}[func]
    for bucket in np.unique(buckets):
        assert got[int(bucket)] == pytest.approx(reducer(values[buckets == bucket]))


def test_topn_of_grouped_result(env):
    _platform, _process, table, ctx = env
    env_map = {}
    env_map["g"] = GroupAggregate(table["bucket"], table["value"], "sum", out="g").run(
        ctx, env_map
    )
    top = TopN("g", 3, out="t").run(ctx, env_map)
    full = sorted(env_map["g"].as_dict(ctx).items(), key=lambda kv: -kv[1])
    assert [k for k, _v in top] == [k for k, _v in full[:3]]


def test_resolve_dotted_reference(env):
    _platform, process, table, ctx = env
    build = Table.create(process, "d2", {"key": np.arange(0, 5000, 11, dtype=np.int64)})
    join = HashJoin(build=build["key"], probe=table["key"], out="j").run(ctx, {})
    env_map = {"j": join}
    assert resolve(env_map, "j.probe") is join.probe
    with pytest.raises(ReproError):
        resolve(env_map, "missing")
    with pytest.raises(ReproError):
        resolve(env_map, "j.nothing")
