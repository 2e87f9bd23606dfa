"""Tests for the figure registry, CLI, and shared workload helpers."""

import re

import pytest

from repro.bench import FIGURES, run_figure, workloads
from repro.bench.__main__ import main as bench_main
from repro.bench.figures_db import run_fig01a_motivation, run_fig14_vs_ssd
from repro.bench.figures_systems import (
    run_fig03_ddc_overhead,
    run_fig11_code_table,
    run_fig13_effectiveness,
)
from repro.bench.workloads import effort_params, shared_runs, tpch_dataset, tpch_runs
from repro.ddc import make_platform
from repro.errors import ReproError

#: Every evaluation artefact of the paper must have a bench target.
EXPECTED_FIGURES = {
    "fig01a", "fig01b", "fig03", "fig06", "fig07", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig20", "fig21", "fig22",
}


def test_registry_covers_every_figure():
    assert EXPECTED_FIGURES <= set(FIGURES)


def test_registry_runners_are_documented():
    for figure_id, runner in FIGURES.items():
        assert runner.__doc__, f"{figure_id} runner lacks a docstring"


def test_run_figure_unknown_id():
    with pytest.raises(ReproError):
        run_figure("fig99")


def test_run_figure_executes(capsys):
    result = run_figure("fig11", effort="quick")
    assert result.figure == "fig11"
    assert result.rows


def test_cli_list(capsys):
    assert bench_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig13" in out
    assert "fig06" in out


def test_cli_runs_figure(capsys):
    assert bench_main(["fig11"]) == 0
    out = capsys.readouterr().out
    assert "fig11" in out
    assert "completed" in out


def test_cli_sanitize_reports_checks(capsys):
    assert bench_main(["fig20", "--sanitize"]) == 0
    assert "SWMR checks, " in capsys.readouterr().out


def test_cli_sanitize_fails_when_no_swmr_check_ran(capsys):
    # fig11 is a static table: no coherence protocol ever runs.
    assert bench_main(["fig11", "--sanitize"]) == 1
    assert "no SWMR check ran" in capsys.readouterr().err


def test_effort_params_validation():
    assert effort_params("quick")["tpch_sf"] > 0
    assert effort_params("full")["tpch_sf"] > effort_params("quick")["tpch_sf"]
    with pytest.raises(ReproError):
        effort_params("heroic")


def test_tpch_run_platforms_agree():
    dataset = tpch_dataset("quick", seed=5)
    values = set()
    for kind in ("local", "ddc", "teleport"):
        (result,) = tpch_runs(dataset, kind, ("Q6",))
        values.add(round(result.value, 6))
    assert len(values) == 1


def test_tpch_run_teleport_gets_default_pushdown():
    dataset = tpch_dataset("quick", seed=5)
    (result,) = tpch_runs(dataset, "teleport", ("Q6",))
    assert any(profile.pushed_down for profile in result.profiles)


@pytest.fixture
def builds(monkeypatch):
    """The kind of every platform the shared run path builds, in order."""
    built = []

    def counted(kind, config=None):
        built.append(kind)
        return make_platform(kind, config)

    monkeypatch.setattr(workloads, "make_platform", counted)
    return built


def test_fig03_reads_fig13s_runs_inside_a_scope(builds):
    cold = run_fig03_ddc_overhead()
    # Per kind: one TPC-H session (Q9, Q3, Q6) and five engine runs.
    assert len(builds) == 2 * 6
    with shared_runs() as runs:
        run_fig13_effectiveness()
        made = len(builds)
        warm = run_fig03_ddc_overhead()
    assert len(builds) == made == 2 * 6 + 3 * 6
    assert runs.hits == 2 * 6
    assert warm.rows == cold.rows


def test_fig01a_reads_fig14s_runs_inside_a_scope(builds):
    cold = run_fig01a_motivation()
    assert run_fig01a_motivation().rows == cold.rows
    assert len(builds) == 6  # outside a scope every run is made again
    with shared_runs() as runs:
        run_fig14_vs_ssd()
        warm = run_fig01a_motivation()
    assert len(builds) == 9
    assert runs.hits == 3
    assert warm.rows == cold.rows


def test_scope_files_prefixes_and_ends_with_its_block(builds):
    dataset = tpch_dataset("quick", seed=5)
    with shared_runs() as runs:
        q6, q1 = tpch_runs(dataset, "local", ("Q6", "Q1"))
        # The first query of a fresh platform is the same run alone.
        assert tpch_runs(dataset, "local", ("Q6",))[0] is q6
        # A session's later query depends on what ran before it.
        assert tpch_runs(dataset, "local", ("Q1",))[0] is not q1
        with shared_runs() as inner:
            tpch_runs(dataset, "local", ("Q6",))
        assert inner.hits == 0
    assert runs.hits == 1
    assert builds == ["local"] * 3
    tpch_runs(dataset, "local", ("Q6",))
    assert len(builds) == 4


def test_scope_generates_each_tpch_dataset_once():
    with shared_runs() as runs:
        dataset = tpch_dataset("quick", seed=5)
        assert tpch_dataset("quick", seed=5) is dataset
        assert tpch_dataset("quick", seed=6) is not dataset
        assert not dataset.tables["lineitem"]["quantity"].flags.writeable
    assert runs.hits == 0
    assert tpch_dataset("quick", seed=5) is not dataset


def test_cli_says_how_many_shared_runs_a_figure_reused(capsys):
    assert bench_main(["fig14", "fig01a"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"\[fig14 completed in \d+\.\ds wall, 0 shared runs reused\]", out)
    assert re.search(r"\[fig01a completed in \d+\.\ds wall, 3 shared runs reused\]", out)


def test_code_table_counts_real_source():
    result = run_fig11_code_table()
    hashjoin = result.row(system="DBMS", operator="HashJoin")
    assert 10 < hashjoin["pushed_loc"] <= 100
