"""Tests for the figure registry, CLI, and shared workload helpers."""

import pytest

from repro.bench import FIGURES, run_figure
from repro.bench.__main__ import main as bench_main
from repro.bench.figures_systems import run_fig11_code_table
from repro.bench.workloads import effort_params, tpch_dataset, tpch_run
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
        run = tpch_run(dataset, kind)
        values.add(round(run.run("Q6").value, 6))
    assert len(values) == 1


def test_tpch_run_teleport_gets_default_pushdown():
    dataset = tpch_dataset("quick", seed=5)
    run = tpch_run(dataset, "teleport")
    result = run.run("Q6")
    assert any(profile.pushed_down for profile in result.profiles)


def test_code_table_counts_real_source():
    result = run_fig11_code_table()
    hashjoin = result.row(system="DBMS", operator="HashJoin")
    assert 10 < hashjoin["pushed_loc"] <= 100
