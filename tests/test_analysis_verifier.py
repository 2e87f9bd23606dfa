"""Tests for the pushdown verifier (repro.analysis.verifier).

Two halves: a seeded bad corpus that must be rejected with the expected
stable rule IDs, and a sweep over every real pushdown call site in the
repo (benchmarks, examples, src) that must produce zero false positives.
"""

import ast
import functools
import pathlib
import random
import threading
import time

import numpy as np
import pytest

from repro.analysis import verify_callable, verify_node
from repro.analysis.verifier import assert_pushdownable, is_pushdownable
from repro.db import QueryExecutor
from repro.ddc import make_platform
from repro.errors import PushdownVerificationError
from repro.micro import MicroSpec, run_micro
from repro.sim.config import scaled_config
from repro.sim.units import MIB
from repro.teleport.runtime import TeleportRuntime

REPO = pathlib.Path(__file__).resolve().parents[1]

_counter = 0


def rules_of(fn, severity="error"):
    return {d.rule for d in verify_callable(fn) if d.severity == severity}


# ----------------------------------------------------------------------
# Bad corpus: each banned construct maps to its stable rule ID
# ----------------------------------------------------------------------
class TestBadCorpus:
    def test_wall_clock_read(self):
        def bad(mctx):
            return time.time()

        assert "PD101" in rules_of(bad)
        assert not is_pushdownable(bad)

    def test_sleep(self):
        def bad(mctx):
            time.sleep(0.1)

        assert "PD101" in rules_of(bad)

    def test_unseeded_random(self):
        def bad(mctx):
            return random.random()

        assert "PD102" in rules_of(bad)

    def test_unseeded_default_rng(self):
        def bad(mctx):
            return np.random.default_rng().random()

        assert "PD102" in rules_of(bad)

    def test_seeded_default_rng_is_fine(self):
        def good(mctx):
            return np.random.default_rng(7).random()

        assert rules_of(good) == set()

    def test_file_io(self):
        def bad(mctx):
            with open("/tmp/x") as handle:
                return handle.read()

        assert "PD103" in rules_of(bad)

    def test_print_is_io(self):
        def bad(mctx):
            print("hello from the memory pool")

        assert "PD103" in rules_of(bad)

    def test_host_threading(self):
        def bad(mctx):
            worker = threading.Thread(target=lambda: None)
            worker.start()

        assert "PD104" in rules_of(bad)

    def test_inline_import_of_concurrency_module(self):
        def bad(mctx):
            import multiprocessing

            return multiprocessing

        assert "PD104" in rules_of(bad)

    def test_global_statement(self):
        def bad(mctx):
            global _counter
            _counter += 1

        assert "PD105" in rules_of(bad)

    def test_globals_builtin(self):
        def bad(mctx):
            globals()["_counter"] = 99

        assert "PD105" in rules_of(bad)

    def test_compute_local_closure_capture(self, teleport_env):
        platform, _process, _ctx = teleport_env

        def bad(mctx):
            return platform.stats.pushdown_calls

        assert "PD106" in rules_of(bad)

    def test_compute_local_partial_argument(self, teleport_env):
        platform, process, _ctx = teleport_env
        compkernel = platform.kernel_for(process)

        def takes_kernel(kernel, mctx):
            return kernel

        bad = functools.partial(takes_kernel, compkernel)
        assert "PD106" in rules_of(bad)

    def test_builtin_is_unverifiable_warning_not_error(self):
        findings = verify_callable(len)
        assert {d.rule for d in findings} == {"PD107"}
        assert all(d.severity == "warning" for d in findings)
        assert is_pushdownable(len)  # warnings are tolerated

    def test_assert_pushdownable_raises_with_diagnostics(self):
        def bad(mctx):
            time.sleep(1)
            return random.random()

        with pytest.raises(PushdownVerificationError) as excinfo:
            assert_pushdownable(bad)
        exc = excinfo.value
        assert {d.rule for d in exc.diagnostics} == {"PD101", "PD102"}
        assert "PD101" in str(exc) and "PD102" in str(exc)

    def test_verify_flag_rejects_at_call_time(self, teleport_env):
        _platform, _process, ctx = teleport_env

        def bad(mctx):
            return time.time()

        with pytest.raises(PushdownVerificationError):
            ctx.pushdown(bad, verify=True)
        # Without the flag the same function is not verified.
        assert isinstance(ctx.pushdown(bad), float)

    def test_verify_flag_accepts_clean_function(self, teleport_env):
        _platform, _process, ctx = teleport_env
        assert ctx.pushdown(lambda mctx: 42, verify=True) == 42


# ----------------------------------------------------------------------
# Zero false positives on everything the repo actually pushes down
# ----------------------------------------------------------------------
def _pushdown_fn_nodes():
    """(where, node) for every statically resolvable pushdown argument."""
    sites = []
    for root in ("src/repro", "benchmarks", "examples"):
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text())
            defs = {
                node.name: node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pushdown"
                    and node.args
                ):
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Lambda):
                    sites.append((f"{path}:{arg.lineno}", arg))
                elif isinstance(arg, ast.Name) and arg.id in defs:
                    sites.append((f"{path}:{defs[arg.id].lineno}", defs[arg.id]))
    return sites


class TestNoFalsePositives:
    def test_static_sweep_of_all_call_sites(self):
        sites = _pushdown_fn_nodes()
        # The repo has many real pushdown call sites; if this drops the
        # sweep has gone blind, not the repo clean.
        assert len(sites) >= 8
        offenders = {}
        for where, node in sites:
            errors = [d for d in verify_node(node, path=where) if d.severity == "error"]
            if errors:
                offenders[where] = [d.rule for d in errors]
        assert offenders == {}

    @pytest.fixture
    def verifying_pushdown(self, monkeypatch):
        """Route every runtime pushdown through the verifier first."""
        verified = []
        original = TeleportRuntime.pushdown

        def checked(self, ctx, fn, *args, **kwargs):
            assert_pushdownable(fn)
            verified.append(fn)
            return original(self, ctx, fn, *args, **kwargs)

        monkeypatch.setattr(TeleportRuntime, "pushdown", checked)
        return verified

    def test_micro_workload_functions_verify(self, verifying_pushdown):
        spec = MicroSpec(
            mem_space_bytes=2 * MIB,
            n_accesses=500,
            ops_per_access=50,
            compute_ops=100_000,
            step_size=100,
        )
        config = scaled_config(spec.mem_space_bytes, cache_ratio=0.05)
        # (teleport_coherence drives the two-phase PushdownSession API
        # directly and never goes through runtime.pushdown, so only the
        # process/thread ablations are intercepted here.)
        for mode in ("teleport_process", "teleport_thread", "teleport_coherence"):
            run_micro(spec, config, mode)
        assert len(verifying_pushdown) >= 2

    def test_db_operator_methods_verify(self, verifying_pushdown, teleport_env):
        from repro.db import PhysicalPlan
        from repro.db.expr import Col
        from repro.db.operators import Aggregate, Selection
        from repro.db.table import Table

        _platform, process, ctx = teleport_env
        rng = np.random.default_rng(11)
        table = Table.create(
            process, "t",
            {"key": np.arange(2_000, dtype=np.int64), "value": rng.random(2_000)},
        )
        plan = PhysicalPlan(
            "verify-sweep",
            [
                Selection(table, Col("value") < 0.5, out="sel"),
                Aggregate("sel", "count", out="result"),
            ],
            result="result",
        )
        result = QueryExecutor(ctx, pushdown="all").execute(plan)
        assert result.value > 0
        assert len(verifying_pushdown) == 2  # both operators went through


def test_examples_module_functions_verify():
    """The example scripts' module-level pushdown functions are clean."""
    import importlib.util

    pushed = {"quickstart": ["filtered_sum"], "fault_handling": ["summarize"]}
    offenders = {}
    for name, functions in pushed.items():
        spec = importlib.util.spec_from_file_location(
            f"_examples_{name}", REPO / "examples" / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for function in functions:
            fn = getattr(module, function)
            errors = [d for d in verify_callable(fn) if d.severity == "error"]
            if errors:
                offenders[fn.__qualname__] = [d.rule for d in errors]
    assert offenders == {}
