"""Tests for the repo-wide lint pass (repro.analysis.lint).

The final tree must be clean, and every escape hatch must be *live*:
removing the allowlist entry or any suppression makes the pass fail, and
a suppression that silences nothing is itself a finding (LNT900).
"""

import pathlib
import textwrap

import pytest

from repro.analysis.diagnostics import parse_suppressions
from repro.analysis.lint import (
    DEFAULT_ALLOWLIST,
    collect_frozen_classes,
    iter_python_files,
    lint_file,
    main,
    run_lint,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def lint_snippet(tmp_path, source, *, allowlist=(), frozen=frozenset(),
                 honor_suppressions=True):
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source))
    return lint_file(
        path, allowlist=allowlist, frozen_classes=frozen,
        honor_suppressions=honor_suppressions,
    )


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        assert run_lint([str(SRC)]) == []

    def test_allowlist_is_live(self):
        """Dropping the wall_timer allowlist entry must fail the pass."""
        findings = run_lint([str(SRC)], allowlist=())
        assert findings, "allowlist entry is vacuous: nothing relies on it"
        assert {d.rule for d in findings} == {"LNT101"}
        assert all(d.path.endswith("repro/bench/timing.py") for d in findings)

    def test_suppressions_are_live(self):
        """Every '# lint: disable' in the tree silences a real finding."""
        findings = run_lint([str(SRC)], honor_suppressions=False)
        assert findings, "suppression inventory is vacuous"
        # The tree's one suppression: the repro.errors hierarchy root.
        assert {d.rule for d in findings} == {"LNT105"}
        assert all(d.path.endswith("repro/errors.py") for d in findings)

    def test_default_allowlist_names_exact_functions(self):
        for path_suffix, qualname in DEFAULT_ALLOWLIST:
            assert path_suffix.endswith(".py")
            assert qualname  # function-level, never a bare file grant


# ----------------------------------------------------------------------
# Rule-by-rule fixtures
# ----------------------------------------------------------------------
class TestRules:
    def test_wall_clock_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time

            def measure():
                return time.monotonic()
            """)
        assert rules_of(findings) == ["LNT101"]

    def test_wall_clock_allowlisted_function(self, tmp_path):
        source = """\
            import time

            def sanctioned():
                return time.monotonic()

            def rogue():
                return time.monotonic()
            """
        findings = lint_snippet(
            tmp_path, source, allowlist=(("snippet.py", "sanctioned"),)
        )
        assert rules_of(findings) == ["LNT101"]
        assert findings[0].line == 7  # only rogue(), not sanctioned()

    def test_unseeded_rng_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import random
            import numpy as np

            def draw():
                a = random.random()
                b = np.random.rand(3)
                c = np.random.default_rng()
                return a, b, c
            """)
        assert rules_of(findings) == ["LNT102", "LNT102", "LNT102"]

    def test_seeded_rng_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed).random()
            """)
        assert findings == []

    def test_discarded_cost_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            def send(network, clock):
                network.message_ps(64)
                clock.advance(network.message_ps(64))
            """)
        assert rules_of(findings) == ["LNT103"]
        assert findings[0].line == 2

    def test_frozen_mutation_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Point:
                x: int

            def nudge():
                p = Point(1)
                p.x = 2
                return p

            def bypass(diag):
                object.__setattr__(diag, "line", 0)
            """, frozen=frozenset({"Point"}))
        assert rules_of(findings) == ["LNT104", "LNT104"]

    def test_setattr_allowed_in_construction(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            class Config:
                def __init__(self):
                    object.__setattr__(self, "pages", 4)

                def __post_init__(self):
                    object.__setattr__(self, "bytes", 4096)
            """)
        assert findings == []

    def test_exception_hierarchy_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            class BadError(ValueError):
                pass

            class AlsoBad(Exception):
                pass
            """)
        assert rules_of(findings) == ["LNT105", "LNT105"]

    def test_repro_error_subclass_clean(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.errors import ReproError

            class FineError(ReproError):
                pass
            """)
        assert findings == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = lint_snippet(tmp_path, "def broken(:\n")
        assert rules_of(findings) == ["LNT001"]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    SOURCE = """\
        import time

        def measure():
            return time.monotonic()  # lint: disable=LNT101
        """

    def test_suppression_silences_the_finding(self, tmp_path):
        assert lint_snippet(tmp_path, self.SOURCE) == []

    def test_no_suppressions_flag_reveals_it(self, tmp_path):
        findings = lint_snippet(tmp_path, self.SOURCE, honor_suppressions=False)
        assert rules_of(findings) == ["LNT101"]

    def test_stale_suppression_is_a_finding(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            def clean():
                return 1  # lint: disable=LNT101
            """)
        assert rules_of(findings) == ["LNT900"]

    def test_wrong_rule_id_does_not_silence(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time

            def measure():
                return time.monotonic()  # lint: disable=LNT102
            """)
        # The real finding survives AND the mismatched suppression is stale.
        assert sorted(rules_of(findings)) == ["LNT101", "LNT900"]

    def test_parse_suppressions_multi_rule(self):
        parsed = parse_suppressions(
            "x = 1  # lint: disable=LNT101, LNT103\ny = 2\n"
        )
        assert parsed == {1: {"LNT101", "LNT103"}}


# ----------------------------------------------------------------------
# Helpers and the CLI
# ----------------------------------------------------------------------
class TestInfrastructure:
    def test_iter_python_files_expands_directories(self, tmp_path):
        (tmp_path / "a.py").write_text("")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("")
        (sub / "note.txt").write_text("")
        files = iter_python_files([str(tmp_path)])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_collect_frozen_classes(self, tmp_path):
        (tmp_path / "m.py").write_text(textwrap.dedent("""\
            import dataclasses
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Frozen:
                x: int

            @dataclasses.dataclass(frozen=True)
            class AlsoFrozen:
                y: int

            @dataclass
            class Mutable:
                z: int
            """))
        frozen = collect_frozen_classes(iter_python_files([str(tmp_path)]))
        assert frozen == frozenset({"Frozen", "AlsoFrozen"})

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def ok():\n    return 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\n\ndef bad():\n    return time.time()\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "LNT101" in out

    def test_main_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("PD101", "PD106", "LNT101", "LNT105", "LNT900"):
            assert rule_id in out
