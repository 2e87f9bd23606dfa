"""Pluggable AST checkers for the repo-wide lint pass.

Each checker is an :class:`ast.NodeVisitor` over one module, sharing a
:class:`FileContext` (path, allowlist, the repo-wide set of frozen
dataclasses) and reporting :class:`~repro.analysis.diagnostics.Diagnostic`
records. New checkers register themselves with :func:`register` and are
picked up by ``python -m repro.analysis.lint`` automatically.

The enforced invariants are the codebase's determinism contract:

* ``LNT101`` — no host-clock reads outside the allowlisted bench helper;
* ``LNT102`` — no unseeded RNG anywhere in simulation code;
* ``LNT103`` — every cost-model result (network messages, page moves,
  coherence traffic) is consumed, i.e. charged to a virtual clock, never
  discarded as a bare statement;
* ``LNT104`` — frozen dataclasses stay frozen (no ``object.__setattr__``
  outside construction, no attribute stores on frozen instances);
* ``LNT105`` — every exception class derives from ``repro.errors``.
"""

import ast
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import (
    BUILTIN_EXCEPTION_BASES,
    COST_RETURNING_METHODS,
    LNT_DISCARDED_COST,
    LNT_EXC_HIERARCHY,
    LNT_FROZEN_MUTATION,
    LNT_UNSEEDED_RNG,
    LNT_WALL_CLOCK,
    call_name,
    dotted_name,
    is_unseeded_rng_call,
    is_wall_clock_call,
)

#: All registered checker classes, in registration order.
CHECKERS = []


def register(cls):
    """Class decorator adding a checker to the lint pass."""
    CHECKERS.append(cls)
    return cls


@dataclass
class FileContext:
    """Shared state for one linted file."""

    path: str
    #: Wall-clock allowlist: (path suffix, function qualname) pairs.
    allowlist: tuple = ()
    #: Names of ``@dataclass(frozen=True)`` classes across the linted tree.
    frozen_classes: frozenset = frozenset()
    diagnostics: list = field(default_factory=list)

    def add(self, rule, node, message):
        self.diagnostics.append(
            Diagnostic(
                rule=rule.id,
                message=message,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
            )
        )


class Checker(ast.NodeVisitor):
    """Base checker: scope tracking plus the reporting helper."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._scope = []

    # -- scope bookkeeping ------------------------------------------------
    @property
    def qualname(self):
        return ".".join(self._scope)

    @property
    def function_name(self):
        return self._scope[-1] if self._scope else ""

    def visit_ClassDef(self, node):
        self._scope.append(node.name)
        self.enter_class(node)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node):
        self._scope.append(node.name)
        self.enter_function(node)
        self.generic_visit(node)
        self.leave_function(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def enter_class(self, node):
        """Hook for subclasses (called before descending)."""

    def enter_function(self, node):
        """Hook for subclasses (called before descending)."""

    def leave_function(self, node):
        """Hook for subclasses (called after descending)."""

    def run(self, tree):
        self.visit(tree)


@register
class WallClockChecker(Checker):
    """LNT101: the host clock exists only inside the allowlisted helper.

    The allowlist names *functions*, not files: the check is exact. The
    shipped allowlist contains exactly the bench harness's
    ``wall_timer()``; everything else in ``src/repro`` must charge the
    virtual clock instead.
    """

    def _allowed_here(self):
        for path_suffix, qualname in self.ctx.allowlist:
            if self.ctx.path.endswith(path_suffix) and self.qualname == qualname:
                return True
        return False

    def visit_Call(self, node):
        dotted = call_name(node)
        if dotted is not None and is_wall_clock_call(dotted) and not self._allowed_here():
            self.ctx.add(
                LNT_WALL_CLOCK, node,
                f"call to {dotted} reads the host clock outside the allowlist",
            )
        self.generic_visit(node)


@register
class UnseededRngChecker(Checker):
    """LNT102: randomness must flow from an explicit seed."""

    def visit_Call(self, node):
        if is_unseeded_rng_call(node):
            self.ctx.add(
                LNT_UNSEEDED_RNG, node,
                f"call to {call_name(node)} draws from an unseeded generator",
            )
        self.generic_visit(node)


@register
class DiscardedCostChecker(Checker):
    """LNT103: cost-model results must be charged, not dropped.

    The cost model's methods (``Network.message_ps`` and friends) *return*
    virtual time; the caller must advance a clock by it. A bare expression
    statement discards the cost — the message was sent for free, which is
    exactly the accounting bug the virtual-clock discipline exists to
    prevent.
    """

    def visit_Expr(self, node):
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in COST_RETURNING_METHODS
        ):
            self.ctx.add(
                LNT_DISCARDED_COST, node,
                f"result of {value.func.attr}() is discarded; "
                "charge it to a virtual clock",
            )
        self.generic_visit(node)


@register
class FrozenMutationChecker(Checker):
    """LNT104: frozen dataclasses stay frozen.

    Two patterns are flagged: ``object.__setattr__`` outside a class's own
    ``__init__``/``__post_init__`` (the sanctioned construction escape
    hatch), and attribute stores on locals that were just built from a
    known frozen dataclass constructor.
    """

    _CONSTRUCTION = ("__init__", "__post_init__", "__new__")

    def __init__(self, ctx):
        super().__init__(ctx)
        self._frozen_locals = [set()]

    def enter_function(self, node):
        self._frozen_locals.append(set())

    def leave_function(self, node):
        self._frozen_locals.pop()

    def _is_frozen_constructor(self, value):
        if not isinstance(value, ast.Call):
            return False
        dotted = dotted_name(value.func)
        return dotted is not None and dotted.split(".")[-1] in self.ctx.frozen_classes

    def visit_Assign(self, node):
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and self._is_frozen_constructor(node.value)
        ):
            self._frozen_locals[-1].add(node.targets[0].id)
        for target in node.targets:
            self._check_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_store(node.target)
        self.generic_visit(node)

    def _check_store(self, target):
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in self._frozen_locals[-1]
        ):
            self.ctx.add(
                LNT_FROZEN_MUTATION, target,
                f"attribute store on frozen dataclass instance "
                f"{target.value.id!r}; use dataclasses.replace",
            )

    def visit_Call(self, node):
        dotted = call_name(node)
        if (
            dotted in ("object.__setattr__", "super().__setattr__")
            or (dotted is not None and dotted.endswith(".__setattr__"))
        ) and self.function_name not in self._CONSTRUCTION:
            self.ctx.add(
                LNT_FROZEN_MUTATION, node,
                "__setattr__ bypasses dataclass freezing outside construction",
            )
        self.generic_visit(node)


@register
class ExceptionHierarchyChecker(Checker):
    """LNT105: exceptions derive from ``repro.errors``.

    Callers rely on ``except ReproError`` to separate simulation-level
    failures from programming errors (and the pushdown runtime relies on
    it to separate infrastructure faults from user bugs), so a class
    subclassing ``Exception`` directly would silently escape both nets.
    """

    def visit_ClassDef(self, node):
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is not None and dotted.split(".")[-1] in BUILTIN_EXCEPTION_BASES:
                self.ctx.add(
                    LNT_EXC_HIERARCHY, node,
                    f"class {node.name} derives from builtin {dotted}; "
                    "derive from the repro.errors hierarchy",
                )
        # Track scope like the base class, then continue into the body.
        self._scope.append(node.name)
        self.enter_class(node)
        self.generic_visit(node)
        self._scope.pop()
