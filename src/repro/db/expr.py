"""Vectorised expression trees for predicates and computed columns.

Expressions are built with normal Python operators on :class:`Col` /
:class:`Const` leaves::

    predicate = (Col("shipdate") < 9000) & (Col("discount") >= 0.05)
    profit = Col("extendedprice") * (Const(1.0) - Col("discount"))

``evaluate`` computes real values over numpy arrays; ``ops_per_row``
estimates the CPU work an operator charges per input row.
"""

import operator

import numpy as np

from repro.errors import ReproError

_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": np.floor_divide,
    "%": np.mod,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "&": np.logical_and,
    "|": np.logical_or,
}


class Expr:
    """Base expression node."""

    def columns(self):
        """Names of the base columns this expression reads."""
        raise NotImplementedError

    def evaluate(self, arrays):
        """Compute the expression over {column: numpy array}."""
        raise NotImplementedError

    def ops_per_row(self):
        """Approximate CPU operations per row (for cost charging)."""
        raise NotImplementedError

    # Operator sugar -----------------------------------------------------
    def _bin(self, op, other):
        if not isinstance(other, Expr):
            other = Const(other)
        return BinOp(op, self, other)

    def __add__(self, other):
        return self._bin("+", other)

    def __radd__(self, other):
        return Const(other)._bin("+", self)

    def __sub__(self, other):
        return self._bin("-", other)

    def __rsub__(self, other):
        return Const(other)._bin("-", self)

    def __mul__(self, other):
        return self._bin("*", other)

    def __rmul__(self, other):
        return Const(other)._bin("*", self)

    def __truediv__(self, other):
        return self._bin("/", other)

    def __floordiv__(self, other):
        return self._bin("//", other)

    def __mod__(self, other):
        return self._bin("%", other)

    def __lt__(self, other):
        return self._bin("<", other)

    def __le__(self, other):
        return self._bin("<=", other)

    def __gt__(self, other):
        return self._bin(">", other)

    def __ge__(self, other):
        return self._bin(">=", other)

    def __eq__(self, other):  # noqa: D105 - intentional expression builder
        return self._bin("==", other)

    def __ne__(self, other):
        return self._bin("!=", other)

    def __and__(self, other):
        return self._bin("&", other)

    def __or__(self, other):
        return self._bin("|", other)

    def __invert__(self):
        return Not(self)

    __hash__ = None  # expression equality builds a node, not a bool


class Col(Expr):
    """Reference to a base column by name."""

    def __init__(self, name):
        self.name = name

    def columns(self):
        return {self.name}

    def evaluate(self, arrays):
        try:
            return arrays[self.name]
        except KeyError:
            raise ReproError(
                f"expression references unknown column {self.name!r}; "
                f"available: {sorted(arrays)}"
            ) from None

    def ops_per_row(self):
        return 1

    def __repr__(self):
        return f"Col({self.name!r})"


class Const(Expr):
    """A constant value."""

    def __init__(self, value):
        self.value = value

    def columns(self):
        return set()

    def evaluate(self, arrays):
        return self.value

    def ops_per_row(self):
        return 0

    def __repr__(self):
        return f"Const({self.value!r})"


class BinOp(Expr):
    """A binary operation over two sub-expressions."""

    def __init__(self, op, left, right):
        if op not in _BINOPS:
            raise ReproError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self):
        return self.left.columns() | self.right.columns()

    def evaluate(self, arrays):
        return _BINOPS[self.op](self.left.evaluate(arrays), self.right.evaluate(arrays))

    def ops_per_row(self):
        return 1 + self.left.ops_per_row() + self.right.ops_per_row()

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Not(Expr):
    """Logical negation."""

    def __init__(self, inner):
        self.inner = inner

    def columns(self):
        return self.inner.columns()

    def evaluate(self, arrays):
        return np.logical_not(self.inner.evaluate(arrays))

    def ops_per_row(self):
        return 1 + self.inner.ops_per_row()

    def __repr__(self):
        return f"~{self.inner!r}"


class Like(Expr):
    """Substring match over an integer-coded 'token' column.

    String columns in this scaled-down DBMS are dictionary-encoded integer
    token arrays; ``Like`` checks membership of the token in a match set —
    the analogue of TPC-H's ``p_name like '%green%'``.
    """

    def __init__(self, column, matching_tokens):
        self.column = column if isinstance(column, Expr) else Col(column)
        self.matching_tokens = np.asarray(sorted(matching_tokens))

    def columns(self):
        return self.column.columns()

    def evaluate(self, arrays):
        values = self.column.evaluate(arrays)
        return np.isin(values, self.matching_tokens)

    def ops_per_row(self):
        # Binary search in the match set approximates substring scanning.
        return 4 + self.column.ops_per_row()

    def __repr__(self):
        return f"Like({self.column!r}, {len(self.matching_tokens)} tokens)"
