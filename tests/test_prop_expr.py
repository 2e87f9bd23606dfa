"""Property-based tests: expression trees vs a direct numpy oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expr import Col, Const, Like

FINITE = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
ARRAYS = st.lists(FINITE, min_size=1, max_size=30).map(np.array)


@st.composite
def arith_expr(draw, depth=0):
    """Random arithmetic expression over columns a and b, plus its oracle."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.sampled_from(["a", "b", "const"]))
        if choice == "const":
            value = draw(FINITE)
            return Const(value), (lambda arrays, v=value: v)
        return Col(choice), (lambda arrays, c=choice: arrays[c])
    op = draw(st.sampled_from(["+", "-", "*"]))
    left_expr, left_fn = draw(arith_expr(depth=depth + 1))
    right_expr, right_fn = draw(arith_expr(depth=depth + 1))
    expr = left_expr._bin(op, right_expr)
    fn = {
        "+": lambda arrays: left_fn(arrays) + right_fn(arrays),
        "-": lambda arrays: left_fn(arrays) - right_fn(arrays),
        "*": lambda arrays: left_fn(arrays) * right_fn(arrays),
    }[op]
    return expr, fn


@given(data=st.data(), a=ARRAYS)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_numpy_oracle(data, a):
    b = a * 2.0 + 1.0
    arrays = {"a": a, "b": b}
    expr, oracle = data.draw(arith_expr())
    got = np.asarray(expr.evaluate(arrays), dtype=np.float64)
    expected = np.asarray(oracle(arrays), dtype=np.float64)
    assert np.allclose(got, expected, rtol=1e-9, atol=1e-9, equal_nan=True)


@given(a=ARRAYS, threshold=FINITE)
@settings(max_examples=100, deadline=None)
def test_comparisons_partition_the_array(a, threshold):
    arrays = {"a": a}
    below = (Col("a") < threshold).evaluate(arrays)
    at_least = (Col("a") >= threshold).evaluate(arrays)
    assert (below ^ at_least).all()  # exact partition


@given(a=ARRAYS, lo=FINITE, hi=FINITE)
@settings(max_examples=100, deadline=None)
def test_conjunction_is_intersection(a, lo, hi):
    arrays = {"a": a}
    both = ((Col("a") >= lo) & (Col("a") <= hi)).evaluate(arrays)
    expected = (a >= lo) & (a <= hi)
    assert (both == expected).all()


@given(
    tokens=st.lists(st.integers(0, 50), min_size=1, max_size=40).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    pattern=st.sets(st.integers(0, 50), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_like_equals_isin(tokens, pattern):
    arrays = {"t": tokens}
    got = Like("t", pattern).evaluate(arrays)
    assert (got == np.isin(tokens, sorted(pattern))).all()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_columns_reports_exactly_whats_read(data):
    expr, _oracle = data.draw(arith_expr())
    columns = expr.columns()
    arrays = {name: np.ones(3) for name in columns}
    expr.evaluate(arrays)  # must not need anything else
    assert columns <= {"a", "b"}
