"""Tests for the virtual clock (integer picoseconds)."""

import pytest

from repro.errors import ConfigError
from repro.sim.clock import VirtualClock


def test_starts_at_zero_by_default():
    assert VirtualClock().now == 0


def test_starts_at_given_time():
    assert VirtualClock(42_500).now == 42_500


def test_negative_start_rejected():
    with pytest.raises(ConfigError):
        VirtualClock(-1)


@pytest.mark.parametrize("ps", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_start_rejected(ps):
    with pytest.raises(ConfigError):
        VirtualClock(ps)


@pytest.mark.parametrize("ps", [42.0, 42.5, True])
def test_float_and_bool_start_rejected(ps):
    with pytest.raises(ConfigError):
        VirtualClock(ps)


def test_advance_accumulates():
    clock = VirtualClock()
    clock.advance(10_000)
    clock.advance(2_500)
    assert clock.now == 12_500


def test_advance_returns_new_time():
    clock = VirtualClock(5)
    assert clock.advance(5) == 10


def test_negative_advance_rejected():
    clock = VirtualClock()
    with pytest.raises(ConfigError):
        clock.advance(-1)


@pytest.mark.parametrize("ps", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_advance_rejected(ps):
    """NaN passes a plain ``ps < 0`` guard; the clock must still reject it."""
    clock = VirtualClock(5)
    with pytest.raises(ConfigError):
        clock.advance(ps)
    assert clock.now == 5  # rejected before the add


@pytest.mark.parametrize("ps", [1.0, 0.5, True, False])
def test_float_and_bool_advance_rejected(ps):
    """A float cost was never rounded to ps; a bool is not a duration."""
    clock = VirtualClock(5)
    with pytest.raises(ConfigError):
        clock.advance(ps)
    assert clock.now == 5


@pytest.mark.parametrize("ps", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_advance_to_rejected(ps):
    clock = VirtualClock(5)
    with pytest.raises(ConfigError):
        clock.advance_to(ps)
    assert clock.now == 5


@pytest.mark.parametrize("ps", [20.0, True])
def test_float_and_bool_advance_to_rejected(ps):
    clock = VirtualClock(5)
    with pytest.raises(ConfigError):
        clock.advance_to(ps)
    assert clock.now == 5


def test_advance_to_moves_forward():
    clock = VirtualClock(10)
    clock.advance_to(20)
    assert clock.now == 20


def test_advance_to_never_goes_backwards():
    clock = VirtualClock(30)
    clock.advance_to(20)
    assert clock.now == 30


def test_join_takes_maximum():
    parent = VirtualClock(0)
    children = [VirtualClock(0) for _ in range(3)]
    for i, child in enumerate(children):
        child.advance(10 * (i + 1))
    parent.join(children)
    assert parent.now == 30


def test_join_with_slower_children_keeps_parent_time():
    parent = VirtualClock(100)
    child = VirtualClock(50)
    parent.join([child])
    assert parent.now == 100
