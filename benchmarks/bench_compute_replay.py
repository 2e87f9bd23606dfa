"""Figure-scale checks of the fast paths that replace per-page loops.

``ComputeKernel.touch_dense`` classifies a dense batch's heads by
replaying the cache's LRU instead of serving them one by one; the
temporary context's ``setup`` and memory-side ``touch_sequential`` share
held PTEs and skip quiet pages instead of copying a PTE and making a
``memory_touch`` per page; and the swap device serves an all-resident
dense batch in one pass and a stream's hits between readahead windows
together. The property tests check them on small draws; here whole
figures, whose batches hold 10^4-10^5 heads over full caches
and spilling memory pools and whose pushdowns ship resident lists of
hundreds of pages, run twice, each in a fresh shared-run scope: as they
are, and with the fast paths patched to the per-page references. Their
rows must be equal at full precision, and so must the counters of every
``Stats`` each run creates. Nothing is archived.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest

from repro.bench.registry import run_figure
from repro.bench.workloads import shared_runs
from repro.ddc.kernels import ComputeKernel
from repro.mem.cache import PageCache
from repro.mem.page_table import PageTableSnapshot
from repro.mem.storage import SwapDevice
from repro.sim.stats import Stats
from repro.teleport.coherence import CoherenceProtocol
from tests import reference_protocol, reference_storage


def per_head(self, heads, repeats, write, now):
    return self.touch_runs(heads.tolist(), repeats.tolist(), write, now)


@contextmanager
def recorded_stats():
    """The list of every Stats created inside the block."""
    made = []
    init = Stats.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    with mock.patch.object(Stats, "__init__", recording_init):
        yield made


def run(figure, effort, patch=None):
    """The figure's rows and every Stats' counters, in a fresh scope."""
    with shared_runs(), recorded_stats() as made, patch or nullcontext():
        result = run_figure(figure, effort)
    return repr(result.rows), [stats.as_dict() for stats in made]


def spied(cls, name):
    """A patch that records calls to ``cls.name`` and passes them on."""
    return mock.patch.object(cls, name, autospec=True, side_effect=getattr(cls, name))


@pytest.mark.parametrize("figure", ["fig03", "fig15", "fig18", "serve-policies"])
def test_replayed_dense_batches_match_per_head_loop(figure, effort):
    with spied(PageCache, "replay") as replayed:
        result = run(figure, effort)
    reference = run(figure, effort, mock.patch.object(ComputeKernel, "touch_dense", per_head))
    # The figure reaches the replay, and matches the loop bit for bit.
    assert replayed.called
    assert result == reference


#: Each figure with whether it streams on the memory side; fig21's
#: pushdowns access pages at random only.
MEMORY_SIDE = [("fig13", True), ("fig21", False), ("serve-policies", True)]


@pytest.mark.parametrize("figure, streams", MEMORY_SIDE)
def test_memory_side_fast_paths_match_per_page_references(figure, streams, effort):
    with spied(PageTableSnapshot, "hold") as held, \
            spied(CoherenceProtocol, "touch_sequential") as streamed:
        result = run(figure, effort)
    reference = run(figure, effort, mock.patch.multiple(
        CoherenceProtocol,
        setup=reference_protocol.setup,
        touch_sequential=reference_protocol.touch_sequential,
    ))
    # The figure ships resident pages to a setup, and matches the
    # per-page references bit for bit.
    assert any(call.args[1] for call in held.call_args_list)
    assert streamed.called == streams
    assert result == reference


@pytest.mark.parametrize("figure", ["fig15", "fig14"])
def test_swap_fast_paths_match_per_page_references(figure, effort):
    with spied(SwapDevice, "touch_dense") as dense, \
            spied(SwapDevice, "touch_resident") as batched:
        result = run(figure, effort)
    reference = run(figure, effort, mock.patch.multiple(
        SwapDevice, touch_dense=per_head, touch_range=reference_storage.touch_range,
    ))
    # The figure reaches the swap's dense batches and batched hits, and
    # matches the per-head and per-page references bit for bit.
    assert dense.called and batched.called
    assert result == reference
