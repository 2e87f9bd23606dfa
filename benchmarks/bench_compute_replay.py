"""Figure-scale check of the compute cache's dense path.

``ComputeKernel.touch_dense`` classifies a dense batch's heads by
replaying the cache's LRU instead of serving them one by one. The
property tests check it on small draws; here whole figures, whose batches
hold 10^4-10^5 heads over full caches and spilling memory pools, run
twice, each in a fresh shared-run scope: as they are, and with
``touch_dense`` patched to the per-head ``touch_runs``. Their rows must be
equal at full precision. Nothing is archived.
"""

from unittest import mock

import pytest

from repro.bench.registry import run_figure
from repro.bench.workloads import shared_runs
from repro.ddc.kernels import ComputeKernel
from repro.mem.cache import PageCache


def per_head(self, heads, repeats, write, now):
    return self.touch_runs(heads.tolist(), repeats.tolist(), write, now)


@pytest.mark.parametrize("figure", ["fig03", "fig15", "fig18", "serve-policies"])
def test_replayed_dense_batches_match_per_head_loop(figure, effort):
    replay = mock.patch.object(PageCache, "replay", autospec=True, side_effect=PageCache.replay)
    with shared_runs(), replay as replayed:
        result = run_figure(figure, effort)
    with shared_runs(), mock.patch.object(ComputeKernel, "touch_dense", per_head):
        reference = run_figure(figure, effort)
    # The figure reaches the replay, and matches the loop bit for bit.
    assert replayed.called
    assert repr(result.rows) == repr(reference.rows)
