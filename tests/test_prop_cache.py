"""Property-based tests for the page cache against a reference model."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import PageCache

VPNS = st.integers(min_value=0, max_value=30)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), VPNS),
        st.tuples(st.just("insert"), VPNS, st.booleans(), st.booleans()),
        st.tuples(
            st.sampled_from(["insert_run", "insert_absent_run", "first_cached"]),
            VPNS, st.integers(1, 12), st.booleans(), st.booleans(),
        ),
        st.tuples(st.just("invalidate"), VPNS),
        st.tuples(st.just("downgrade"), VPNS),
    ),
    max_size=60,
)


class ModelCache:
    """Straight-line reference implementation of the LRU contract."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()  # vpn -> [writable, dirty]

    def get(self, vpn):
        if vpn in self.entries:
            self.entries.move_to_end(vpn)
            return self.entries[vpn]
        return None

    def insert(self, vpn, writable, dirty):
        if vpn in self.entries:
            entry = self.entries[vpn]
            entry[0] = entry[0] or writable
            entry[1] = entry[1] or dirty
            self.entries.move_to_end(vpn)
            return []
        self.entries[vpn] = [writable, dirty]
        evicted = []
        while len(self.entries) > self.capacity:
            victim, (w, d) = self.entries.popitem(last=False)
            evicted.append((victim, d))
        return evicted

    def invalidate(self, vpn):
        self.entries.pop(vpn, None)

    def downgrade(self, vpn):
        if vpn in self.entries:
            self.entries[vpn][0] = False
            self.entries[vpn][1] = False


@given(capacity=st.integers(min_value=1, max_value=8), ops=OPS)
@settings(max_examples=200)
def test_cache_matches_reference_model(capacity, ops):
    cache = PageCache(capacity)
    model = ModelCache(capacity)
    for op in ops:
        kind = op[0]
        vpn = op[1]
        if kind == "get":
            real = cache.get(vpn)
            expected = model.get(vpn)
            assert (real is None) == (expected is None)
            if real is not None:
                assert [real.writable, real.dirty] == expected
        elif kind == "insert":
            _kind, vpn, writable, dirty = op
            real_evicted = cache.insert(vpn, writable, dirty)
            model_evicted = model.insert(vpn, writable, dirty)
            assert real_evicted == model_evicted
        elif kind == "insert_run":
            _kind, vpn, npages, writable, dirty = op
            expected = []
            for page in range(vpn, vpn + npages):
                expected += model.insert(page, writable, dirty)
            assert cache.insert_run(vpn, npages, writable, dirty) == expected
        elif kind == "insert_absent_run":
            _kind, vpn, npages, writable, dirty = op
            run = range(vpn, vpn + npages)
            if any(page in model.entries for page in run):
                continue
            expected = []
            for page in run:
                expected += model.insert(page, writable, dirty)
            old_victims = [victim for victim in expected if victim[0] not in run]
            assert expected[len(old_victims):] == [
                (page, dirty) for page in run[: len(expected) - len(old_victims)]
            ]
            assert cache.insert_absent_run(vpn, npages, writable, dirty) == (
                old_victims, len(expected) - len(old_victims)
            )
        elif kind == "first_cached":
            _kind, vpn, npages, _writable, _dirty = op
            cached = [page for page in range(vpn, vpn + npages) if page in model.entries]
            assert cache.first_cached(vpn, vpn + npages) == min(cached, default=vpn + npages)
        elif kind == "invalidate":
            cache.invalidate(vpn)
            model.invalidate(vpn)
        elif kind == "downgrade":
            cache.downgrade(vpn)
            model.downgrade(vpn)
        # Invariants after every step.
        assert len(cache) == len(model.entries)
        assert len(cache) <= capacity
    # Final residency identical, in identical LRU order.
    real_items = [(v, e.writable, e.dirty) for v, e in cache.resident_items()]
    model_items = [(v, w, d) for v, (w, d) in model.entries.items()]
    assert real_items == model_items


@given(
    capacity=st.integers(min_value=1, max_value=6),
    vpns=st.lists(VPNS, min_size=1, max_size=100),
)
@settings(max_examples=100)
def test_cache_never_exceeds_capacity(capacity, vpns):
    cache = PageCache(capacity)
    for vpn in vpns:
        cache.insert(vpn, writable=True)
        assert len(cache) <= capacity


@given(vpns=st.lists(VPNS, min_size=1, max_size=50))
@settings(max_examples=100)
def test_clear_accounts_for_every_page(vpns):
    cache = PageCache(100)
    inserted = set()
    for vpn in vpns:
        cache.insert(vpn, writable=True, dirty=True)
        inserted.add(vpn)
    dropped = cache.clear()
    assert {vpn for vpn, _dirty in dropped} == inserted
    assert all(dirty for _vpn, dirty in dropped)


@given(
    capacity=st.integers(1, 8),
    pages=st.lists(VPNS, max_size=20),
    start=VPNS,
    length=st.integers(0, 40),
)
@settings(max_examples=300, deadline=None)
def test_first_cached_is_the_smallest_cached_vpn(capacity, pages, start, length):
    """Spans shorter and longer than the cache (which is then scanned in
    LRU order, not vpn order) both give the smallest cached vpn."""
    cache = PageCache(capacity)
    for page in pages:
        cache.insert(page, writable=False)
    cached = [page for page in range(start, start + length) if page in cache]
    assert cache.first_cached(start, start + length) == min(cached, default=start + length)
