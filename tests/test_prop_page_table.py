"""The full page table and its snapshot against a per-page reference.

:class:`~repro.mem.page_table.PageTable` is a view of an address space's
live regions, and a snapshot of it keeps the region bounds as of the
snapshot plus a PTE for each page first read for update. A snapshot owns
the pages the compute pool held at setup through two shared PTEs, which
it copies before an update. The property test runs random sequences of
region allocs and frees, snapshots with held pages, and snapshot reads
and updates on it and on
:class:`tests.reference_page_table.ReferencePageTable`, which builds every
PTE at map time and copies one per held page, and requires every
observable flag to agree and the shared PTEs to keep their bits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddc import make_platform
from repro.mem.page import PageTableEntry
from repro.mem.region import AddressSpace
from repro.sim.units import MIB
from repro.teleport.coherence import CoherenceProtocol
from tests.reference_page_table import ReferencePageTable, assert_held_ptes_intact

PAGE = 4096
VPN_LIMIT = 48
VPNS = st.integers(min_value=0, max_value=VPN_LIMIT - 1)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 6)),
        st.tuples(st.just("free"), st.integers(0, 7)),
        st.tuples(
            st.just("snapshot"),
            # The compute pool's resident list: distinct vpns, each held
            # writable or read-only.
            st.lists(st.tuples(VPNS, st.booleans()), unique_by=lambda pair: pair[0], max_size=12),
        ),
        st.tuples(
            st.just("snap_get"), VPNS,
            st.sampled_from(["read", "invalidate", "downgrade", "dirty"]),
        ),
        st.tuples(st.just("snap_ensure"), VPNS),
        st.tuples(st.just("finish")),
    ),
    max_size=50,
)


class Space:
    """The full table under test: an address space's, fed by its allocs
    and frees."""

    def __init__(self):
        self.space = AddressSpace(PAGE)
        self.table = self.space.full_table
        self.regions = []

    def alloc(self, npages):
        region = self.space.alloc(self.space.unique_name("r"), npages * PAGE)
        self.regions.append(region)
        return region.start_vpn

    def free(self, index):
        if self.regions:
            self.space.free(self.regions.pop(index % len(self.regions)))

    def mapped(self, vpn):
        return self.table.snapshot().maps(vpn, vpn)

    @staticmethod
    def hold(snap, resident):
        snap.hold(resident)


class Reference:
    """The eager table, mapping regions where the address space would."""

    def __init__(self):
        self.table = ReferencePageTable()
        self.regions = []
        self.next_vpn = 0

    def alloc(self, npages):
        start = self.next_vpn
        self.table.map_range(start, npages)
        self.regions.append((start, npages))
        self.next_vpn += npages + 1  # one guard page, as AddressSpace leaves
        return start

    def free(self, index):
        if self.regions:
            self.table.unmap_range(*self.regions.pop(index % len(self.regions)))

    def mapped(self, vpn):
        return self.table.get(vpn) is not None

    @staticmethod
    def hold(snap, resident):
        for vpn, writable in resident:
            pte = snap.get(vpn)
            if pte is not None:
                update(pte, "invalidate" if writable else "downgrade")


def flags(pte):
    return None if pte is None else (pte.present, pte.writable, pte.dirty)


def table_state(model):
    return len(model.table), [model.mapped(vpn) for vpn in range(VPN_LIMIT + 8)]


def snapshot_state(snap):
    """What a snapshot's users read: ``peek`` and the owned PTEs."""
    return (
        [flags(snap.peek(vpn)) for vpn in range(VPN_LIMIT + 8)],
        [(vpn, flags(pte)) for vpn, pte in snap.owned_entries()],
    )


def update(pte, action):
    if action == "invalidate":
        pte.present = False
        pte.writable = False
    elif action == "downgrade":
        pte.writable = False
    elif action == "dirty":
        pte.dirty = True


def apply(op, model, snap):
    """Apply one op to one model; returns (result, snap)."""
    kind = op[0]
    result = None
    if kind == "alloc":
        result = model.alloc(op[1])
    elif kind == "free":
        model.free(op[1])
    elif kind == "snapshot":
        if snap is None:
            snap = model.table.snapshot()
            model.hold(snap, op[1])
    elif snap is None:
        pass
    elif kind == "snap_get":
        pte = snap.get(op[1])
        result = flags(pte)
        if pte is not None:
            update(pte, op[2])
    elif kind == "snap_ensure":
        result = flags(snap.ensure(op[1]))
    elif kind == "finish":
        snap = None
    return result, snap


@given(ops=OPS)
@settings(max_examples=300, deadline=None)
def test_page_table_matches_per_page_reference(ops):
    real, ref = Space(), Reference()
    real_snap = ref_snap = None
    for op in ops:
        real_result, real_snap = apply(op, real, real_snap)
        ref_result, ref_snap = apply(op, ref, ref_snap)
        assert real_result == ref_result, op
        assert table_state(real) == table_state(ref), op
        assert (real_snap is None) == (ref_snap is None)
        if real_snap is not None:
            assert snapshot_state(real_snap) == snapshot_state(ref_snap), op
    assert_held_ptes_intact()


def built_ptes(monkeypatch):
    """The list of every PageTableEntry constructed from now on."""
    built = []
    init = PageTableEntry.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(PageTableEntry, "__init__", counting_init)
    return built


def test_fresh_region_builds_no_pte(monkeypatch):
    # A 192 MiB alloc and a pushdown's setup leave the full table and t_mm
    # holding state per region, not per page.
    platform = make_platform("teleport")
    process = platform.new_process()
    built = built_ptes(monkeypatch)
    region = process.alloc("cell", 192 * MIB)
    assert region.npages == 192 * MIB // platform.config.page_size
    table = process.address_space.full_table
    assert len(table) == region.npages
    assert table.__slots__ == ("_regions",)
    protocol = CoherenceProtocol(platform, process)
    protocol.setup([])
    t_mm = protocol.t_mm
    assert built == []
    assert t_mm._starts == [region.start_vpn] and t_mm._ends == [region.end_vpn]
    assert not t_mm.owned_entries()
    assert t_mm.get(region.start_vpn).present
    assert len(built) == 1


def test_setup_with_resident_pages_builds_no_pte(monkeypatch):
    # A setup whose resident list names 512 pages owns them through the
    # two shared held PTEs; only an update copies one.
    platform = make_platform("teleport")
    process = platform.new_process()
    region = process.alloc("cell", 4 * MIB)
    resident = [(region.start_vpn + 2 * page, page % 3 == 0) for page in range(512)]
    built = built_ptes(monkeypatch)
    protocol = CoherenceProtocol(platform, process)
    cost = protocol.setup(resident)
    t_mm = protocol.t_mm
    assert built == []
    config = platform.config
    assert cost == config.context_base_ps + 512 * config.pte_clone_ps
    assert [vpn for vpn, _pte in t_mm.owned_entries()] == [vpn for vpn, _held in resident]
    assert flags(t_mm.peek(region.start_vpn)) == (False, False, False)
    assert flags(t_mm.peek(region.start_vpn + 2)) == (True, False, False)
    assert built == []
    t_mm.get(region.start_vpn + 2).dirty = True
    t_mm.ensure(region.start_vpn).present = True
    assert len(built) == 2
    assert flags(t_mm.peek(region.start_vpn + 2)) == (True, False, True)
    assert flags(t_mm.peek(region.start_vpn)) == (True, False, False)
    assert_held_ptes_intact()
