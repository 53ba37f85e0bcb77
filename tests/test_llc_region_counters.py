"""The LLC's per-region ``free``/``pending`` counts stay equal to a scan.

Each (partition × set) region of :class:`PartitionedLlc` keeps live
counts of its ``FREE`` and ``PENDING_EVICT`` entries instead of scanning
its ways on every request.  These tests hold the counts against an
independent scan of the entries: after random lifecycle sequences, after
the fault injectors' direct state writes, and across a checkpoint round
trip — and check that ``validate`` (the ``--checked`` monitor's probe)
catches a desynchronised count.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.types import EntryState
from repro.llc.llc import PartitionedLlc, VictimInfo, WritebackOutcome
from repro.llc.partition import PartitionMap, PartitionSpec
from repro.robustness.faults import FaultKind, FaultPlan, install_fault_plan
from repro.sim.simulator import Simulator
from sim_helpers import shared_partition, small_config, write_trace_of

#: 4 sets × 4 ways: a shared partition on sets 0-1, ways 0-2, and a
#: private one on sets 0-2, way 3 — two regions per set row, and
#: uncovered cells on set 2 and set 3.
SHARED = PartitionSpec("shared", [0, 1], (0, 3), (0, 1))
PRIVATE = PartitionSpec("private", [0, 1, 2], (3, 4), (2,))
BLOCKS = {0: range(0, 8), 1: range(0, 8), 2: range(100, 106)}


def make_llc():
    return PartitionedLlc(4, 4, PartitionMap([SHARED, PRIVATE], 4, 4))


def scanned(llc, spec, set_index):
    """``(free, pending)`` of one region, counted cell by cell."""
    states = [llc.entry(set_index, way).state for way in spec.ways()]
    return states.count(EntryState.FREE), states.count(EntryState.PENDING_EVICT)


def assert_counts_match_scan(llc):
    for spec in (SHARED, PRIVATE):
        core = spec.cores[0]
        for position, set_index in enumerate(spec.sets):
            # Block ``position`` folds to ``spec.sets[position]``.
            free, pending = llc.region_availability(core, position)
            assert (free, pending) == scanned(llc, spec, set_index)
            assert llc.has_pending_evict(core, position) == (pending > 0)
    llc.validate()
    llc.validate(sets=[0, 1, 2])


operations = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "share", "evict", "writeback"]),
        st.sampled_from(sorted(BLOCKS)),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=120,
)


@given(ops=operations)
@settings(max_examples=150, deadline=None)
def test_counts_match_scan_after_every_lifecycle_step(ops):
    llc = make_llc()
    for op, core, pick, dirty_mask in ops:
        blocks = BLOCKS[core]
        block = blocks[pick % len(blocks)]
        if op == "allocate":
            resident = llc.valid_entry(block) or llc.pending_entry(block)
            if resident is None and llc.free_entry(core, block) is not None:
                llc.allocate(core, block)
        elif op == "share":
            if llc.probe(core, block) is not None:
                llc.add_owner(core, block)
        elif op == "evict":
            victim = llc.choose_victim(core, block)
            if victim is not None:
                owners = sorted(victim.owners)
                dirty = [o for i, o in enumerate(owners) if dirty_mask >> i & 1]
                freed = llc.begin_eviction(victim, dirty)
                assert freed == (not dirty)
        else:
            # Mostly an awaited writer's write-back (PENDING or FREED);
            # otherwise an arbitrary one (DRAM_DIRECT or UPDATED).
            pending = llc.pending_entries()
            if pending and dirty_mask:
                entry = pending[pick % len(pending)]
                writers = sorted(entry.pending_writers)
                core, block = writers[dirty_mask % len(writers)], entry.block
            llc.complete_writeback(core, block)
        assert_counts_match_scan(llc)


def test_writeback_outcomes_keep_counts_exact():
    """FREED, PENDING and DRAM_DIRECT each leave the counts right."""
    llc = make_llc()
    llc.allocate(0, 0)
    llc.add_owner(1, 0)
    victim = llc.choose_victim(0, 0)
    assert not llc.begin_eviction(victim, [0, 1])
    assert llc.region_availability(0, 0) == (2, 1)
    assert llc.complete_writeback(2, 0) is WritebackOutcome.DRAM_DIRECT
    assert_counts_match_scan(llc)
    assert llc.complete_writeback(0, 0) is WritebackOutcome.PENDING
    assert llc.region_availability(0, 0) == (2, 1)
    assert_counts_match_scan(llc)
    assert llc.complete_writeback(1, 0) is WritebackOutcome.FREED
    assert llc.region_availability(0, 0) == (3, 0)
    assert_counts_match_scan(llc)


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "kind", [FaultKind.SPURIOUS_EVICTION, FaultKind.CORRUPTED_LINE_STATE]
)
def test_fault_injectors_keep_counts_exact(kind):
    config = small_config(
        num_cores=2, partitions=[shared_partition(2, sets=(0, 1), ways=2)]
    )
    traces = {
        0: write_trace_of([0, 1, 2, 3, 0, 1, 2, 3]),
        1: write_trace_of([8, 9, 10, 11, 8, 9, 10, 11]),
    }
    sim = Simulator(config, traces)
    injector = install_fault_plan(sim.engine, FaultPlan.single(kind, 6))

    def check_after_injection(engine, slot):
        if injector.injected:
            llc = engine.system.llc
            for region in llc._regions:
                assert (region.free, region.pending) == region.scan()
            assert any(region.free for region in llc._regions)
            raise _Stop

    sim.engine.add_pre_slot_hook(check_after_injection)
    with pytest.raises(_Stop):
        sim.run()


def test_checkpoint_restore_rebuilds_counts(tmp_path):
    config = small_config(
        num_cores=2, partitions=[shared_partition(2, sets=(0, 1), ways=2)]
    )
    rng = random.Random(3)
    traces = {
        core: write_trace_of([rng.randrange(24) for _ in range(200)])
        for core in (0, 1)
    }
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=40)
    path = sim.checkpoint(tmp_path / "mid.ckpt")
    restored = Simulator.restore(path, config, traces)
    live = [(r.free, r.pending) for r in sim.system.llc._regions]
    loaded = [(r.free, r.pending) for r in restored.system.llc._regions]
    assert loaded == live
    assert loaded == [r.scan() for r in restored.system.llc._regions]
    # Non-trivial: a freshly built LLC has every region all-free.
    assert any(free < 2 for free, _ in loaded)
    restored.system.llc.validate()


@pytest.mark.parametrize("field", ["free", "pending"])
def test_validate_catches_desynced_count(field):
    llc = make_llc()
    llc.allocate(0, 1)
    llc.validate()
    region = llc._regions[1]
    setattr(region, field, getattr(region, field) + 1)
    with pytest.raises(SimulationError, match="region counts"):
        llc.validate()
    with pytest.raises(SimulationError, match="region counts"):
        llc.validate(sets=[0, 1, 2])


def test_allocation_takes_the_lowest_free_way():
    """Out-of-order frees do not change which way the next fill uses."""
    spec = PartitionSpec("p", [0], (0, 4), (0,))
    llc = PartitionedLlc(1, 4, PartitionMap([spec], 1, 4))
    for block in range(4):
        assert llc.allocate(0, block).way == block
    for way in (3, 1):
        victim = VictimInfo(
            set_index=0, way=way, block=way, owners=frozenset({0}), llc_dirty=False
        )
        assert llc.begin_eviction(victim, dirty_owners=())
    assert llc.region_availability(0, 10) == (2, 0)
    assert llc.free_entry(0, 10).way == 1
    assert llc.allocate(0, 10).way == 1
    assert llc.allocate(0, 11).way == 3
    assert llc.free_entry(0, 12) is None
