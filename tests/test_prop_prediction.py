"""Property: the next-miss prediction equals what the live core then does.

``TraceDrivenCore.predict_next_bus_event`` answers from the live L2
alone when the next record misses it (inclusion makes that the miss of
the whole private stack) and replays a clone otherwise.  Either way the
answer must be the cycle a live ``advance`` then blocks at — or its
finish time — and the call must leave the core and its stack exactly as
it found them.  The cases cover warm stacks with and without L1s,
compute gaps, mixed hits and misses, and cores paused mid-record with
the compute gap already consumed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import AccessType
from repro.cpu.core import CoreState, TraceDrivenCore
from repro.cpu.private_stack import PrivateStack, PrivateStackConfig
from repro.robustness.checkpoint import _core_state, _stack_state
from repro.workloads.trace import MemoryTrace, TraceRecord

LINE = 64
HORIZON = 1 << 62

CONFIGS = [
    PrivateStackConfig(l1_sets=1, l1_ways=2, l2_sets=2, l2_ways=4),
    PrivateStackConfig(l1_sets=2, l1_ways=1, l2_sets=4, l2_ways=2),
    PrivateStackConfig(l1_sets=0, l2_sets=2, l2_ways=4),
]

ACCESSES = st.sampled_from([AccessType.READ, AccessType.WRITE, AccessType.INSTR])
BLOCKS = st.integers(min_value=0, max_value=11)

records = st.lists(
    st.tuples(BLOCKS, ACCESSES, st.sampled_from([0, 0, 1, 7, 40])),
    min_size=1,
    max_size=30,
)


def _footprint(core: TraceDrivenCore):
    return _core_state(core), _stack_state(core.stack)


def _live_next_event(core: TraceDrivenCore):
    """What the core does next when nothing outside it intervenes."""
    miss = core.advance(HORIZON)
    if miss is not None:
        return ("miss", miss.at_cycle)
    return ("finish", core.finish_time)


def _predicted(core: TraceDrivenCore):
    prediction = core.predict_next_bus_event()
    if prediction.miss_at is not None:
        return ("miss", prediction.miss_at)
    return ("finish", prediction.finish_at)


@given(
    config_index=st.integers(0, len(CONFIGS) - 1),
    warm=st.lists(st.tuples(BLOCKS, ACCESSES), max_size=16),
    trace_records=records,
    start=st.integers(0, 50),
    pauses=st.lists(st.integers(1, 120), max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_prediction_matches_the_live_replay(
    config_index, warm, trace_records, start, pauses
):
    stack = PrivateStack(0, CONFIGS[config_index])
    for block, access in warm:
        if stack.l2.contains(block):
            stack.access(block, access)
        else:
            stack.fill_from_llc(block, access)
    trace = MemoryTrace(
        [
            TraceRecord(block * LINE, access, compute_cycles=gap)
            for block, access, gap in trace_records
        ],
        name="prop",
    )
    core = TraceDrivenCore(0, stack, trace, line_size=LINE, start_cycle=start)
    # Walk the core forward in short steps, serving each miss, so the
    # prediction is also taken mid-record: after a horizon that cut a
    # compute gap (``_gap_applied`` true) or between two hits.
    for step in pauses:
        if core.state is CoreState.BLOCKED:
            record = trace[core.position]
            stack.fill_from_llc(record.address // LINE, record.access)
            core.resume(core.time + step)
        elif core.state is CoreState.RUNNING:
            core.advance(core.time + step)
    if core.state is CoreState.BLOCKED:
        assert core.predict_next_bus_event().miss_at is None
        return
    before = _footprint(core)
    predicted = _predicted(core)
    assert _footprint(core) == before
    assert _live_next_event(core) == predicted


def test_pending_gap_is_part_of_the_predicted_miss():
    """A core paused before its gap misses after it; one paused inside
    the gap (gap consumed) misses at its current time."""
    trace = MemoryTrace(
        [TraceRecord(5 * LINE, AccessType.READ, compute_cycles=100)], name="gap"
    )
    pending = TraceDrivenCore(0, PrivateStack(0), trace, line_size=LINE)
    assert pending.predict_next_bus_event().miss_at == 100
    paused = TraceDrivenCore(0, PrivateStack(0), trace, line_size=LINE)
    assert paused.advance(30) is None
    assert paused._gap_applied and paused.time == 100
    assert paused.predict_next_bus_event().miss_at == 100
    assert paused.advance(HORIZON).at_cycle == 100
