"""Crash-consistent simulation checkpoints.

A checkpoint is a versioned, deterministic snapshot of the *complete*
mutable state of one :class:`~repro.sim.simulator.Simulator` — the
engine's slot cursor and completed-request log, every core's replay
position and private-cache contents, the LLC's entries, directory and
per-set replacement state, the bus buffers and arbiters, the DRAM
counters, the set sequencers (including queue identity inside the QLT
pool), the shared replacement-policy RNG stream, the per-slot sampler
arrays and the in-memory event log.  Restoring it into a freshly built
simulator of the same configuration and traces puts the system into a
state from which the run continues *bit-identically*: a run killed at
any instant and resumed from its last checkpoint produces the same
report and the same metrics export as an uninterrupted run.

Checkpoints are for one explicitly requested long simulation
(``simulate(..., checkpoint_path=...)``, ``repro-llc simulate
--checkpoint PATH``).  Campaigns resume at task granularity through
their manifests instead.

Design notes
------------

* **This module owns the format.**  Serialization deliberately reaches
  into the private attributes of the simulated components instead of
  spreading ``state_dict`` methods across twenty classes; the attribute
  inventory below *is* the checkpoint schema, and
  ``CHECKPOINT_VERSION`` must be bumped whenever any component gains or
  loses mutable state.
* **Restore mutates in place.**  The LLC's hot-path regions hold
  references to the very :class:`~repro.llc.llc.LlcEntry` objects in
  ``_entries``; load therefore mutates the existing entry objects and
  rebuilds the block indexes and the regions' derived ``free``/
  ``pending`` counts, rather than replacing the entries.
  The same reasoning applies to the System-level RNG: every stochastic
  policy aliases ``system.rng``, so one ``setstate`` restores them all.
* **Crash consistency.**  The file is written with
  :func:`repro.common.fileio.atomic_write_text` (tmp + fsync + rename +
  directory fsync) and carries a SHA-256 integrity hash over its
  canonical-JSON payload, so a reader sees either the previous complete
  checkpoint or the new one — never a torn hybrid — and a corrupted
  file is detected rather than silently restored.
* **Refusals.**  States that cannot round-trip raise
  :class:`~repro.common.errors.CheckpointError` up front: ``oracle``
  replacement policies (the victim chooser is an arbitrary caller
  callback), foreign pre/post-slot hooks (fault injectors keep private
  state), and attached event sinks (a streamed trace's side effects
  live outside the simulator).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.bus.buffers import (
    PendingRequest,
    PendingWritebackBuffer,
    WritebackEntry,
    WritebackReason,
)
from repro.cache.cacheset import CacheSet
from repro.cache.line import CacheLine
from repro.cache.replacement import (
    FifoPolicy,
    LruPolicy,
    MruPolicy,
    NmruPolicy,
    OraclePolicy,
    PlruTreePolicy,
    RandomPolicy,
    ReplacementPolicy,
    RoundRobinPolicy,
)
from repro.cache.sa_cache import SetAssociativeCache
from repro.common.errors import CheckpointError, ConfigurationError
from repro.common.fileio import (
    cleanup_stale_tmp,
    count_io,
    persist_text,
    read_text,
)
from repro.common.types import AccessType, EntryState, TransactionKind
from repro.cpu.core import CoreState, TraceDrivenCore
from repro.cpu.private_stack import PrivateStack
from repro.llc.llc import PartitionedLlc
from repro.sequencer.set_sequencer import SetSequencer
from repro.sim.cache import _canonical, _event_state, _load_event
from repro.workloads.trace import MemoryTrace

#: Bumped on any change to the payload layout below.
CHECKPOINT_VERSION = 2

#: File-format discriminator, so an unrelated JSON file is rejected
#: with a clear message instead of a cryptic missing-key error.
CHECKPOINT_KIND = "repro-sim-checkpoint"

#: The default checkpoint interval, in slots.  A save costs O(live state +
#: completed requests), so the interval bounds the steady-state
#: overhead (benchmarked < 10% in
#: ``benchmarks/test_bench_checkpoint_overhead.py``) while a kill loses
#: at most this many slots of progress — well under a second of rework.
DEFAULT_POLL_SLOTS = 16384


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def config_fingerprint(config) -> str:
    """SHA-256 over the config's repr.

    ``SystemConfig`` and everything it nests are (frozen) dataclasses
    and enums with deterministic reprs, so two configs fingerprint
    equal iff they would build identical systems.  The ``engine`` field
    is part of the repr, which is what makes restoring a ``fast``
    checkpoint under the ``reference`` engine (or vice versa) a refused
    mismatch instead of a silent divergence.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()


def trace_fingerprint(trace: MemoryTrace) -> str:
    """SHA-256 over a trace's name and canonical record lines.

    Traces are immutable, so the digest is memoised on the trace
    object: periodic checkpointing fingerprints the same workload once
    per *save*, and recomputing a long trace's hash every interval was
    the dominant snapshot cost.

    Deliberately not :func:`repro.sim.cache.trace_cache_fingerprint`:
    a checkpoint must refuse a renamed trace, while the result cache
    keys length-framed records without the name, and switching would
    change every checkpoint payload.
    """
    cached = getattr(trace, "_checkpoint_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(trace.name.encode())
    for record in trace:
        digest.update(b"\n")
        digest.update(record.to_line().encode())
    fingerprint = digest.hexdigest()
    trace._checkpoint_fingerprint = fingerprint
    return fingerprint


def trace_fingerprints(traces: Mapping[int, MemoryTrace]) -> Dict[str, str]:
    """Per-core trace fingerprints (JSON keys must be strings)."""
    return {
        str(core): trace_fingerprint(trace)
        for core, trace in sorted(traces.items())
    }


# ----------------------------------------------------------------------
# Per-component state (snapshot / load pairs)
# ----------------------------------------------------------------------
def _stats_state(stats) -> Dict[str, int]:
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
    }


def _load_stats(stats, state: Mapping[str, int]) -> None:
    for field in dataclasses.fields(stats):
        setattr(stats, field.name, state[field.name])


def _policy_state(policy: ReplacementPolicy) -> Dict[str, Any]:
    if isinstance(policy, (LruPolicy, MruPolicy)):
        return {"clock": policy._clock, "last_use": list(policy._last_use)}
    if isinstance(policy, NmruPolicy):
        return {"mru": policy._mru}
    if isinstance(policy, FifoPolicy):
        return {"clock": policy._clock, "filled_at": list(policy._filled_at)}
    if isinstance(policy, RoundRobinPolicy):
        return {"pointer": policy._pointer}
    if isinstance(policy, RandomPolicy):
        # Draws from the System-level shared stream, restored once.
        return {}
    if isinstance(policy, PlruTreePolicy):
        return {"bits": list(policy._bits)}
    if isinstance(policy, OraclePolicy):
        raise CheckpointError(
            "cannot checkpoint an 'oracle' replacement policy: its victim "
            "chooser is a caller-supplied callback whose state lives "
            "outside the simulator"
        )
    raise CheckpointError(
        f"cannot checkpoint unknown replacement policy "
        f"{type(policy).__name__}"
    )


def _load_policy(policy: ReplacementPolicy, state: Mapping[str, Any]) -> None:
    if isinstance(policy, (LruPolicy, MruPolicy)):
        policy._clock = state["clock"]
        policy._last_use = list(state["last_use"])
    elif isinstance(policy, NmruPolicy):
        policy._mru = state["mru"]
    elif isinstance(policy, FifoPolicy):
        policy._clock = state["clock"]
        policy._filled_at = list(state["filled_at"])
    elif isinstance(policy, RoundRobinPolicy):
        policy._pointer = state["pointer"]
    elif isinstance(policy, RandomPolicy):
        pass
    elif isinstance(policy, PlruTreePolicy):
        policy._bits = list(state["bits"])
    else:
        raise CheckpointError(
            f"cannot restore unknown replacement policy {type(policy).__name__}"
        )


def _cacheset_state(cache_set: CacheSet) -> Dict[str, Any]:
    return {
        "slots": [
            None if line is None else [line.block, line.dirty]
            for line in cache_set._slots
        ],
        "policy": _policy_state(cache_set.policy),
    }


def _load_cacheset(cache_set: CacheSet, state: Mapping[str, Any]) -> None:
    slots: List[Optional[CacheLine]] = []
    index: Dict[int, int] = {}
    for way, stored in enumerate(state["slots"]):
        if stored is None:
            slots.append(None)
        else:
            block, dirty = stored
            slots.append(CacheLine(block=block, dirty=dirty))
            index[block] = way
    cache_set._slots = slots
    cache_set._index = index
    _load_policy(cache_set.policy, state["policy"])


def _sa_cache_state(cache: SetAssociativeCache) -> Dict[str, Any]:
    return {
        "stats": _stats_state(cache.stats),
        "sets": [_cacheset_state(cache_set) for cache_set in cache._sets],
    }


def _load_sa_cache(cache: SetAssociativeCache, state: Mapping[str, Any]) -> None:
    _load_stats(cache.stats, state["stats"])
    if len(state["sets"]) != len(cache._sets):
        raise CheckpointError(
            f"cache {cache.name}: checkpoint has {len(state['sets'])} sets, "
            f"the built cache has {len(cache._sets)}"
        )
    for cache_set, set_state in zip(cache._sets, state["sets"]):
        _load_cacheset(cache_set, set_state)


def _stack_state(stack: PrivateStack) -> Dict[str, Any]:
    return {
        "l1i": None if stack.l1i is None else _sa_cache_state(stack.l1i),
        "l1d": None if stack.l1d is None else _sa_cache_state(stack.l1d),
        "l2": _sa_cache_state(stack.l2),
        "version": stack.version,
    }


def _load_stack(stack: PrivateStack, state: Mapping[str, Any]) -> None:
    for level, stored in (("l1i", state["l1i"]), ("l1d", state["l1d"])):
        cache = getattr(stack, level)
        if (cache is None) != (stored is None):
            raise CheckpointError(
                f"core {stack.core}: checkpoint and config disagree on "
                f"whether {level} exists"
            )
        if cache is not None:
            _load_sa_cache(cache, stored)
    _load_sa_cache(stack.l2, state["l2"])
    stack.version = state["version"]


def _core_state(core: TraceDrivenCore) -> Dict[str, Any]:
    return {
        "state": core.state.value,
        "time": core.time,
        "position": core.position,
        "gap_applied": core._gap_applied,
        "finish_time": core.finish_time,
        "private_hits": core.private_hits,
        "llc_requests": core.llc_requests,
    }


def _load_core(core: TraceDrivenCore, state: Mapping[str, Any]) -> None:
    core.state = CoreState(state["state"])
    core.time = state["time"]
    core.position = state["position"]
    core._gap_applied = state["gap_applied"]
    core.finish_time = state["finish_time"]
    core.private_hits = state["private_hits"]
    core.llc_requests = state["llc_requests"]
    # The next-miss prediction cache is pure derived state; recompute.
    core._prediction = None
    core._prediction_version = None


def _request_state(request: PendingRequest) -> List[Any]:
    # Compact positional form: the completed-request list dominates the
    # payload on long runs (one entry per served request), so field
    # names would triple the checkpoint size and the JSON encode cost.
    return [
        request.core,
        request.block,
        request.access.value,
        request.enqueued_at,
        request.first_on_bus_at,
        request.completed_at,
        request.bus_attempts,
        request.served_by_hit,
    ]


def _load_request(state: List[Any]) -> PendingRequest:
    (
        core,
        block,
        access,
        enqueued_at,
        first_on_bus_at,
        completed_at,
        bus_attempts,
        served_by_hit,
    ) = state
    return PendingRequest(
        core=core,
        block=block,
        access=AccessType(access),
        enqueued_at=enqueued_at,
        first_on_bus_at=first_on_bus_at,
        completed_at=completed_at,
        bus_attempts=bus_attempts,
        served_by_hit=served_by_hit,
    )


def _completed_state(completed: List[PendingRequest]) -> List[Any]:
    # The completed-request log grows one entry per served request and
    # dominates long-run checkpoints, so it is flattened to one stride-8
    # value array: a flat list both builds and JSON-encodes about
    # twice as fast as 20k nested lists, which is what keeps the
    # periodic-save overhead inside the benchmark budget.  Entries here
    # are always completed, so no field needs a null.
    flat: List[Any] = []
    for request in completed:
        flat.extend(
            (
                request.core,
                request.block,
                request.access.value,
                request.enqueued_at,
                request.first_on_bus_at,
                request.completed_at,
                request.bus_attempts,
                1 if request.served_by_hit else 0,
            )
        )
    return flat


def _load_completed(flat: List[Any]) -> List[PendingRequest]:
    return [
        PendingRequest(
            core=flat[i],
            block=flat[i + 1],
            access=AccessType(flat[i + 2]),
            enqueued_at=flat[i + 3],
            first_on_bus_at=flat[i + 4],
            completed_at=flat[i + 5],
            bus_attempts=flat[i + 6],
            served_by_hit=bool(flat[i + 7]),
        )
        for i in range(0, len(flat), 8)
    ]


def _pwb_state(pwb: PendingWritebackBuffer) -> Dict[str, Any]:
    return {
        "entries": [
            {
                "core": entry.core,
                "block": entry.block,
                "reason": entry.reason.value,
                "enqueued_at": entry.enqueued_at,
            }
            for entry in pwb._entries
        ],
        "max_occupancy": pwb.max_occupancy,
    }


def _load_pwb(pwb: PendingWritebackBuffer, state: Mapping[str, Any]) -> None:
    pwb._entries.clear()
    for stored in state["entries"]:
        pwb._entries.append(
            WritebackEntry(
                core=stored["core"],
                block=stored["block"],
                reason=WritebackReason(stored["reason"]),
                enqueued_at=stored["enqueued_at"],
            )
        )
    pwb.max_occupancy = state["max_occupancy"]


def _llc_state(llc: PartitionedLlc) -> Dict[str, Any]:
    return {
        "stats": _stats_state(llc.stats),
        "extra": _stats_state(llc.extra),
        "directory": [
            [block, sorted(owners)]
            for block, owners in sorted(llc.directory._owners.items())
        ],
        "entries": [
            [
                {
                    "state": entry.state.value,
                    "block": entry.block,
                    "dirty": entry.dirty,
                    "pending_writers": sorted(entry.pending_writers),
                }
                for entry in row
            ]
            for row in llc._entries
        ],
        "policies": [_policy_state(policy) for policy in llc._policies],
    }


def _load_llc(llc: PartitionedLlc, state: Mapping[str, Any]) -> None:
    _load_stats(llc.stats, state["stats"])
    _load_stats(llc.extra, state["extra"])
    llc.directory._owners = {
        block: set(owners) for block, owners in state["directory"]
    }
    rows = state["entries"]
    if len(rows) != len(llc._entries) or any(
        len(row) != len(live) for row, live in zip(rows, llc._entries)
    ):
        raise CheckpointError(
            "LLC geometry of the checkpoint does not match the built cache"
        )
    # Mutate the existing LlcEntry objects: the region cache (and any
    # outstanding reference) aliases them, so replacing them would
    # silently detach the hot path from the restored state.
    llc._valid_index = {}
    llc._pending_index = {}
    for live_row, stored_row in zip(llc._entries, rows):
        for entry, stored in zip(live_row, stored_row):
            entry.state = EntryState(stored["state"])
            entry.block = stored["block"]
            entry.dirty = stored["dirty"]
            entry.pending_writers = set(stored["pending_writers"])
            if entry.is_valid:
                llc._valid_index[entry.block] = entry
            elif entry.is_pending:
                llc._pending_index[entry.block] = entry
    llc._rebuild_region_counts()
    if len(state["policies"]) != len(llc._policies):
        raise CheckpointError(
            "LLC policy count of the checkpoint does not match the built cache"
        )
    for policy, stored in zip(llc._policies, state["policies"]):
        _load_policy(policy, stored)


def _sequencer_state(sequencer: SetSequencer) -> Dict[str, Any]:
    qlt = sequencer.qlt
    # Queue objects migrate between the QLT's mapping and its free pool
    # but are never destroyed, and SequencerQueue.max_depth persists
    # across reuse — so queues are serialized by identity (queue_id),
    # along with the mapping and the exact free-pool order (allocation
    # order is pop-from-end, which affects future queue ids).
    queues = {}
    for queue in list(qlt._mapping.values()) + list(qlt._free_queues):
        queues[queue.queue_id] = {
            "cores": list(queue._cores),
            "max_depth": queue.max_depth,
        }
    return {
        "stats": _stats_state(sequencer.stats),
        "queued_set": sorted(sequencer._queued_set.items()),
        "unsequenced": sorted(sequencer._unsequenced),
        "qlt": {
            "overflows": qlt.overflows,
            "queues": sorted(queues.items()),
            "mapping": sorted(
                [set_index, queue.queue_id]
                for set_index, queue in qlt._mapping.items()
            ),
            "free": [queue.queue_id for queue in qlt._free_queues],
        },
    }


def _load_sequencer(sequencer: SetSequencer, state: Mapping[str, Any]) -> None:
    _load_stats(sequencer.stats, state["stats"])
    sequencer._queued_set = {core: s for core, s in state["queued_set"]}
    sequencer._unsequenced = set(state["unsequenced"])
    qlt = sequencer.qlt
    qlt.overflows = state["qlt"]["overflows"]
    by_id = {
        queue.queue_id: queue
        for queue in list(qlt._mapping.values()) + list(qlt._free_queues)
    }
    stored_ids = {queue_id for queue_id, _ in state["qlt"]["queues"]}
    if stored_ids != set(by_id):
        raise CheckpointError(
            "sequencer queue pool of the checkpoint does not match the "
            "built QLT (different sequencer_max_queues?)"
        )
    for queue_id, stored in state["qlt"]["queues"]:
        queue = by_id[queue_id]
        queue._cores.clear()
        queue._cores.extend(stored["cores"])
        queue.max_depth = stored["max_depth"]
    qlt._mapping = {
        set_index: by_id[queue_id]
        for set_index, queue_id in state["qlt"]["mapping"]
    }
    qlt._free_queues = [by_id[queue_id] for queue_id in state["qlt"]["free"]]


def _rng_state(rng) -> Dict[str, Any]:
    version, internal, gauss = rng.getstate()
    return {"version": version, "state": list(internal), "gauss": gauss}


def _load_rng(rng, state: Mapping[str, Any]) -> None:
    rng.setstate((state["version"], tuple(state["state"]), state["gauss"]))


# ----------------------------------------------------------------------
# Whole-simulator snapshot / restore
# ----------------------------------------------------------------------
def _check_checkpointable(sim) -> None:
    config = sim.config
    if config.llc_policy == "oracle" or config.stack.policy == "oracle":
        raise CheckpointError(
            "cannot checkpoint a simulation using the 'oracle' replacement "
            "policy: the victim chooser is caller state outside the simulator"
        )
    engine = sim.engine
    if engine._pre_slot_hooks:
        raise CheckpointError(
            "cannot checkpoint an engine with pre-slot hooks installed "
            "(fault injectors keep private state the checkpoint cannot carry)"
        )
    allowed_post = None if sim.monitor is None else sim.monitor.on_slot
    for hook in engine._post_slot_hooks:
        if allowed_post is None or hook != allowed_post:
            raise CheckpointError(
                "cannot checkpoint an engine with foreign post-slot hooks "
                "installed; only the checked-mode invariant monitor is "
                "re-seedable on restore"
            )
    if engine.events._sinks:
        raise CheckpointError(
            "cannot checkpoint an engine with an attached event sink: a "
            "streamed trace's output lives outside the simulator; record "
            "events in memory (record_events) or run without the sink"
        )


def snapshot_simulator(sim) -> Dict[str, Any]:
    """The full checkpoint payload (pure JSON values) of ``sim``."""
    _check_checkpointable(sim)
    engine = sim.engine
    system = sim.system
    state: Dict[str, Any] = {
        "rng": _rng_state(system.rng),
        "engine": {
            "slot": engine._slot,
            "completed": _completed_state(engine._completed),
            "finished_cores": sorted(engine._finished_cores),
            "slot_usage": [
                [core, dict(usage)]
                for core, usage in sorted(engine._slot_usage.items())
            ],
            "ff_skip": engine._ff_skip,
            "ff_penalty": engine._ff_penalty,
        },
        "events": (
            [_event_state(event) for event in engine.events._events]
            if engine.events.enabled
            else None
        ),
        "cores": [
            [core_id, _core_state(core)]
            for core_id, core in sorted(system.cores.items())
        ],
        "stacks": [
            [core_id, _stack_state(stack)]
            for core_id, stack in sorted(system.stacks.items())
        ],
        "prbs": [
            [core_id, None if prb._entry is None else _request_state(prb._entry)]
            for core_id, prb in sorted(system.prbs.items())
        ],
        "pwbs": [
            [core_id, _pwb_state(pwb)]
            for core_id, pwb in sorted(system.pwbs.items())
        ],
        "arbiters": [
            [
                core_id,
                {
                    "preferred": arbiter._preferred.value,
                    "contended_slots": arbiter.contended_slots,
                },
            ]
            for core_id, arbiter in sorted(system.arbiters.items())
        ],
        "llc": _llc_state(system.llc),
        "dram": {
            "stats": _stats_state(system.dram.stats),
            "free_at": system.dram._free_at,
        },
        "sequencers": [
            [name, _sequencer_state(sequencer)]
            for name, sequencer in sorted(system.sequencers.items())
        ],
    }
    if engine._sampler is not None:
        sampler = engine._sampler
        state["sampler"] = {
            "pwb_occ": [list(occ) for occ in sampler._pwb_occ],
            "prb_occ": [list(occ) for occ in sampler._prb_occ],
            "seq_occ": [list(occ) for occ in sampler._seq_occ],
            "slots_sampled": sampler.slots_sampled,
        }
    else:
        state["sampler"] = None
    return {
        "kind": CHECKPOINT_KIND,
        "version": CHECKPOINT_VERSION,
        "config": config_fingerprint(sim.config),
        "traces": trace_fingerprints(
            {core_id: core.trace for core_id, core in sim.system.cores.items()}
        ),
        "state": state,
    }


def restore_simulator(sim, payload: Mapping[str, Any]) -> None:
    """Load a checkpoint payload into a freshly built ``sim`` in place.

    ``sim`` must have been constructed from the same configuration and
    traces the checkpoint was taken under (verified by fingerprint) and
    must not have been run yet.
    """
    _check_checkpointable(sim)
    expected_config = config_fingerprint(sim.config)
    if payload["config"] != expected_config:
        raise CheckpointError(
            "checkpoint was taken under a different configuration "
            f"(fingerprint {payload['config'][:12]}… != {expected_config[:12]}…); "
            "restore with the exact config — including the engine choice — "
            "the checkpoint was written with, or delete it to start fresh"
        )
    live_traces = trace_fingerprints(
        {core_id: core.trace for core_id, core in sim.system.cores.items()}
    )
    if payload["traces"] != live_traces:
        raise CheckpointError(
            "checkpoint was taken under different workload traces; restore "
            "with the same traces or delete the checkpoint to start fresh"
        )

    engine = sim.engine
    system = sim.system
    state = payload["state"]

    _load_rng(system.rng, state["rng"])
    engine._slot = state["engine"]["slot"]
    engine._completed = _load_completed(state["engine"]["completed"])
    engine._finished_cores = set(state["engine"]["finished_cores"])
    engine._slot_usage = {
        core: dict(usage) for core, usage in state["engine"]["slot_usage"]
    }
    engine._ff_skip = state["engine"]["ff_skip"]
    engine._ff_penalty = state["engine"]["ff_penalty"]
    # Progress counters are derived; run() rebuilds them from a scan.
    engine._counters_ready = False
    if engine.events.enabled:
        if state["events"] is None:
            raise CheckpointError(
                "checkpoint carries no event log but record_events is on"
            )
        engine.events._events = [_load_event(e) for e in state["events"]]
    for core_id, stored in state["cores"]:
        _load_core(system.cores[core_id], stored)
    for core_id, stored in state["stacks"]:
        _load_stack(system.stacks[core_id], stored)
    for core_id, stored in state["prbs"]:
        system.prbs[core_id]._entry = (
            None if stored is None else _load_request(stored)
        )
    for core_id, stored in state["pwbs"]:
        _load_pwb(system.pwbs[core_id], stored)
    for core_id, stored in state["arbiters"]:
        arbiter = system.arbiters[core_id]
        arbiter._preferred = TransactionKind(stored["preferred"])
        arbiter.contended_slots = stored["contended_slots"]
    _load_llc(system.llc, state["llc"])
    _load_stats(system.dram.stats, state["dram"]["stats"])
    system.dram._free_at = state["dram"]["free_at"]
    stored_sequencers = dict(state["sequencers"])
    if set(stored_sequencers) != set(system.sequencers):
        raise CheckpointError(
            "checkpoint and config disagree on which partitions have a "
            "set sequencer"
        )
    for name, sequencer in system.sequencers.items():
        _load_sequencer(sequencer, stored_sequencers[name])
    if engine._sampler is not None:
        if state["sampler"] is None:
            raise CheckpointError(
                "checkpoint carries no sampler arrays but record_metrics is on"
            )
        sampler = engine._sampler
        sampler._pwb_occ = [list(occ) for occ in state["sampler"]["pwb_occ"]]
        sampler._prb_occ = [list(occ) for occ in state["sampler"]["prb_occ"]]
        sampler._seq_occ = [list(occ) for occ in state["sampler"]["seq_occ"]]
        sampler.slots_sampled = state["sampler"]["slots_sampled"]
    if sim.monitor is not None:
        sim.monitor.seed_resume(engine)


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
def save_checkpoint(sim, path: Union[str, Path], registry=None) -> Path:
    """Snapshot ``sim`` and write it crash-consistently to ``path``.

    The checkpoint file is ESSENTIAL: a failed save raises
    :class:`~repro.common.errors.PersistenceError` after bounded
    retries, leaving the previous checkpoint generation intact.
    """
    payload = snapshot_simulator(sim)
    body = _canonical(payload)
    digest = hashlib.sha256(body.encode()).hexdigest()
    # Splice the already-canonical body in by hand rather than dumping
    # the payload a second time: "integrity" < "payload" sorts first, so
    # the bytes match a full canonical dump of the document exactly.
    document = '{"integrity":"%s","payload":%s}' % (digest, body)
    target = persist_text(path, document + "\n", site="checkpoint")
    if registry is not None:
        registry.counter("checkpoint.saves").inc()
        registry.counter("checkpoint.bytes").inc(len(document) + 1)
    return target


def load_checkpoint(path: Union[str, Path], registry=None) -> Dict[str, Any]:
    """Read, integrity-check and version-check a checkpoint payload."""
    path = Path(path)
    try:
        text = read_text(path, site="checkpoint")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON (truncated or corrupted "
            f"write?): {exc}"
        ) from exc
    if not isinstance(document, dict) or "payload" not in document:
        raise CheckpointError(
            f"{path} is not a repro checkpoint file (no payload section)"
        )
    payload = document["payload"]
    recomputed = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    if document.get("integrity") != recomputed:
        raise CheckpointError(
            f"checkpoint {path} failed its integrity check: the file was "
            "corrupted after it was written; delete it to start fresh"
        )
    if payload.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"{path} is not a simulation checkpoint "
            f"(kind={payload.get('kind')!r})"
        )
    version = payload.get("version")
    if not isinstance(version, int):
        raise CheckpointError(
            f"checkpoint {path} has a malformed version field {version!r}"
        )
    if version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version}, written by a newer "
            f"repro build (this build reads version {CHECKPOINT_VERSION}); "
            "upgrade this installation or delete the checkpoint to rerun "
            "from scratch"
        )
    if version < CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version {version} (this "
            f"build reads version {CHECKPOINT_VERSION}); delete it to "
            "rerun from scratch"
        )
    if registry is not None:
        registry.counter("checkpoint.restores").inc()
    return payload


def run_resumable(
    config,
    traces,
    *,
    path: Union[str, Path],
    every_slots: Optional[int] = None,
    start_cycles=None,
    event_sink=None,
    engine: Optional[str] = None,
    registry=None,
):
    """Run a simulation with periodic checkpoints, resuming if one exists.

    The drive loop pauses the engine every ``every_slots`` slots
    (default ``DEFAULT_POLL_SLOTS``), writes a crash-consistent
    checkpoint, and continues.  If ``path`` already holds a checkpoint,
    the run resumes from it instead of starting over; the checkpoint
    file is deleted on normal completion.  The returned report — and
    any metrics output built from it — is byte-identical to an
    uninterrupted run.
    """
    from repro.sim.simulator import Simulator

    interval = DEFAULT_POLL_SLOTS if every_slots is None else every_slots
    if interval <= 0:
        raise ConfigurationError(
            f"the checkpoint interval must be a positive slot count, "
            f"got {interval}"
        )
    path = Path(path)
    cleanup_stale_tmp(path)
    if path.exists():
        sim = Simulator.restore(
            path,
            config,
            traces,
            start_cycles=start_cycles,
            event_sink=event_sink,
            engine=engine,
            registry=registry,
        )
    else:
        sim = Simulator(config, traces, start_cycles, event_sink, engine)
        # Refuse an uncheckpointable run before simulating, not at the
        # first save.
        _check_checkpointable(sim)
    while True:
        sim.engine.advance(stop_at_slot=sim.engine._slot + interval)
        if sim.engine.run_complete():
            # Only the finished run pays for report construction; the
            # paused chunks above advance the engine report-free.
            report = sim.engine.run()
            sim.system.check_inclusivity()
            try:
                path.unlink(missing_ok=True)
            except OSError:
                # A leftover checkpoint of a *completed* run only costs
                # one restore on the next identical invocation; the
                # restored end-state replays to the same report.
                count_io("io.swallowed.checkpoint-unlink")
            return report
        save_checkpoint(sim, path, registry=registry)
