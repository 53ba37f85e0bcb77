"""Outside-in layer trace: times the calls into each layer of ``repro``.

:class:`Tracer` wraps the public functions of every layer at class or
module level (nothing under ``src/`` changes) and keeps, per layer and
method, the call count and the self time: a call's duration minus the
time of the wrapped calls nested inside it.  Stats are aggregated in
memory, not kept as spans, because the dense workload makes millions of
calls.  :class:`ReportTap` is the one wrapper untraced runs also carry:
it keeps every report ``Simulator.run`` returns, for the simulated-time
metrics and the timed-out check, and marks the end of each simulation.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.simulator import Simulator

#: (layer, module, class or None for module functions, wrapped names).
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("llc.scan", "repro.llc.llc", "PartitionedLlc",
     ("free_entry", "region_availability", "has_pending_evict", "choose_victim")),
    ("llc.lookup", "repro.llc.llc", "PartitionedLlc", ("lookup", "probe")),
    ("llc.mutate", "repro.llc.llc", "PartitionedLlc",
     ("allocate", "begin_eviction", "complete_writeback")),
    ("sim.engine.advance", "repro.sim.engine", "SlotEngine", ("advance",)),
    ("cpu.advance", "repro.cpu.core", "TraceDrivenCore", ("advance",)),
    ("cpu.predict", "repro.cpu.core", "TraceDrivenCore", ("predict_next_bus_event",)),
    ("cpu.stack", "repro.cpu.private_stack", "PrivateStack",
     ("access", "fill_from_llc", "invalidate_block")),
    ("cache.access", "repro.cache.sa_cache", "SetAssociativeCache", ("access",)),
    ("bus.arbitrate", "repro.bus.arbiter", "PrbPwbArbiter", ("choose",)),
    ("bus.schedule", "repro.bus.schedule", "TdmSchedule",
     ("owner_of_slot", "slot_start", "slot_end", "slot_of_cycle",
      "next_slot_of", "next_slot_start")),
    ("bus.buffers", "repro.bus.buffers", "PendingRequestBuffer", ("push", "pop")),
    ("bus.buffers", "repro.bus.buffers", "PendingWritebackBuffer",
     ("push", "pop", "peek")),
    ("sequencer", "repro.sequencer.set_sequencer", "SetSequencer",
     ("register", "may_claim", "complete", "cancel")),
    ("mem", "repro.mem.dram", "Dram", ("fetch", "write_back")),
    ("sim.build", "repro.sim.simulator", "Simulator", ("__init__",)),
    ("sim.simulate", "repro.sim.simulator", "Simulator", ("run",)),
    ("sim.report.build", "repro.sim.report", None, ("build_report",)),
    ("robustness.runner.manifest_save", "repro.robustness.runner", "RunManifest",
     ("save",)),
    ("common.fileio.persist", "repro.common.fileio", None, ("persist_text",)),
    ("common.fileio.fsync", "repro.common.fileio", None,
     ("guarded_fsync", "fsync_directory")),
    ("robustness.oracle.check", "repro.robustness.oracle", None, ("check_run",)),
    ("robustness.fuzz.case", "repro.robustness.fuzz", None, ("run_fuzz_case",)),
    ("experiments.fig7", "repro.experiments.fig7", None, ("run_fig7",)),
    ("experiments.fig8", "repro.experiments.fig8", None, ("run_fig8",)),
    ("experiments.tightness", "repro.experiments.tightness", None, ("run_tightness",)),
    ("experiments.isolation", "repro.experiments.isolation", None, ("run_isolation",)),
    ("analysis.witness", "repro.analysis.unbounded", None, ("starvation_witness",)),
)


def _persisted_bytes(args: tuple, kwargs: dict) -> int:
    """Bytes a ``persist_text(path, text, ...)`` call writes."""
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode())


class _Stat:
    __slots__ = ("calls", "self_s", "bytes", "durations")

    def __init__(self, timed: bool) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.bytes = 0
        self.durations: Optional[List[float]] = [] if timed else None


def _patch(target: Any, attr: str, value: Any, undo: list) -> None:
    undo.append((target, attr, getattr(target, attr)))
    setattr(target, attr, value)


class ReportTap:
    """Keeps every report ``Simulator.run`` returns while installed.

    ``mark`` is called after each simulation, so that the benchmark can
    time the steps between them.
    """

    def __init__(self, mark: Callable[[], None]) -> None:
        self.reports: List[Any] = []
        self._mark = mark
        self._undo: list = []

    def __enter__(self) -> "ReportTap":
        run = Simulator.run
        reports = self.reports
        mark = self._mark

        @functools.wraps(run)
        def tapped(sim, *args, **kwargs):
            report = run(sim, *args, **kwargs)
            reports.append(report)
            mark()
            return report

        _patch(Simulator, "run", tapped, self._undo)
        return self

    def __exit__(self, *exc: Any) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()


class Tracer:
    """Wraps every layer of :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.stats: Dict[Tuple[str, str], _Stat] = {}
        self._stack: List[list] = []
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        for layer, module_name, class_name, names in LAYERS:
            module = importlib.import_module(module_name)
            for name in names:
                if class_name is not None:
                    owner = getattr(module, class_name)
                    _patch(owner, name, self._wrap(layer, name, owner.__dict__[name]), self._undo)
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(layer, name, original)
                # Callers bind module functions by name at import time,
                # so every repro module holding the function is patched.
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            _patch(loaded, attr, wrapper, self._undo)
        return self

    def __exit__(self, *exc: Any) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        # Simulation durations feed the p50/tail metrics; persisted bytes
        # are also credited to every wrapped call the write is nested in.
        stat = self.stats.setdefault((layer, name), _Stat(layer == "sim.simulate"))
        sized = _persisted_bytes if layer == "common.fileio.persist" else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sized is not None:
                size = sized(args, kwargs)
                stat.bytes += size
                for _, outer in stack:
                    outer.bytes += size
            frame = [0.0, stat]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stat.durations is not None:
                    stat.durations.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _layer(self, layer: str) -> List[_Stat]:
        return [stat for (name, _), stat in self.stats.items() if name == layer]

    def calls(self, layer: str, method: Optional[str] = None) -> int:
        if method is not None:
            stat = self.stats.get((layer, method))
            return stat.calls if stat else 0
        return sum(stat.calls for stat in self._layer(layer))

    def self_s(self, layer: str) -> float:
        return sum(stat.self_s for stat in self._layer(layer))

    def bytes(self, layer: str) -> int:
        return sum(stat.bytes for stat in self._layer(layer))

    def durations(self, layer: str) -> List[float]:
        return sorted(
            duration
            for stat in self._layer(layer)
            for duration in (stat.durations or ())
        )


def tail_percentile(count: int) -> int:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for percentile in (99, 95, 90, 75):
        if count * (100 - percentile) >= 10 * 100:
            return percentile
    return 50


def percentile(sorted_values: List[float], pct: int) -> float:
    """Nearest-rank percentile of already sorted values (0 when empty)."""
    if not sorted_values:
        return 0.0
    if pct == 50:
        return statistics.median(sorted_values)
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def layer_metrics(tracer: Tracer, reports: List[Any]) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer metrics of one traced pass: name -> (value, unit, samples).

    The ``mem.*``, ``llc.hit_ratio``, ``bus.idle_slot_share`` and
    ``bus.arbiter_contended`` values are statistics of the modelled
    hardware, read from the pass's reports.
    """
    metrics: Dict[str, Tuple[float, str, int]] = {
        "observed_wcl_cycles": (
            max((report.observed_wcl() for report in reports), default=0),
            "cycles",
            len(reports),
        )
    }

    def timed(layer: str, with_calls: bool = True) -> None:
        calls = tracer.calls(layer)
        if with_calls:
            metrics[f"{layer}.calls"] = (calls, "count", 1)
        metrics[f"{layer}.self_s"] = (tracer.self_s(layer), "s", calls)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    requests = sum(len(report.requests) for report in reports)
    slots_total = sum(report.total_slots for report in reports)
    slots_stepped = tracer.calls("bus.arbitrate")

    for layer in ("llc.scan", "llc.lookup", "llc.mutate"):
        timed(layer)
    metrics["llc.scans_per_request"] = (
        ratio(tracer.calls("llc.scan"), requests), "ratio", requests
    )
    llc_accesses = sum(report.llc_stats.accesses for report in reports)
    metrics["llc.hit_ratio"] = (
        ratio(sum(report.llc_stats.hits for report in reports), llc_accesses),
        "ratio",
        llc_accesses,
    )

    timed("sim.engine.advance", with_calls=False)
    metrics["sim.engine.slots_total"] = (slots_total, "slots", len(reports))
    metrics["sim.engine.slots_stepped"] = (slots_stepped, "slots", 1)
    metrics["sim.engine.ff_share"] = (
        1.0 - ratio(slots_stepped, slots_total) if slots_total else 0.0,
        "ratio",
        slots_total,
    )

    for layer in ("cpu.advance", "cpu.predict", "cpu.stack", "cache.access"):
        timed(layer)

    timed("bus.arbitrate", with_calls=False)
    timed("bus.schedule")
    timed("bus.buffers")
    idle = sum(
        usage["idle"] for report in reports for usage in report.slot_usage.values()
    )
    metrics["bus.idle_slot_share"] = (ratio(idle, slots_total), "ratio", slots_total)
    metrics["bus.arbiter_contended"] = (
        sum(sum(report.arbiter_contended.values()) for report in reports),
        "slots",
        len(reports),
    )

    timed("sequencer")
    claims = tracer.calls("sequencer", "may_claim")
    refused = sum(
        stats.blocked_not_head
        for report in reports
        for stats in report.sequencer_stats.values()
    )
    metrics["sequencer.claim_refused_ratio"] = (ratio(refused, claims), "ratio", claims)

    timed("mem", with_calls=False)
    metrics["mem.dram_reads"] = (
        sum(report.dram_reads for report in reports), "count", len(reports)
    )
    metrics["mem.dram_writes"] = (
        sum(report.dram_writes for report in reports), "count", len(reports)
    )

    timed("sim.build")
    durations = tracer.durations("sim.simulate")
    metrics["sim.simulate.calls"] = (len(durations), "count", 1)
    metrics["sim.simulate.ms_p50"] = (
        1000 * percentile(durations, 50), "ms", len(durations)
    )
    metrics["sim.simulate.ms_tail"] = (
        1000 * percentile(durations, tail_percentile(len(durations))),
        "ms",
        len(durations),
    )
    timed("sim.report.build")

    for layer in ("robustness.runner.manifest_save", "common.fileio.persist"):
        timed(layer)
        metrics[f"{layer}.bytes"] = (tracer.bytes(layer), "bytes", tracer.calls(layer))
    timed("common.fileio.fsync")

    timed("robustness.oracle.check")
    timed("robustness.fuzz.case", with_calls=False)
    for layer in (
        "experiments.fig7",
        "experiments.fig8",
        "experiments.tightness",
        "experiments.isolation",
        "analysis.witness",
    ):
        timed(layer, with_calls=False)
    return metrics
