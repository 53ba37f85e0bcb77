"""The benchmark's workloads: inputs made from a seed, one timed pass each.

A workload is built once from the benchmark seed (that is the set-up the
``setup_s`` metric times) and then runs the same *pass* over its fixed
inputs as many times as the run lasts.  Every simulation starts from an
empty hierarchy, as in paper Section 5: each one builds a fresh system,
and no result cache is installed.

``outputs`` turns a pass's raw result into the data the output gate
checks: one SHA-256 digest per output unit, the cases each digest vouches
for, and the cases whose own verdict failed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set

from repro.experiments.configs import build_system_for_notation, fig8_system
from repro.experiments.fig8 import graded_workload
from repro.llc.partition import PartitionKind
from repro.robustness import fuzz
from repro.robustness.runner import run_all_robust
from repro.sim.export import report_to_dict
from repro.sim.simulator import simulate
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

def sha256_json(data: Any) -> str:
    """Digest of ``data`` in canonical JSON form."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path: Path) -> Optional[str]:
    """Digest of a file's bytes; None when the file was not written."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def trace_seeds(seed: int, count: int) -> List[int]:
    """``count`` trace seeds drawn from the benchmark seed, disjoint per seed."""
    return [seed * 1000 + index for index in range(count)]


@dataclass
class Outputs:
    """What one pass produced, in the form the output gate checks."""

    #: Every case the pass attempted.
    cases: List[str]
    #: Output unit -> SHA-256 of its canonical content (None if missing).
    digests: Dict[str, Optional[str]]
    #: Output unit -> the cases a wrong digest of that unit fails.
    covers: Dict[str, List[str]]
    #: Cases whose own verdict failed (a failed check or fuzz verdict).
    failed: Set[str] = field(default_factory=set)


class Workload:
    """One benchmark workload; subclasses fill in the three hooks."""

    name = ""
    #: What one case of the workload is, for ``cases_per_s``.
    case_unit = ""
    #: Whether the inputs depend on the benchmark seed.
    seeded = True
    #: Simulation or case completions per timed step: enough for steps of
    #: about 0.1 s, each followed by the reference kernel (see ``run.py``).
    marks_per_step = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_pass(self, workdir: Path, mark: Callable[..., None]) -> Any:
        """Run the workload once over its inputs (this is what is timed).

        ``mark`` is called as each case finishes; together with the end
        of every simulation it cuts the pass into the steps the run
        times one by one.
        """
        raise NotImplementedError

    def outputs(self, raw: Any, workdir: Path) -> Outputs:
        """Digest and judge what :meth:`run_pass` returned."""
        raise NotImplementedError


class _SimulationWorkload(Workload):
    """A list of ``(label, config, traces)`` simulations, run in order."""

    case_unit = "simulations"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.inputs: List[tuple] = []

    def run_pass(self, workdir: Path, mark: Callable[..., None]) -> Any:
        return [
            (label, simulate(config, traces))
            for label, config, traces in self.inputs
        ]

    def outputs(self, raw: Any, workdir: Path) -> Outputs:
        labels = [label for label, _ in raw]
        return Outputs(
            cases=labels,
            digests={
                label: sha256_json(report_to_dict(report))
                for label, report in raw
            },
            covers={label: [label] for label in labels},
        )


class DenseShared(_SimulationWorkload):
    """Figure 8d geometry under graded write-only traffic over 16 KiB.

    Every slot has work, so the per-slot model core (cpu, llc, bus,
    sequencer) takes the host time, and dirty conflict evictions drive
    back-invalidations and PWB write-backs.  Many short simulations
    (about 0.1 s each) rather than a few long ones give the run fine
    steps to time; see ``run.py``.
    """

    name = "dense-shared"
    REQUESTS_PER_CORE = 400
    TRACE_SEEDS = 5
    ADDRESS_RANGE = 16384
    CAPACITY = 8192
    CORES = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        for trace_seed in trace_seeds(seed, self.TRACE_SEEDS):
            traces = graded_workload(
                self.CORES, self.ADDRESS_RANGE, self.REQUESTS_PER_CORE, trace_seed
            )
            for kind in (PartitionKind.SS, PartitionKind.NSS, PartitionKind.P):
                config = fig8_system(
                    kind, self.CORES, self.CAPACITY, seed=trace_seed
                )
                self.inputs.append((f"{trace_seed}/{kind.name}", config, traces))


class SparseThink(_SimulationWorkload):
    """SS(1,16,4) with think gaps of up to 200k cycles between accesses.

    Almost every slot is idle, so the host time moves into fast-forward
    and next-miss prediction while the LLC does little.  100 accesses
    per core make about 200k slots, far below the 2M ``max_slots`` cap
    (1,000 reach it).
    """

    name = "sparse-think"
    REQUESTS_PER_CORE = 100
    TRACE_SEEDS = 30
    MAX_THINK_CYCLES = 200_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        for trace_seed in trace_seeds(seed, self.TRACE_SEEDS):
            config = build_system_for_notation("SS(1,16,4)", 4, seed=trace_seed)
            workload = SyntheticWorkloadConfig(
                num_requests=self.REQUESTS_PER_CORE,
                seed=trace_seed,
                max_think_cycles=self.MAX_THINK_CYCLES,
            )
            traces = generate_disjoint_workload(workload, range(4))
            self.inputs.append((f"{trace_seed}/SS", config, traces))


class FuzzCampaign(Workload):
    """``repro-llc fuzz --seed 1 --out DIR`` over a few hundred cases.

    The case list is the fixed seed-1 campaign: the generator's case mix
    moves a campaign's cost and simulated cycles by about 10% from one
    campaign seed to the next, more than the bounds allow.
    """

    name = "fuzz-campaign"
    case_unit = "fuzz cases"
    seeded = False
    marks_per_step = 30
    BUDGET = 300
    CAMPAIGN_SEED = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = fuzz.generate_cases(self.BUDGET, self.CAMPAIGN_SEED)

    def _generated_cases(self, budget: int, seed: int, fault_rate: float = 0.0):
        if (budget, seed, fault_rate) != (self.BUDGET, self.CAMPAIGN_SEED, 0.0):
            raise RuntimeError(
                f"run_fuzz asked for cases ({budget}, {seed}, {fault_rate}) "
                "the benchmark did not generate"
            )
        return self.cases

    def run_pass(self, workdir: Path, mark: Callable[..., None]) -> Any:
        # run_fuzz draws its cases from generate_cases; hand it the list
        # made at set-up so that generation is not timed twice.
        generate = fuzz.generate_cases
        fuzz.generate_cases = self._generated_cases
        try:
            return fuzz.run_fuzz(
                budget=self.BUDGET,
                seed=self.CAMPAIGN_SEED,
                out_dir=workdir / "fuzz",
                progress=mark,
            )
        finally:
            fuzz.generate_cases = generate

    def outputs(self, raw: Any, workdir: Path) -> Outputs:
        cases = [case["case_id"] for case in raw.cases]
        return Outputs(
            cases=cases,
            digests={"verdicts": sha256_json(raw.to_dict())},
            covers={"verdicts": cases},
            failed={case["case_id"] for case in raw.cases if not case["passed"]},
        )


class ReproAll(Workload):
    """``repro-llc all --out DIR --requests 150``: serial, no result cache.

    Every artifact and check of the CLI default run, at half its 300
    requests: a 300-request pass takes 5-8 s, too few passes per run for
    a steady ``wall_s`` on a shared 2-CPU host.
    """

    name = "repro-all"
    case_unit = "artifacts"
    seeded = False
    marks_per_step = 3
    REQUESTS = 150

    def run_pass(self, workdir: Path, mark: Callable[..., None]) -> Any:
        return run_all_robust(
            out_dir=workdir / "results", num_requests=self.REQUESTS, progress=mark
        )

    def outputs(self, raw: Any, workdir: Path) -> Outputs:
        results = workdir / "results"
        artifacts = [outcome.name for outcome in raw.outcomes]
        digests = {
            f"{name}.txt": sha256_file(results / f"{name}.txt")
            for name in artifacts
        }
        digests["summary.json"] = sha256_file(results / "summary.json")
        covers = {f"{name}.txt": [name] for name in artifacts}
        covers["summary.json"] = artifacts
        failed = {
            outcome.name
            for outcome in raw.outcomes
            if outcome.status != "done" or not outcome.result.passed
        }
        return Outputs(
            cases=artifacts, digests=digests, covers=covers, failed=failed
        )


WORKLOADS = {
    workload.name: workload
    for workload in (DenseShared, SparseThink, FuzzCampaign, ReproAll)
}


def pinned_digests(name: str, seed: int, pins: Dict[str, Any]) -> Optional[Dict[str, str]]:
    """The pinned digests for ``name`` at ``seed``, or None when unpinned."""
    entry = pins.get(name)
    if entry is None:
        return None
    if WORKLOADS[name].seeded and seed != entry["seed"]:
        return None
    return entry["digests"]
