"""Unit tests for crash-consistent checkpoints (repro.robustness.checkpoint).

Covers the checkpoint file format (integrity hash, versioning, refusal
paths), torn-write fault injection (a kill mid-save must leave the
previous checkpoint generation intact), the run-manifest version gate
and the atomic metrics exporters.
"""

import dataclasses
import json
import os
import random

import pytest

from repro.common.errors import (
    CampaignError,
    CheckpointError,
    ConfigurationError,
    ObservabilityError,
    PersistenceError,
)
from repro.common import fileio
from repro.common.fileio import atomic_write_text, cleanup_stale_tmp, tmp_sibling
from repro.obs.exporters import metrics_to_jsonl, write_metrics
from repro.obs.metrics import MetricsRegistry
from repro.robustness.checkpoint import (
    CHECKPOINT_VERSION,
    config_fingerprint,
    load_checkpoint,
    run_resumable,
    save_checkpoint,
    snapshot_simulator,
    trace_fingerprint,
)
from repro.robustness.runner import MANIFEST_VERSION, RunManifest
from repro.sim.simulator import Simulator, simulate
from sim_helpers import small_config, write_trace_of


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _workload(seed=7, length=300, blocks=32):
    rng = random.Random(seed)
    return {
        0: write_trace_of([rng.randrange(blocks) for _ in range(length)]),
        1: write_trace_of([rng.randrange(blocks) for _ in range(length)]),
    }


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprints_separate_configs_and_traces():
    config = small_config()
    other = dataclasses.replace(config, seed=99)
    assert config_fingerprint(config) != config_fingerprint(other)
    # The engine choice is part of the config identity: a checkpoint
    # written under one engine must not restore under the other.
    assert config_fingerprint(config) != config_fingerprint(
        dataclasses.replace(config, engine="reference")
    )
    assert trace_fingerprint(write_trace_of([1, 2, 3])) != trace_fingerprint(
        write_trace_of([1, 2, 4])
    )


# ----------------------------------------------------------------------
# Round-trip state identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_snapshot_round_trip_is_state_identical(tmp_path, engine):
    config = dataclasses.replace(small_config(), engine=engine)
    traces = _workload()
    path = tmp_path / "mid.ckpt"

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=23)
    sim.checkpoint(path)

    restored = Simulator.restore(path, config, traces)
    assert _canonical(snapshot_simulator(sim)) == _canonical(
        snapshot_simulator(restored)
    )


@pytest.mark.parametrize("llc_policy", ["random", "plru", "fifo"])
def test_round_trip_covers_every_policy_state(tmp_path, llc_policy):
    # Random shares one RNG across all sets; PLRU carries tree bits;
    # FIFO carries fill clocks.  Each must survive the round trip.
    config = small_config(llc_policy=llc_policy)
    traces = _workload(seed=llc_policy)
    path = tmp_path / "mid.ckpt"

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=31)
    sim.checkpoint(path)
    restored = Simulator.restore(path, config, traces)
    assert _canonical(snapshot_simulator(sim)) == _canonical(
        snapshot_simulator(restored)
    )

    # ... and the rest of the run is identical to the uninterrupted one.
    reference = Simulator(config, traces).run()
    resumed = restored.engine.run()
    assert resumed.latencies() == reference.latencies()
    assert resumed.slot_usage == reference.slot_usage


def test_checkpoint_file_is_deleted_on_completion(tmp_path):
    config = small_config()
    traces = _workload()
    path = tmp_path / "run.ckpt"
    report = simulate(
        config, traces, checkpoint_path=path, checkpoint_every_slots=16
    )
    assert report.latencies() == simulate(config, traces).latencies()
    assert not path.exists()


# ----------------------------------------------------------------------
# Refusals: state the checkpoint cannot carry
# ----------------------------------------------------------------------
def test_oracle_policy_is_refused():
    config = small_config(llc_policy="oracle")
    sim = Simulator(config, _workload())
    with pytest.raises(CheckpointError, match="oracle"):
        snapshot_simulator(sim)


def test_foreign_hooks_are_refused():
    config = small_config()
    sim = Simulator(config, _workload())
    sim.engine.add_pre_slot_hook(lambda slot, cycle: None)
    with pytest.raises(CheckpointError, match="pre-slot hooks"):
        snapshot_simulator(sim)

    sim = Simulator(config, _workload())
    sim.engine.add_post_slot_hook(lambda slot, cycle: None)
    with pytest.raises(CheckpointError, match="post-slot hooks"):
        snapshot_simulator(sim)


def test_checked_mode_monitor_is_allowed_and_reseeded(tmp_path):
    config = dataclasses.replace(small_config(), checked=True)
    traces = _workload()
    path = tmp_path / "checked.ckpt"

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=17)
    sim.checkpoint(path)

    restored = Simulator.restore(path, config, traces)
    # The reseeded invariant monitor must stay quiet for the remainder
    # of the run, and the outcome must match the uninterrupted one.
    resumed = restored.run()
    reference = Simulator(config, traces).run()
    assert resumed.latencies() == reference.latencies()


def test_restore_refuses_mismatched_config_and_traces(tmp_path):
    config = small_config()
    traces = _workload()
    path = tmp_path / "mid.ckpt"
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=9)
    sim.checkpoint(path)

    with pytest.raises(CheckpointError, match="different configuration"):
        Simulator.restore(path, dataclasses.replace(config, seed=2), traces)
    with pytest.raises(CheckpointError, match="engine choice"):
        Simulator.restore(path, config, traces, engine="reference")
    with pytest.raises(CheckpointError, match="different workload traces"):
        Simulator.restore(path, config, _workload(seed=99))


# ----------------------------------------------------------------------
# load_checkpoint error paths
# ----------------------------------------------------------------------
def _written_checkpoint(tmp_path):
    config = small_config()
    traces = _workload()
    path = tmp_path / "good.ckpt"
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=5)
    sim.checkpoint(path)
    return path


def _rewrite_payload(path, mutate):
    document = json.loads(path.read_text())
    mutate(document["payload"])
    import hashlib

    body = _canonical(document["payload"])
    document["integrity"] = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(_canonical(document) + "\n")


def test_load_checkpoint_error_paths(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "absent.ckpt")

    garbage = tmp_path / "garbage.ckpt"
    garbage.write_text("{truncated")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(garbage)

    no_payload = tmp_path / "nopayload.ckpt"
    no_payload.write_text('{"integrity": "x"}')
    with pytest.raises(CheckpointError, match="no payload section"):
        load_checkpoint(no_payload)

    path = _written_checkpoint(tmp_path)
    document = json.loads(path.read_text())
    document["payload"]["state"]["engine"]["slot"] += 1  # silent corruption
    path.write_text(_canonical(document) + "\n")
    with pytest.raises(CheckpointError, match="integrity check"):
        load_checkpoint(path)


def test_load_checkpoint_version_gate(tmp_path):
    path = _written_checkpoint(tmp_path)

    def set_kind(payload):
        payload["kind"] = "something-else"

    _rewrite_payload(path, set_kind)
    with pytest.raises(CheckpointError, match="not a simulation checkpoint"):
        load_checkpoint(path)

    path = _written_checkpoint(tmp_path)

    def break_version(payload):
        payload["version"] = "two"

    _rewrite_payload(path, break_version)
    with pytest.raises(CheckpointError, match="malformed version"):
        load_checkpoint(path)

    path = _written_checkpoint(tmp_path)

    def newer_version(payload):
        payload["version"] = CHECKPOINT_VERSION + 1

    _rewrite_payload(path, newer_version)
    with pytest.raises(CheckpointError, match="newer repro build"):
        load_checkpoint(path)

    path = _written_checkpoint(tmp_path)

    def zero_version(payload):
        payload["version"] = 0

    _rewrite_payload(path, zero_version)
    with pytest.raises(CheckpointError, match="unsupported version"):
        load_checkpoint(path)


def test_checkpoint_metrics_counters(tmp_path):
    config = small_config()
    traces = _workload()
    path = tmp_path / "metered.ckpt"
    registry = MetricsRegistry()

    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=5)
    save_checkpoint(sim, path, registry=registry)
    load_checkpoint(path, registry=registry)

    rows = {row["name"]: row for row in registry.rows()}
    assert rows["checkpoint.saves"]["value"] == 1
    assert rows["checkpoint.restores"]["value"] == 1
    assert rows["checkpoint.bytes"]["value"] == len(path.read_bytes())


# ----------------------------------------------------------------------
# Torn writes: a kill mid-save never loses the previous generation
# ----------------------------------------------------------------------
def _interrupted_save(tmp_path, monkeypatch, boom, expect=None):
    """Write a valid checkpoint, then make the *next* save die in
    ``os.replace`` — the moment a torn write would clobber the target."""
    config = small_config()
    traces = _workload()
    path = tmp_path / "torn.ckpt"
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=9)
    sim.checkpoint(path)
    before = path.read_bytes()

    sim.engine.run(stop_at_slot=20)
    real_replace = os.replace

    def dying_replace(src, dst):
        raise boom

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(expect or type(boom)):
        sim.checkpoint(path)
    monkeypatch.setattr(os, "replace", real_replace)
    return config, traces, path, before


def test_torn_write_keeps_previous_checkpoint_valid(tmp_path, monkeypatch):
    # An ESSENTIAL save retries, then fails loudly as PersistenceError
    # (never a bare OSError: the retry budget is already spent).
    fileio.set_essential_retry(
        fileio.EssentialRetryPolicy(backoff_base=0.0)
    )
    try:
        config, traces, path, before = _interrupted_save(
            tmp_path, monkeypatch, OSError("disk full"),
            expect=PersistenceError,
        )
    finally:
        fileio.set_essential_retry(fileio.EssentialRetryPolicy())
    # The target was never touched and the failed write cleaned up its
    # own temp sibling — an ENOSPC mid-save leaks no partial data.
    assert path.read_bytes() == before
    assert not tmp_sibling(path).exists()
    restored = Simulator.restore(path, config, traces)
    assert restored.engine._slot == 9


def test_sigint_during_save_keeps_previous_checkpoint_valid(
    tmp_path, monkeypatch
):
    # KeyboardInterrupt is what an in-process SIGINT raises; landing it
    # inside the save path must leave the previous generation intact.
    config, traces, path, before = _interrupted_save(
        tmp_path, monkeypatch, KeyboardInterrupt()
    )
    assert path.read_bytes() == before
    restored = Simulator.restore(path, config, traces)
    resumed = restored.run()
    assert resumed.latencies() == Simulator(config, traces).run().latencies()


def test_sigterm_during_fsync_keeps_previous_checkpoint_valid(
    tmp_path, monkeypatch
):
    # Dying even earlier — during the temp file's fsync — is equally
    # safe: the target is untouched until the final rename.
    config = small_config()
    traces = _workload()
    path = tmp_path / "fsync.ckpt"
    sim = Simulator(config, traces)
    sim.engine.run(stop_at_slot=9)
    sim.checkpoint(path)
    before = path.read_bytes()

    sim.engine.run(stop_at_slot=20)

    def dying_fsync(fd):
        raise SystemExit(143)  # what a handled SIGTERM exits with

    monkeypatch.setattr(os, "fsync", dying_fsync)
    with pytest.raises(SystemExit):
        sim.checkpoint(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert Simulator.restore(path, config, traces).engine._slot == 9


# ----------------------------------------------------------------------
# simulate() / run_resumable() / CLI interval plumbing
# ----------------------------------------------------------------------
def _forbid_saves(monkeypatch):
    """A zero-progress drive loop would save forever; fail fast instead."""

    def no_save(*args, **kwargs):
        raise AssertionError("checkpoint saved with a non-positive interval")

    monkeypatch.setattr(
        "repro.robustness.checkpoint.save_checkpoint", no_save
    )


def test_simulate_rejects_interval_without_path(tmp_path, monkeypatch):
    with pytest.raises(ConfigurationError, match="without checkpoint_path"):
        simulate(small_config(), _workload(), checkpoint_every_slots=16)

    # A zero or negative interval makes no progress between saves.
    _forbid_saves(monkeypatch)
    path = tmp_path / "run.ckpt"
    for every in (0, -5):
        with pytest.raises(ConfigurationError, match="positive slot count"):
            simulate(
                small_config(),
                _workload(),
                checkpoint_path=path,
                checkpoint_every_slots=every,
            )
        with pytest.raises(ConfigurationError, match="positive slot count"):
            run_resumable(
                small_config(), _workload(), path=path, every_slots=every
            )
    assert not path.exists()


@pytest.mark.parametrize("every", ["0", "-5"])
def test_cli_rejects_nonpositive_checkpoint_interval(
    tmp_path, monkeypatch, capsys, every
):
    from repro.cli import main

    _forbid_saves(monkeypatch)
    path = tmp_path / "x.ckpt"
    status = main(
        [
            "simulate",
            "SS(1,16,4)",
            "--requests",
            "50",
            "--checkpoint",
            str(path),
            "--checkpoint-every",
            every,
        ]
    )
    assert status == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        f"error: --checkpoint-every must be a positive slot count, got {every}"
    ]
    assert not path.exists()


# ----------------------------------------------------------------------
# Satellite: manifest version gate
# ----------------------------------------------------------------------
def test_manifest_rejects_newer_version_with_actionable_error(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps({"version": MANIFEST_VERSION + 1, "tasks": {}}) + "\n"
    )
    with pytest.raises(CampaignError, match="newer repro build") as excinfo:
        RunManifest.load(path)
    # The error must tell the user what to *do*, not just what broke.
    assert "upgrade this installation" in str(excinfo.value)
    assert "delete the manifest" in str(excinfo.value)


# ----------------------------------------------------------------------
# Satellite: atomic metrics exporters
# ----------------------------------------------------------------------
def test_write_metrics_is_atomic_and_sweeps_stale_tmp(tmp_path):
    registry = MetricsRegistry()
    registry.counter("demo.count").inc(3)
    target = tmp_path / "metrics.jsonl"
    tmp_sibling(target).write_text("torn half-write from a dead process")

    write_metrics(registry, target)
    assert target.read_text() == metrics_to_jsonl(registry)
    assert not tmp_sibling(target).exists()


def test_write_metrics_torn_write_keeps_previous_export(
    tmp_path, monkeypatch
):
    registry = MetricsRegistry()
    registry.counter("demo.count").inc(1)
    target = tmp_path / "metrics.prom"
    write_metrics(registry, target)
    before = target.read_bytes()

    registry.counter("demo.count").inc(1)

    def dying_replace(src, dst):
        raise OSError("kill landed here")

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(ObservabilityError, match="cannot write metrics"):
        write_metrics(registry, target)
    monkeypatch.undo()
    assert target.read_bytes() == before


def test_atomic_write_text_respects_mkdir_flag(tmp_path):
    nested = tmp_path / "made" / "file.txt"
    atomic_write_text(nested, "hello\n")
    assert nested.read_text() == "hello\n"
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "absent" / "file.txt", "x", mkdir=False)
