"""Adversarial result-cache tests: tampered entries never surface.

The threat model is disk-level damage, not just clean version skew: a
flipped byte anywhere in an entry (including ones that break UTF-8), a
write truncated mid-record, or two entries whose payloads were swapped
on disk.  Every case must be *detected* (payload digest, kind/version
stamps, embedded key, event-log fingerprint), *counted* in the
``sim_cache.corruption`` metric, *deleted*, and the run transparently
recomputed with byte-identical output — stale or tampered bytes are
never trusted.
"""

import hashlib
import json

from sim_helpers import small_config, write_trace_of

from repro.obs.collect import collect_metrics
from repro.obs.exporters import metrics_to_jsonl
from repro.sim.cache import (
    SimResultCache,
    _canonical,
    event_log_fingerprint,
    result_cache_key,
)
from repro.sim.export import report_to_dict
from repro.sim.simulator import _simulate_uncached


def _traces(blocks_of=lambda core: [core * 16 + i for i in range(6)]):
    return {core: write_trace_of(blocks_of(core)) for core in range(2)}


def _counter(cache, name):
    return cache.registry.counter(f"sim_cache.{name}").value


def _surfaces(report, config):
    """Every byte surface a recomputed report must reproduce exactly."""
    metrics = collect_metrics(report, config.slot_width)
    return (
        json.dumps(report_to_dict(report), indent=2, sort_keys=True),
        metrics_to_jsonl(metrics),
        [str(event) for event in report.events.all()],
    )


def _populated_cache(tmp_path, config, traces):
    baseline = _simulate_uncached(config, traces)
    cache = SimResultCache(tmp_path)
    path = cache.store(config, traces, None, baseline)
    cache._memo.clear()
    return cache, baseline, path


def _assert_recovers(cache, config, traces, baseline):
    """After a detected defect the run recomputes byte-identically."""
    recomputed = _simulate_uncached(config, traces)
    assert _surfaces(recomputed, config) == _surfaces(baseline, config)
    cache.store(config, traces, None, recomputed)
    cache._memo.clear()
    replayed = cache.lookup(config, traces)
    assert replayed is not None
    assert _surfaces(replayed, config) == _surfaces(baseline, config)


def test_any_flipped_byte_is_detected(tmp_path):
    config = small_config(num_cores=2, record_events=True)
    traces = _traces()
    cache, baseline, path = _populated_cache(tmp_path, config, traces)
    original = path.read_bytes()

    # Sample positions across the whole document — the integrity
    # wrapper, the payload stamps, the report body, the trailing
    # newline — plus both ends.  A flip may break UTF-8, break JSON,
    # or leave valid JSON whose digest no longer matches; all three
    # routes must land in the corruption counter.
    positions = sorted(
        {0, 1, len(original) - 2, len(original) - 1}
        | set(range(2, len(original) - 2, max(1, len(original) // 23)))
    )
    # Include a flip of the high bit, which produces invalid UTF-8
    # inside an ASCII document.
    for flips, position in enumerate(positions, start=1):
        damaged = bytearray(original)
        damaged[position] ^= 0x80 if flips % 2 else 0x01
        path.write_bytes(bytes(damaged))
        cache._memo.clear()
        assert cache.lookup(config, traces) is None, (
            f"flipping byte {position} went undetected"
        )
        assert (
            _counter(cache, "corruption") + _counter(cache, "version_mismatch")
            == flips
        )
        assert not path.exists(), "a damaged entry must be deleted"
        path.write_bytes(original)

    path.unlink()
    _assert_recovers(cache, config, traces, baseline)


def test_truncation_mid_record_is_detected(tmp_path):
    config = small_config(num_cores=2, record_events=True)
    traces = _traces()
    cache, baseline, path = _populated_cache(tmp_path, config, traces)
    original = path.read_bytes()

    cuts = [0, 1, len(original) // 3, len(original) // 2, len(original) - 2]
    for count, cut in enumerate(cuts, start=1):
        path.write_bytes(original[:cut])
        cache._memo.clear()
        assert cache.lookup(config, traces) is None, (
            f"truncation at byte {cut} went undetected"
        )
        assert _counter(cache, "corruption") == count
        assert not path.exists()
        path.write_bytes(original)

    path.unlink()
    _assert_recovers(cache, config, traces, baseline)


def test_swapped_entries_are_detected(tmp_path):
    """Two intact entries with their payloads swapped on disk.

    Each file passes the integrity digest (its bytes are internally
    consistent) — only the embedded-key check can catch that the
    *wrong result* sits under the key's filename.
    """
    config = small_config(num_cores=2, record_events=True)
    traces_a = _traces()
    traces_b = _traces(lambda core: [core * 16 + 2 * i for i in range(8)])
    baseline_a = _simulate_uncached(config, traces_a)
    baseline_b = _simulate_uncached(config, traces_b)
    cache = SimResultCache(tmp_path)
    path_a = cache.store(config, traces_a, None, baseline_a)
    path_b = cache.store(config, traces_b, None, baseline_b)
    assert path_a != path_b

    bytes_a, bytes_b = path_a.read_bytes(), path_b.read_bytes()
    path_a.write_bytes(bytes_b)
    path_b.write_bytes(bytes_a)

    cache._memo.clear()
    assert cache.lookup(config, traces_a) is None
    assert cache.lookup(config, traces_b) is None
    assert _counter(cache, "corruption") == 2
    assert not path_a.exists() and not path_b.exists()

    _assert_recovers(cache, config, traces_a, baseline_a)
    _assert_recovers(cache, config, traces_b, baseline_b)


def _rewrap(payload) -> str:
    """Re-sign a (tampered) payload with a *valid* integrity digest."""
    body = _canonical(payload)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return '{"integrity":"%s","payload":%s}' % (digest, body) + "\n"


def test_resigned_event_tampering_is_caught_by_the_fingerprint(tmp_path):
    """An attacker who re-signs the outer digest still can't edit events.

    The event-log fingerprint is computed over the stored events at
    verification time, so a payload whose events were altered *and*
    whose integrity digest was recomputed to match is still rejected.
    """
    config = small_config(num_cores=2, record_events=True)
    traces = _traces()
    cache, baseline, path = _populated_cache(tmp_path, config, traces)

    document = json.loads(path.read_text())
    payload = document["payload"]
    assert payload["report"]["events"], "scenario must record events"
    payload["report"]["events"][0][0] += 1  # nudge one event's cycle
    path.write_text(_rewrap(payload))

    cache._memo.clear()
    assert cache.lookup(config, traces) is None
    assert _counter(cache, "corruption") == 1
    assert not path.exists()
    _assert_recovers(cache, config, traces, baseline)


def test_resigned_foreign_kind_is_rejected(tmp_path):
    config = small_config(num_cores=2)
    traces = _traces()
    cache, baseline, path = _populated_cache(tmp_path, config, traces)

    document = json.loads(path.read_text())
    payload = document["payload"]
    payload["kind"] = "repro-checkpoint"
    path.write_text(_rewrap(payload))

    cache._memo.clear()
    assert cache.lookup(config, traces) is None
    assert _counter(cache, "corruption") == 1
    _assert_recovers(cache, config, traces, baseline)


def test_verify_sweep_finds_the_same_defects_a_lookup_would(tmp_path):
    config = small_config(num_cores=2, record_events=True)
    traces_good = _traces()
    traces_bad = _traces(lambda core: [core * 16 + 3 * i for i in range(5)])
    cache = SimResultCache(tmp_path)
    good = cache.store(
        config, traces_good, None, _simulate_uncached(config, traces_good)
    )
    bad = cache.store(
        config, traces_bad, None, _simulate_uncached(config, traces_bad)
    )
    damaged = bytearray(bad.read_bytes())
    damaged[len(damaged) // 2] ^= 0x80  # invalid UTF-8 mid-file
    bad.write_bytes(bytes(damaged))

    ok, removed = cache.verify()
    assert ok == [good]
    assert removed == [bad]
    assert _counter(cache, "corruption") == 1
    assert not bad.exists() and good.exists()

    # The surviving entry still replays.
    cache._memo.clear()
    assert cache.lookup(config, traces_good) is not None


def test_corruption_never_counts_as_version_mismatch(tmp_path):
    """The two defect classes are counted apart (distinct remedies).

    The defect decides the counter, not the words of its message, which
    quote the entry path: a cache directory whose name says "version"
    must still count corruption.
    """
    config = small_config(num_cores=2)
    traces = _traces()
    for directory in (tmp_path, tmp_path / "version2-cache"):
        cache, _, path = _populated_cache(directory, config, traces)
        key = result_cache_key(config, traces)
        assert path == cache.entry_path(key)

        path.write_bytes(b"\xff\xfe not an entry")
        cache._memo.clear()
        cache.lookup(config, traces)
        assert _counter(cache, "corruption") == 1, directory
        assert _counter(cache, "version_mismatch") == 0, directory


def test_event_fingerprint_matches_helper(tmp_path):
    config = small_config(num_cores=2, record_events=True)
    traces = _traces()
    cache, _, path = _populated_cache(tmp_path, config, traces)
    payload = json.loads(path.read_text())["payload"]
    assert payload["event_fingerprint"] == event_log_fingerprint(
        payload["report"]["events"]
    )
