"""The run manifest's append-only journal: torn tails, faults, resume.

A campaign journals each finished task as one fsynced JSON line.  A
kill can stop an append anywhere, so every byte prefix of a finished
journal must load as a prefix of its entries, and a campaign resumed
from it must end with the bytes of an uninterrupted run.
"""

import json
from pathlib import Path

import pytest

from repro.common import fileio
from repro.common.errors import CampaignError
from repro.robustness.fuzz import run_fuzz
from repro.robustness.iofault import IoFaultKind, IoFaultPlan, IoFaultSpec, io_faults
from repro.robustness.runner import (
    MANIFEST_VERSION,
    CampaignResult,
    CampaignRunner,
    RetryPolicy,
    RunManifest,
    write_campaign_summaries,
)


@pytest.fixture(autouse=True)
def _fresh_io_state():
    fileio.reset_io_state()
    fileio.set_essential_retry(fileio.EssentialRetryPolicy(backoff_base=0.0))
    yield
    fileio.set_essential_retry(fileio.EssentialRetryPolicy())
    fileio.reset_io_state()


class Artifact:
    """A stand-in for a ``run_all`` artifact: named checks and a verdict."""

    def __init__(self, index):
        self.checks = {f"check-{index}": index % 3 != 0}
        self.passed = index % 3 != 0


def _tasks():
    tasks = [(f"artifact-{i}", lambda i=i: Artifact(i)) for i in range(5)]

    def broken():
        raise ValueError("no such artifact")

    tasks.insert(2, ("broken", broken))
    return tasks


def _campaign(target: Path) -> CampaignResult:
    """A miniature ``repro-llc all``: journalled tasks, then summaries."""
    runner = CampaignRunner(
        manifest_path=target / "manifest.json", retry=RetryPolicy(max_attempts=1)
    )
    result = runner.run(_tasks())
    write_campaign_summaries(target, result)
    return result


def _journal_lines(path: Path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _complete_records(prefix: bytes) -> int:
    """Task records in a journal prefix whose lines are complete."""
    return max(prefix.count(b"\n") - 1, 0)


def test_journal_is_a_header_then_one_line_per_task(tmp_path):
    _campaign(tmp_path)
    header, *records = _journal_lines(tmp_path / "manifest.json")
    assert header == {"version": MANIFEST_VERSION}
    assert [record["name"] for record in records] == [n for n, _ in _tasks()]
    assert records[2]["entry"]["status"] == "quarantined"


def test_each_record_appends_one_line(tmp_path):
    path = tmp_path / "m.json"
    manifest = RunManifest(path)
    sizes = []
    for index in range(3):
        manifest.record(f"t{index}", {"status": "done", "payload": index})
        sizes.append(path.stat().st_size)
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 4
    # Every record after the first grew the file by exactly its own line.
    assert sizes[1] - sizes[0] == len(lines[2])
    assert sizes[2] - sizes[1] == len(lines[3])


def test_last_line_of_a_name_wins(tmp_path):
    path = tmp_path / "m.json"
    manifest = RunManifest(path)
    manifest.record("flaky", {"status": "quarantined", "error": "boom"})
    manifest.record("other", {"status": "done"})
    manifest.record("flaky", {"status": "done", "error": None})
    loaded = RunManifest.load(path)
    assert loaded.is_done("flaky") and loaded.entry("flaky")["error"] is None
    assert set(loaded.tasks) == {"flaky", "other"}


def _cuts(journal: bytes, path: Path):
    """Load ``journal`` cut at every byte offset; yield (offset, manifest).

    Each cut is written over the one before, in place, so the sweep
    creates a single file however long the journal is.
    """
    path.touch()
    for offset in range(len(journal) + 1):
        with open(path, "r+b") as handle:
            handle.write(journal[:offset])
            handle.truncate(offset)
        yield offset, RunManifest.load(path)


def _assert_loads_as_prefixes(reference: Path, path: Path, names):
    """Every cut of ``reference`` loads as the complete lines before it.

    After the load, the manifest's entries and the file's bytes are
    those of the journal cut at the last line boundary at or before the
    offset.  A resumed campaign reads nothing else, so resuming from
    each line-boundary cut covers the resume from every byte offset.
    """
    journal = reference.read_bytes()
    full = RunManifest.load(reference).tasks
    for offset, loaded in _cuts(journal, path):
        kept = _complete_records(journal[:offset])
        context = f"journal cut at byte {offset}"
        assert list(loaded.tasks) == names[:kept], context
        assert all(loaded.tasks[n] == full[n] for n in loaded.tasks), context
        # A torn header leaves an empty file: rfind gives -1 there.
        boundary = journal[: journal.rfind(b"\n", 0, offset) + 1]
        assert path.read_bytes() == boundary, context


def _line_boundary_cuts(journal: bytes):
    """The journal cut after 0, 1, ... of its task records."""
    lines = journal.splitlines(keepends=True)
    yield b""
    for end in range(2, len(lines) + 1):
        yield b"".join(lines[:end])


def test_every_truncation_loads_a_prefix_and_resumes_to_the_same_summary(
    tmp_path,
):
    reference = tmp_path / "reference"
    reference.mkdir()
    _campaign(reference)
    journal = (reference / "manifest.json").read_bytes()
    (tmp_path / "sweep").mkdir()
    _assert_loads_as_prefixes(
        reference / "manifest.json",
        tmp_path / "sweep" / "manifest.json",
        [n for n, _ in _tasks()],
    )
    for kept, cut in enumerate(_line_boundary_cuts(journal)):
        killed = tmp_path / f"kept-{kept}"
        killed.mkdir()
        (killed / "manifest.json").write_bytes(cut)
        _campaign(killed)
        for summary in ("summary.json", "SUMMARY.txt"):
            assert (killed / summary).read_bytes() == (
                reference / summary
            ).read_bytes(), f"{kept} record(s) kept: {summary} differs"


def test_every_truncation_resumes_to_the_same_fuzz_report(tmp_path):
    reference = tmp_path / "reference"
    run_fuzz(budget=3, seed=1, out_dir=reference, shrink_failures=False)
    journal = (reference / "fuzz-manifest.json").read_bytes()
    report = (reference / "fuzz-report.json").read_bytes()
    (tmp_path / "sweep").mkdir()
    _assert_loads_as_prefixes(
        reference / "fuzz-manifest.json",
        tmp_path / "sweep" / "fuzz-manifest.json",
        [f"case-{index:05d}" for index in range(3)],
    )
    for kept, cut in enumerate(_line_boundary_cuts(journal)):
        killed = tmp_path / f"kept-{kept}"
        killed.mkdir()
        (killed / "fuzz-manifest.json").write_bytes(cut)
        run_fuzz(budget=3, seed=1, out_dir=killed, shrink_failures=False)
        assert (killed / "fuzz-report.json").read_bytes() == report, (
            f"{kept} record(s) kept"
        )


def test_malformed_middle_line_raises(tmp_path):
    path = tmp_path / "m.json"
    manifest = RunManifest(path)
    for name in ("a", "b", "c"):
        manifest.record(name, {"status": "done"})
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:10] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(CampaignError, match="line 3 is not JSON"):
        RunManifest.load(path)


def test_version_1_document_is_refused_with_the_remedy(tmp_path):
    path = tmp_path / "manifest.json"
    document = {
        "version": 1,
        "tasks": {"figure-7": {"status": "done", "payload": None}},
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    with pytest.raises(CampaignError, match="has version 1") as excinfo:
        RunManifest.load(path)
    assert "delete the manifest to start a fresh campaign" in str(excinfo.value)
    # Refused, not repaired: the old document is left as it was.
    assert json.loads(path.read_text()) == document


@pytest.mark.parametrize(
    "kind, op",
    [(IoFaultKind.SHORT_WRITE, "write"), (IoFaultKind.EIO, "fsync")],
)
@pytest.mark.parametrize("nth", [1, 2])
def test_faulted_append_leaves_one_well_formed_line(tmp_path, kind, op, nth):
    # nth=1 faults the append that creates the journal, nth=2 one that
    # extends it; the retry must leave exactly one line per record.
    path = tmp_path / "m.json"
    manifest = RunManifest(path)
    spec = IoFaultSpec(kind=kind, nth=nth, count=1, op=op, site="manifest")
    with io_faults(IoFaultPlan([spec])) as plan:
        for name in ("a", "b", "c"):
            manifest.record(name, {"status": "done", "payload": name * 40})
    assert plan.fired_count == 1
    assert fileio.io_metrics().counter("io.retry.manifest").value == 1
    header, *records = _journal_lines(path)
    assert header == {"version": MANIFEST_VERSION}
    assert [record["name"] for record in records] == ["a", "b", "c"]
    assert RunManifest.load(path).tasks == manifest.tasks
