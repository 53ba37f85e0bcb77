"""Crash-consistent file writes behind one instrumented I/O seam.

Every durable artifact this library writes — campaign manifests,
metrics exports, simulation checkpoints, result-cache entries, trace
sinks — must survive a kill at any instant with either the *previous*
complete generation or the *new* complete generation on disk, never a
truncated hybrid.  The recipe is the classic one (write a sibling temp
file, ``fsync`` it, atomically ``os.replace`` it over the target, then
``fsync`` the directory so the rename itself is durable), and it lives
here so every persistence layer shares one audited implementation
instead of several drifting copies.  Append-only journals, whose
reader drops a torn last record, take the cheaper :func:`append_text`.

Beyond crash consistency this module is the package's single **I/O
seam**: each primitive operation (open / write / fsync / replace /
fsync-dir / read) is labelled with the *site* that issued it
("manifest", "result-cache", "checkpoint", "metrics-export", ...) and
checked against an installable fault hook before touching the kernel.
:mod:`repro.robustness.iofault` installs seeded, deterministic fault
plans through that hook; production runs pay one ``None`` check per
operation.

Failures are governed by a two-class **durability policy**
(:class:`Durability`, applied by :func:`persist_text`):

``ESSENTIAL``
    Artifacts the user asked for (manifests, figure/report outputs,
    ``--metrics`` / explicit ``--checkpoint`` files, trace sinks).
    Bounded retry with exponential backoff; if the write still fails,
    a loud :class:`~repro.common.errors.PersistenceError` naming the
    path, site and errno propagates and the process exits nonzero.

``BEST_EFFORT``
    Acceleration/convenience state the run can recompute (result-cache
    entries).  A per-site circuit breaker disables
    the store after :data:`DEGRADE_AFTER` consecutive failures with a
    one-line stderr notice; every lost write is counted in the
    ``io.degraded.*`` / ``io.skipped.*`` metrics and the run continues
    with byte-identical results.

A crash *between* writing the temp file and the rename can orphan a
``<name>.tmp`` sibling; it never holds state the target lacks, so
readers call :func:`cleanup_stale_tmp` on startup.  A *failure* inside
:func:`atomic_write_text` unlinks its own temp file best-effort, so an
ENOSPC mid-write does not leak partial data either.
"""

from __future__ import annotations

import enum
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.common.errors import PersistenceError

#: Operation labels the seam distinguishes.  Fault specs may filter on
#: them ("write", "fsync", "replace", ...); "fsync-dir" is the
#: directory flush after a rename.
IO_OPS = ("open", "write", "fsync", "replace", "fsync-dir", "read")

#: Consecutive best-effort failures after which a site's circuit
#: breaker opens and the store is disabled for the rest of the run.
DEGRADE_AFTER = 3


@dataclass(frozen=True)
class IoOperation:
    """One primitive I/O operation about to be issued through the seam."""

    op: str
    path: Path
    site: str

    def describe(self) -> str:
        return f"{self.op}[{self.site}] {self.path}"


@dataclass(frozen=True)
class IoFaultAction:
    """What an installed fault hook wants done to one operation.

    ``error`` alone: raise it instead of performing the operation.
    ``short_write_fraction`` (write ops): write only that prefix of the
    text, flush it, then raise ``error`` — models a partial write that
    reached the disk before the failure.  ``corrupt`` (read ops):
    perform the read, then pass the bytes through the callable —
    models silent media corruption that integrity checks must catch.
    """

    error: Optional[OSError] = None
    short_write_fraction: Optional[float] = None
    corrupt: Optional[Callable[[bytes], bytes]] = None


# The installable fault hook: consulted before every seam operation.
# Returns None (proceed normally) or an IoFaultAction.
IoFaultHook = Callable[[IoOperation], Optional[IoFaultAction]]

_FAULT_HOOK: Optional[IoFaultHook] = None


def install_io_fault_hook(hook: IoFaultHook) -> None:
    """Install ``hook`` as the process-wide I/O fault hook.

    Replaces any previously installed hook.  Fork-based workers inherit
    the installed hook, so a fault plan installed before a parallel
    campaign governs the workers too.
    """
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def clear_io_fault_hook() -> None:
    """Remove the installed I/O fault hook (no-op when none is set)."""
    global _FAULT_HOOK
    _FAULT_HOOK = None


# --------------------------------------------------------------------------
# io.* metrics
# --------------------------------------------------------------------------

_IO_REGISTRY = None  # lazily created repro.obs.metrics.MetricsRegistry


def io_metrics():
    """The process-wide registry holding ``io.*`` counters (lazy)."""
    global _IO_REGISTRY
    if _IO_REGISTRY is None:
        from repro.obs.metrics import MetricsRegistry

        _IO_REGISTRY = MetricsRegistry()
    return _IO_REGISTRY


def count_io(name: str) -> None:
    """Increment the ``io.*`` counter ``name`` by one."""
    io_metrics().counter(name).inc()


def reset_io_state() -> None:
    """Reset the seam's process-wide state (hook, metrics, breakers).

    Test fixtures call this between cases so a breaker tripped by one
    injected fault schedule cannot silently disable a store in the
    next; the CLI calls it at entry so every invocation starts with
    closed breakers and zeroed ``io.*`` counters.
    """
    global _IO_REGISTRY
    clear_io_fault_hook()
    _IO_REGISTRY = None
    _BREAKERS.clear()


# --------------------------------------------------------------------------
# Seam primitives
# --------------------------------------------------------------------------


def check_io(op: str, path: Union[str, Path], site: str) -> Optional[IoFaultAction]:
    """Consult the fault hook for one operation; raise plain faults.

    Returns the action only when it needs cooperation from the caller
    (short write, read corruption); a plain injected error is raised
    here so most call sites stay one-liners.
    """
    hook = _FAULT_HOOK
    if hook is None:
        return None
    action = hook(IoOperation(op=op, path=Path(path), site=site))
    if action is None:
        return None
    if (
        action.error is not None
        and action.short_write_fraction is None
        and action.corrupt is None
    ):
        raise action.error
    return action


def guarded_write(handle, text, path: Union[str, Path], site: str) -> None:
    """Write ``text`` to ``handle`` through the seam (short-write aware)."""
    action = check_io("write", path, site)
    if action is None:
        handle.write(text)
        return
    if action.short_write_fraction is not None:
        prefix = text[: int(len(text) * action.short_write_fraction)]
        handle.write(prefix)
        handle.flush()
    if action.error is not None:
        raise action.error


def guarded_fsync(handle, path: Union[str, Path], site: str) -> None:
    """``os.fsync(handle)`` through the seam."""
    check_io("fsync", path, site)
    os.fsync(handle.fileno())


def guarded_replace(tmp: Path, path: Path, site: str) -> None:
    """``os.replace(tmp, path)`` through the seam."""
    check_io("replace", path, site)
    os.replace(tmp, path)


def read_bytes(path: Union[str, Path], site: str = "unlabelled") -> bytes:
    """Read a file's bytes through the seam (corruption-injectable)."""
    path = Path(path)
    action = check_io("read", path, site)
    data = path.read_bytes()
    if action is not None and action.corrupt is not None:
        data = action.corrupt(data)
    return data


def read_text(path: Union[str, Path], site: str = "unlabelled") -> str:
    """Read a file's text through the seam (corruption-injectable)."""
    return read_bytes(path, site=site).decode("utf-8")


# --------------------------------------------------------------------------
# Crash-consistent writes
# --------------------------------------------------------------------------


def tmp_sibling(path: Union[str, Path]) -> Path:
    """The temp-file sibling :func:`atomic_write_text` stages through."""
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def cleanup_stale_tmp(path: Union[str, Path]) -> None:
    """Remove an orphaned ``.tmp`` sibling left by a crash mid-write."""
    tmp_sibling(path).unlink(missing_ok=True)


def sweep_stale_tmp(directory: Union[str, Path]) -> int:
    """Remove every orphaned ``*.tmp`` in ``directory``; return the count.

    The per-file :func:`cleanup_stale_tmp` needs to know the target
    name; directory-granular stores (the result cache) instead sweep
    all orphans at startup, before any entry of the directory is read.
    """
    directory = Path(directory)
    removed = 0
    if not directory.is_dir():
        return removed
    for orphan in sorted(directory.glob("*.tmp")):
        orphan.unlink(missing_ok=True)
        removed += 1
    return removed


def fsync_directory(directory: Union[str, Path], site: str = "unlabelled") -> None:
    """Flush a directory so a completed rename survives power loss.

    Failure here is tolerated (some filesystems refuse directory
    fsync) but no longer invisible: every swallow is counted in
    ``io.swallowed.fsync-dir`` so a store that silently lost its
    rename durability shows up in the metrics export.
    """
    try:
        check_io("fsync-dir", directory, site)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        count_io("io.swallowed.fsync-dir")


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    mkdir: bool = True,
    site: str = "unlabelled",
) -> Path:
    """Write ``text`` to ``path`` crash-consistently; return the path.

    The parent directory is created if missing (unless ``mkdir`` is
    False — callers that treat a missing parent as a user error pass
    that and map the resulting :class:`OSError`).  A reader never
    observes a partial file: until the final ``os.replace`` the target
    holds its previous content (or does not exist), and afterwards it
    holds exactly ``text``.

    If any step fails (ENOSPC mid-write, fsync error, rename error)
    the staged ``.tmp`` sibling is unlinked best-effort before the
    exception propagates, so a failed write leaks no partial data.
    """
    path = Path(path)
    if mkdir:
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = tmp_sibling(path)
    try:
        check_io("open", tmp, site)
        with open(tmp, "w") as handle:
            guarded_write(handle, text, tmp, site)
            handle.flush()
            guarded_fsync(handle, tmp, site)
        guarded_replace(tmp, path, site)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            count_io("io.swallowed.tmp-unlink")
        raise
    fsync_directory(path.parent, site=site)
    return path


# --------------------------------------------------------------------------
# Durability policy
# --------------------------------------------------------------------------


class Durability(enum.Enum):
    """How hard :func:`persist_text` fights for an artifact."""

    #: User-requested output: retry with backoff, then fail loudly.
    ESSENTIAL = "essential"
    #: Recomputable acceleration state: degrade through a breaker.
    BEST_EFFORT = "best-effort"


@dataclass(frozen=True)
class EssentialRetryPolicy:
    """Bounded retry schedule for ESSENTIAL writes."""

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff_base * (self.backoff_factor ** (attempt - 1))


_RETRY_POLICY = EssentialRetryPolicy()
_sleep = time.sleep  # monkeypatchable in tests


def set_essential_retry(policy: EssentialRetryPolicy) -> None:
    """Replace the process-wide ESSENTIAL retry policy (tests, tuning)."""
    global _RETRY_POLICY
    _RETRY_POLICY = policy


class CircuitBreaker:
    """Consecutive-failure breaker guarding one BEST-EFFORT site."""

    def __init__(self, site: str, threshold: int = DEGRADE_AFTER) -> None:
        self.site = site
        self.threshold = threshold
        self.consecutive_failures = 0
        self.open = False

    def record_failure(self) -> bool:
        """Note a failure; return True when this one tripped the breaker."""
        self.consecutive_failures += 1
        if not self.open and self.consecutive_failures >= self.threshold:
            self.open = True
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0


_BREAKERS: Dict[str, CircuitBreaker] = {}


def circuit_breaker(site: str) -> CircuitBreaker:
    """The (lazily created) breaker guarding ``site``."""
    breaker = _BREAKERS.get(site)
    if breaker is None:
        breaker = _BREAKERS[site] = CircuitBreaker(site)
    return breaker


def _retry_essential(path: Path, site: str, attempt: Callable[[], Any]) -> Any:
    """Run a write ``attempt`` up to ``max_attempts`` times with backoff
    (``io.retry.<site>`` per retry), then raise :class:`PersistenceError`
    naming the path, site and errno."""
    policy = _RETRY_POLICY
    last: Optional[OSError] = None
    for number in range(1, policy.max_attempts + 1):
        try:
            return attempt()
        except OSError as exc:
            last = exc
            count_io(f"io.fault.{site}")
            if number < policy.max_attempts:
                count_io(f"io.retry.{site}")
                _sleep(policy.delay(number))
    errno_part = f" [errno {last.errno}]" if getattr(last, "errno", None) else ""
    raise PersistenceError(
        f"cannot persist essential artifact {path} (site '{site}')"
        f" after {policy.max_attempts} attempt(s): {last}{errno_part};"
        " free disk space / fix permissions on the target directory"
        " and re-run — completed work is resumable from the manifest"
    ) from last


def persist_text(
    path: Union[str, Path],
    text: str,
    *,
    site: str,
    durability: Durability = Durability.ESSENTIAL,
    mkdir: bool = True,
) -> Optional[Path]:
    """Write ``text`` to ``path`` under the durability policy.

    ESSENTIAL: retried, then a loud
    :class:`~repro.common.errors.PersistenceError` (see
    :func:`_retry_essential`).  Returns the path on success.

    BEST_EFFORT: one attempt through the site's circuit breaker.
    Returns the path on success, ``None`` when the write was lost —
    either skipped because the breaker is already open
    (``io.skipped.<site>``) or failed and degraded
    (``io.degraded.<site>``).  The breaker opens after
    :data:`DEGRADE_AFTER` consecutive failures with a one-line stderr
    notice; the caller continues without the store.
    """
    path = Path(path)
    if durability is Durability.ESSENTIAL:
        return _retry_essential(
            path, site, lambda: atomic_write_text(path, text, mkdir=mkdir, site=site)
        )
    breaker = circuit_breaker(site)
    if breaker.open:
        count_io(f"io.skipped.{site}")
        return None
    try:
        result = atomic_write_text(path, text, mkdir=mkdir, site=site)
    except OSError as exc:
        count_io(f"io.fault.{site}")
        count_io(f"io.degraded.{site}")
        if breaker.record_failure():
            print(
                f"io: best-effort store '{site}' disabled after"
                f" {breaker.threshold} consecutive failures"
                f" (last: {exc}); run continues without it",
                file=sys.stderr,
            )
        return None
    breaker.record_success()
    return result


def append_text(
    path: Union[str, Path], text: str, *, length: int, site: str
) -> int:
    """Durably write ``text`` at byte ``length`` of ``path``; return the new length.

    ``length == 0`` starts the file afresh and fsyncs its directory once.
    Each ESSENTIAL attempt opens, writes, fsyncs and closes through the
    seam; a failed one truncates the file back to ``length`` before the
    retry, so no torn or doubled record is left behind.
    """
    path = Path(path)
    data = text.encode()

    def attempt() -> int:
        if not length:
            path.parent.mkdir(parents=True, exist_ok=True)
        try:
            check_io("open", path, site)
            with open(path, "r+b" if length else "wb") as handle:
                handle.seek(length)
                guarded_write(handle, data, path, site)
                handle.flush()
                guarded_fsync(handle, path, site)
        except BaseException:
            if path.exists():
                os.truncate(path, length)
            raise
        if not length:
            fsync_directory(path.parent, site=site)
        return length + len(data)

    return _retry_essential(path, site, attempt)
