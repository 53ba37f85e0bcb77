"""A fixed reference kernel that measures how fast the host runs right now.

Other tenants of a shared host slow the interpreter by 30-40% for
seconds to minutes at a time, which moves a raw host time by more than
any useful bound.  The benchmark therefore runs :func:`kernel` between
the steps of each timed pass and divides each step's host time by the
host's speed measured next to it (see ``run.py``).  The kernel is a toy
trace-driven cache model written here, not in ``repro``, so a change to
the program never changes it: it does the same interpreted work in
every run and on every commit, with the program's mix of method calls,
attribute access, dict and list operations and small allocations.
"""

from __future__ import annotations

import random
import time
from collections import deque

#: The nominal speed, as host seconds of one :func:`kernel` call.  A
#: step's scaled time is its host time times ``KERNEL_NOMINAL_S`` over
#: the kernel's host time measured right after it: the step's time on a
#: host where the kernel takes this long.  On a shared 2-vCPU x86-64
#: host with CPython 3.11 the kernel took 22-45 ms.
KERNEL_NOMINAL_S = 0.030

_CORES = 4
_ACCESSES = 3000
_SETS = 64
_WAYS = 8


class _Line:
    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.dirty = False
        self.stamp = stamp


class _Cache:
    """A write-back LRU set-associative cache with dict-backed sets."""

    def __init__(self) -> None:
        self.sets = [{} for _ in range(_SETS)]
        self.clock = 0
        self.hits = 0
        self.writebacks = 0

    def access(self, block: int, write: bool) -> bool:
        self.clock += 1
        ways = self.sets[block % _SETS]
        line = ways.get(block)
        hit = line is not None
        if hit:
            self.hits += 1
        else:
            if len(ways) >= _WAYS:
                victim = min(ways.values(), key=lambda entry: entry.stamp)
                if victim.dirty:
                    self.writebacks += 1
                del ways[victim.tag]
            line = ways[block] = _Line(block, self.clock)
        line.stamp = self.clock
        if write:
            line.dirty = True
        return hit


def _traces():
    rng = random.Random(20240611)
    return [
        [(rng.randrange(_SETS * _WAYS * 3), rng.random() < 0.3) for _ in range(_ACCESSES)]
        for _ in range(_CORES)
    ]


_TRACES = _traces()


def kernel() -> int:
    """Run the reference model once; returns a checksum of its outcome."""
    cache = _Cache()
    pending = deque()
    cursors = [0] * _CORES
    slot = 0
    while True:
        owner = slot % _CORES
        slot += 1
        cursor = cursors[owner]
        if cursor < _ACCESSES:
            block, write = _TRACES[owner][cursor]
            cursors[owner] = cursor + 1
            if not cache.access(block, write):
                pending.append((owner, block, slot))
        if pending and (slot & 3) == 0:
            pending.popleft()
        if not pending and min(cursors) == _ACCESSES:
            return cache.hits * 7 + cache.writebacks * 3 + slot


#: The checksum :func:`kernel` must return; any other value means the
#: kernel did not do its fixed work.
KERNEL_CHECKSUM = kernel()


def kernel_time() -> float:
    """Host seconds of one :func:`kernel` call."""
    start = time.perf_counter()
    checksum = kernel()
    elapsed = time.perf_counter() - start
    if checksum != KERNEL_CHECKSUM:
        raise RuntimeError(f"reference kernel returned {checksum}, not {KERNEL_CHECKSUM}")
    return elapsed
