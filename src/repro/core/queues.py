"""Instruction queues (Sections 2.1 and 5.3).

Two queues, following the paper: a 32-entry integer queue that handles
integer instructions **and all load/store operations**, and a 32-entry
floating-point queue for FP arithmetic.  Entries are kept in dispatch
(age) order; issue selection walks the first ``search_window`` entries.

The BIGQ variant doubles the capacity while keeping the search window at
32: the back half buffers instructions from the fetch unit when the
searchable part overflows, exactly as described in Section 5.3.

An entry is occupied from dispatch until the instruction issues — plus,
for optimistically issued instructions, the extra cycles until it is
known they won't be squashed (Section 2); a squash returns the entry to
the waiting state.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.core.uop import S_ISSUED, S_QUEUED, Uop


class InstructionQueue:
    """One of the two instruction queues."""

    def __init__(self, name: str, capacity: int, search_window: int):
        if search_window > capacity:
            raise ValueError("search window cannot exceed capacity")
        self.name = name
        self.capacity = capacity
        self.search_window = search_window
        #: Age-ordered entries.  An entry leaves the list only when its
        #: IQ slot is finally released (``uop.iq_freed``), not at issue.
        self.entries: List[Uop] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def add(self, uop: Uop) -> None:
        if self.full:
            raise RuntimeError(f"{self.name} queue overflow")
        self.entries.append(uop)

    # ------------------------------------------------------------------
    def searchable(self) -> Iterator[Uop]:
        """Entries visible to the issue logic, in age order."""
        return iter(self.entries[: self.search_window])

    def waiting(self) -> List[Uop]:
        """Searchable entries still waiting to issue."""
        entries = self.entries
        if len(entries) > self.search_window:
            entries = entries[: self.search_window]
        return [uop for uop in entries if uop.state == S_QUEUED]

    # ------------------------------------------------------------------
    def release_freed(self) -> None:
        """Drop entries whose slot has been released."""
        entries = self.entries
        for uop in entries:
            if uop.iq_freed:
                # In place: the fast-step loop binds this list once.
                entries[:] = [u for u in entries if not u.iq_freed]
                return

    # ------------------------------------------------------------------
    def population(self) -> int:
        """Occupied entries (queued + issued-but-not-released)."""
        return len(self.entries)

    def oldest_position_of_thread(self, tid: int) -> int:
        """Age rank of the thread's oldest *waiting* entry (IQPOSN).

        Returns a large sentinel if the thread has nothing waiting — a
        thread with no queued instructions cannot be clogging the queue.
        """
        for pos, uop in enumerate(self.entries):
            if uop.tid == tid and uop.state == S_QUEUED:
                return pos
        return 1 << 30
