"""Per-hardware-context state.

A :class:`ThreadContext` owns a cursor into its program's correct-path
stream (the oracle, shared by every context of the process that runs
the program), the thread's fetch PC and path state (correct vs wrong
path after a misprediction), its reorder buffer, and the per-thread
counters behind the BRCOUNT / MISSCOUNT / ICOUNT fetch heuristics.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.isa.emulator import OracleRecord
from repro.isa.program import DATA_BASE, Program
from repro.isa.stream import StreamCursor
from repro.core.uop import Uop

#: Distinct physical address spaces per context: the multiprogrammed
#: workload shares no cache or TLB state between threads (Section 3).
ADDRESS_SPACE_STRIDE = 1 << 28
_PAGE_SHIFT = 13
_PAGE_MASK = (1 << _PAGE_SHIFT) - 1

#: Sentinel for "blocked until further notice" (resolved by an event).
BLOCKED = 1 << 60


class ThreadContext:
    """All per-context state outside the shared pipeline structures."""

    def __init__(self, tid: int, program: Program):
        self.tid = tid
        self.program = program
        #: Position in the program's correct-path stream: ``pos`` is
        #: the number of correct-path instructions fetch (or functional
        #: warmup) has consumed.
        self.cursor = StreamCursor(program)
        self.on_correct_path = True
        self.fetch_pc: int = program.entry
        #: The thread may not fetch before this cycle (misfetch bubbles,
        #: I-cache misses, exec-resolved redirects use BLOCKED).
        self.fetch_blocked_until = 0
        #: Reorder buffer: program-order list of in-flight uops.
        self.rob: Deque[Uop] = deque()
        #: Next fetch sequence number (program order within the thread).
        self.next_seq = 0
        # ---- fetch-policy feedback counters -------------------------
        #: Instructions fetched but not yet issued (ICOUNT).
        self.unissued_count = 0
        #: Control instructions fetched but not yet executed (BRCOUNT).
        self.unresolved_branches = 0
        #: Completion cycles of outstanding D-cache misses (MISSCOUNT).
        self.outstanding_misses: List[int] = []
        # ---- speculation bookkeeping --------------------------------
        #: Issue cycles of same-thread branches not yet issued / recently
        #: issued, for the Section 7 restricted-speculation modes.
        self.wrong_path_seq_start: Optional[int] = None
        #: Most recent correct-path data address (for wrong-path load
        #: address synthesis).
        self.last_data_addr: int = DATA_BASE
        #: Physical line number of an I-cache miss whose fill will be
        #: delivered straight to the fetch unit when it completes (the
        #: MSHR forwards the data even if the line is evicted again by a
        #: competing thread before the retry — without this, two threads
        #: whose hot lines collide in the direct-mapped I-cache can
        #: livelock evicting each other).
        self.pending_ifill_line: Optional[int] = None
        # Address-space offset for shared (physically indexed) structures.
        self.asid_offset = tid * ADDRESS_SPACE_STRIDE
        self._frames: dict = {}

    # ------------------------------------------------------------------
    def phys_addr(self, vaddr: int) -> int:
        """Virtual-to-physical mapping with pseudo-random page colouring.

        A real OS assigns physical frames essentially arbitrarily, so
        identical virtual layouts in different processes land on
        *different* cache sets.  Without this, every context's hot lines
        would collide pairwise in the direct-mapped L1s (8 KiB pages on a
        32 KiB cache give only four page colours) and thrash
        pathologically.  The mapping XORs a per-thread hash into the low
        frame bits, bijectively within each 8-page group.
        """
        page = vaddr >> _PAGE_SHIFT
        frame = self._frames.get(page)
        if frame is None:
            h = (((page >> 3) * 1103515245 + self.tid * 12345) >> 4) & 7
            frame = page ^ h
            self._frames[page] = frame
        return self.asid_offset + (frame << _PAGE_SHIFT) + (vaddr & _PAGE_MASK)

    # ------------------------------------------------------------------
    def oracle_pop(self) -> OracleRecord:
        """Consume the next correct-path instruction (the reference
        fetch unit's path; the fast loop reads the stream inline)."""
        return self.cursor.pop()

    # ------------------------------------------------------------------
    def misscount(self, cycle: int) -> int:
        """Outstanding D-cache misses (pruning completed ones)."""
        if self.outstanding_misses:
            self.outstanding_misses = [
                c for c in self.outstanding_misses if c > cycle
            ]
        return len(self.outstanding_misses)

    # ------------------------------------------------------------------
    def wrong_path_load_address(self, pc: int, seq: int) -> int:
        """Deterministic synthetic address for a wrong-path load.

        Wrong-path loads on real hardware compute addresses from stale
        register values, so they land near the data the thread was just
        touching: hash within a small window around the last correct-path
        data address (falling back to the data base when none is known).
        """
        h = (pc * 2654435761 + seq * 0x9E3779B9) & 0xFFFF_FFFF
        base = self.last_data_addr - (self.last_data_addr % 8)
        offset = (h % 4096) & ~0x7
        addr = base + offset - 2048
        limit = DATA_BASE + self.program.data.size - 8
        if addr < DATA_BASE:
            addr = DATA_BASE
        elif addr > limit:
            addr = limit
        return addr - (addr % 8)

    def __repr__(self) -> str:
        path = "correct" if self.on_correct_path else "wrong"
        return (
            f"ThreadContext(t{self.tid} {self.program.name} pc={self.fetch_pc:#x} "
            f"{path}-path rob={len(self.rob)})"
        )
