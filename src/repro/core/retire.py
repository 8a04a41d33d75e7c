"""Per-thread in-order retirement (Section 2).

Instruction retirement is per-thread: each context retires its own
instructions in program order once they have executed and written back.
Retirement frees the physical register previously mapped to the
instruction's destination.  The commit bandwidth is shared, rotated
round-robin across threads each cycle so no context starves.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.core.uop import S_COMMITTED, S_DONE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator


class RetireUnit:
    """In-order, per-thread commit."""

    def __init__(self, sim: "Simulator"):
        self._sim = weakref.ref(sim)  # the simulator owns this unit

    def commit_cycle(self, cycle: int) -> None:
        sim = self._sim()
        budget = sim.cfg.commit_width
        n = sim.cfg.n_threads
        start = cycle % n
        for i in range(n):
            if budget <= 0:
                break
            thread = sim.threads[(start + i) % n]
            rob = thread.rob
            while budget > 0 and rob:
                uop = rob[0]
                if uop.state != S_DONE or uop.commit_ready_c > cycle:
                    break
                rob.popleft()
                uop.state = S_COMMITTED
                sim.renamer.commit(uop)
                if uop.is_store:
                    # Stores enter the thread's pending list at rename
                    # and commit in program order, so this one is its
                    # head.  A committed store has its D-cache outcome
                    # and can no longer hold back a load, so dropping it
                    # keeps the disambiguation walk to stores in flight.
                    del sim.pending_stores[uop.tid][0]
                budget -= 1
                if sim.commit_listener is not None:
                    sim.commit_listener(uop)
                if sim.measuring:
                    sim.stats.committed += 1
                    per_thread = sim.stats.committed_per_thread
                    per_thread[uop.tid] = per_thread.get(uop.tid, 0) + 1
