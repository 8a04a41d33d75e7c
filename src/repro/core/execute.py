"""The execute stage: branch resolution, memory access, optimistic-issue
squash (Sections 2 and 6).

An instruction issued at cycle ``t`` reaches the execute stage at
``t + exec_offset`` (3 on the SMT pipeline — two register-read stages —
and 2 on the conventional pipeline).  At that point:

* **branches/jumps** resolve: mispredictions train the predictor,
  schedule a fetch redirect, and squash the thread's younger (wrong-
  path) instructions effective one cycle later;
* **loads** access the D-cache: on a miss or bank conflict, dependents
  that issued optimistically (assuming the 1-cycle load-hit latency) are
  squashed back into the queue, transitively;
* **stores** access the D-cache (retrying on bank conflicts) and
  complete once accepted;
* everything else simply completes after its latency.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, List

from repro.core.uop import S_DONE, S_ISSUED, S_QUEUED, Uop

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator


class ExecuteUnit:
    """Processes the exec-stage events scheduled by the issue unit."""

    def __init__(self, sim: "Simulator"):
        self._sim = weakref.ref(sim)  # the simulator owns this unit

    # ------------------------------------------------------------------
    def execute_cycle(self, cycle: int) -> None:
        sim = self._sim()
        uops = sim.pending_exec.pop(cycle, None)
        if not uops:
            return
        for uop in uops:
            if uop.state != S_ISSUED or uop.exec_c != cycle:
                continue  # squashed, or optimistically re-queued
            if uop.is_load:
                self._execute_load(uop, cycle)
            elif uop.is_store:
                self._execute_store(uop, cycle)
            else:
                self._execute_alu(uop, cycle)

    # ------------------------------------------------------------------
    def _finish(self, uop: Uop, complete_cycle: int) -> None:
        """Completion common path: the instruction has executed."""
        sim = self._sim()
        uop.complete_c = complete_cycle
        uop.commit_ready_c = complete_cycle + 1  # register-write stage
        uop.state = S_DONE
        uop.iq_freed = True
        sim.renamer.confirm_producer(uop)
        if uop.is_control:
            sim.threads[uop.tid].unresolved_branches -= 1
            sim.prune_pending_branch(uop)

    # ------------------------------------------------------------------
    def _execute_alu(self, uop: Uop, cycle: int) -> None:
        if uop.is_control:
            self._resolve_control(uop, cycle)
        self._finish(uop, cycle + max(0, uop.latency - 1))

    # ------------------------------------------------------------------
    def _resolve_control(self, uop: Uop, cycle: int) -> None:
        """Branch/jump resolution and misprediction handling."""
        sim = self._sim()
        if uop.wrong_path:
            # Wrong-path control instructions die at the squash; they are
            # modelled as resolving the way they were predicted and do
            # not train the predictor (they would be cancelled before
            # update on real hardware).
            return

        instr = uop.instr
        if sim.measuring:
            if uop.is_cond_branch:
                sim.stats.cond_branches_resolved += 1
                if uop.mispredicted:
                    sim.stats.cond_branch_mispredicts += 1
            elif instr.is_indirect:
                sim.stats.jumps_resolved += 1
                if uop.mispredicted:
                    sim.stats.jump_mispredicts += 1

        taken = bool(uop.actual_taken)
        target = uop.actual_target if taken else None
        sim.predictor.resolve(uop.tid, uop.pc, instr, uop.prediction, taken, target)

        if uop.mispredicted:
            # Squash is effective one cycle after discovery (wrong-path
            # instructions may still issue — and fetch — this cycle);
            # fetch resumes at the actual target then.  Predictor state
            # (history register, return stack) is repaired when the
            # squash applies, after the last wrong-path fetch.
            sim.schedule_mispredict_squash(uop, cycle + 1)

    # ------------------------------------------------------------------
    def _execute_load(self, uop: Uop, cycle: int) -> None:
        sim = self._sim()
        addr = sim.threads[uop.tid].phys_addr(uop.eff_addr)
        access = sim.hierarchy.daccess(uop.tid, addr, cycle)

        if access.l1_hit and access.ready_cycle <= cycle:
            uop.dcache_hit = True
            # Re-arm the wakeup if it isn't live: conservative mode never
            # set one, and a bank-conflict retry retracted the original.
            if uop.dest_preg is not None:
                rf = sim.renamer.file_for(uop.dest_is_fp)
                if rf.ready[uop.dest_preg] > cycle:
                    sim.renamer.set_wakeup(uop, cycle)
            self._finish(uop, cycle)
            return
        self._load_missed(uop, cycle, access.ready_cycle, access.rejected)

    def _load_missed(self, uop: Uop, cycle: int, ready_cycle: int,
                     rejected: bool) -> None:
        """A load's D-cache access was rejected, missed, or hit with its
        data late (a TLB refill); the fast-step loop inlines the on-time
        hit above and delegates here."""
        sim = self._sim()
        if rejected:
            # Bank conflict (or MSHRs full): squash optimistic dependents
            # and retry the access next cycle (Section 2's second squash
            # cause).
            self._squash_optimistic_consumers(uop, cycle)
            uop.exec_c = cycle + 1
            sim.schedule_exec(uop)
            return

        # L1 miss (or TLB refill): dependents issued on the optimistic
        # 1-cycle assumption are squashed; the register becomes ready
        # when the fill returns.
        uop.dcache_hit = False
        self._squash_optimistic_consumers(uop, cycle)
        ready = max(ready_cycle, cycle + 1)
        wakeup = max(ready - sim.cfg.exec_offset + 1, cycle + 1)
        sim.renamer.set_wakeup(uop, wakeup)
        # Drop the misses that have completed by now: every later
        # ``misscount`` passes a cycle no earlier than this one, so it
        # would drop them too, and the list stays in-flight sized.
        thread = sim.threads[uop.tid]
        if thread.outstanding_misses:
            thread.misscount(cycle)
        thread.outstanding_misses.append(ready)
        self._finish(uop, ready)

    # ------------------------------------------------------------------
    def _execute_store(self, uop: Uop, cycle: int) -> None:
        sim = self._sim()
        thread = sim.threads[uop.tid]
        addr = thread.phys_addr(uop.eff_addr)
        access = sim.hierarchy.daccess(uop.tid, addr, cycle, is_store=True)
        if access.rejected:
            uop.exec_c = cycle + 1
            sim.schedule_exec(uop)
            return
        # The store retires into the hierarchy's write path; the miss (if
        # any) completes in the background and the instruction itself
        # completes now.
        uop.dcache_hit = access.l1_hit
        self._finish(uop, cycle)

    # ------------------------------------------------------------------
    def _squash_optimistic_consumers(self, producer: Uop, cycle: int) -> None:
        """Undo the issue of instructions that consumed ``producer``'s
        optimistic wakeup, transitively.

        Anything issued after ``producer`` whose sources are no longer
        ready at its own issue cycle must re-issue later; it returns to
        the queue (still holding its entry) and its own wakeup is
        retracted, which can cascade.

        One pass over ``in_flight_issued`` reaches the fixed point,
        because every in-flight consumer is listed after its in-flight
        producers.  The list runs by execute cycle, and within one
        cycle in the order uops were scheduled for it: issue order,
        then retries.  A consumer issued no earlier than its producer
        (it read the producer's wakeup, which issue sets), so it
        executes no earlier, and in the same cycle only if both issued
        in one cycle, producer first.  A retried load or store only
        moves later in the list; its issue cycle stays, so the list is
        not sorted by issue cycle.  As a producer, a retried load holds
        no wakeup (its rejection retracted it and squashed its
        consumers), and a store writes no register.  A squash retracts
        only the squashed uop's own wakeup, so it can unready only uops
        further down the list.
        """
        sim = self._sim()
        sim.renamer.retract_wakeup(producer)
        if not sim.cfg.optimistic_issue:
            return
        for uop in sim.in_flight_issued(cycle):
            if uop is producer or uop.state != S_ISSUED:
                continue
            if sim.renamer.sources_ready(uop, uop.issue_c):
                continue
            # Squash back into the queue (the entry was held).
            uop.state = S_QUEUED
            uop.issue_c = -1
            uop.exec_c = -1
            uop.squash_count += 1
            uop.iq_freed = False
            sim.threads[uop.tid].unissued_count += 1
            sim.renamer.retract_wakeup(uop)
            if sim.measuring:
                sim.stats.squashed_optimistic += 1
