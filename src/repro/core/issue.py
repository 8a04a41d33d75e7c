"""Issue selection (Section 6).

Each cycle the issue logic walks the searchable entries of both queues
and selects ready instructions subject to functional-unit limits: 6
integer units (4 of which execute loads and stores) and 3 FP units —
peak issue bandwidth 9.

Issue priority policies:

OLDEST
    Deepest-in-queue first (the default everywhere in the paper).
OPT_LAST
    Optimistically issuable instructions (consumers of loads whose
    hit/miss is still unknown) go after all others.
SPEC_LAST
    Speculative instructions (behind an unexecuted branch of the same
    thread) go after all others.
BRANCH_FIRST
    Branches as early as possible, to find mispredictions quickly.

Readiness additionally requires memory disambiguation for loads (no
older same-thread store with a matching partial address still pending)
and the Section 7 restricted-speculation constraints when enabled.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import TYPE_CHECKING, List

from repro.core.uop import S_ISSUED, S_QUEUED, Uop

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator


class IssueUnit:
    """Ready-instruction selection and wakeup scheduling."""

    def __init__(self, sim: "Simulator"):
        self._sim = weakref.ref(sim)  # the simulator owns this unit
        # OLDEST and BRANCH_FIRST keys read only the uop, so they are
        # built once.  OPT_LAST and SPEC_LAST keys read pipeline state
        # through this unit and are rebuilt each cycle: a long-lived
        # closure over ``self`` would make the unit a reference cycle.
        policy = sim.cfg.issue_policy
        self._static_key = (
            self._policy_key(0) if policy in ("OLDEST", "BRANCH_FIRST")
            else None
        )

    # ------------------------------------------------------------------
    def issue_cycle(self, cycle: int) -> None:
        sim = self._sim()
        cfg = sim.cfg
        int_left = cfg.int_units
        ls_left = cfg.ls_units
        fp_left = cfg.fp_units
        infinite = cfg.infinite_fus

        candidates: List[Uop] = sim.int_queue.waiting()
        candidates.extend(sim.fp_queue.waiting())
        if not candidates:
            return
        candidates.sort(key=self._static_key or self._policy_key(cycle))

        for uop in candidates:
            if not infinite:
                if uop.is_fp_op:
                    if fp_left <= 0:
                        continue
                elif uop.is_load or uop.is_store:
                    if ls_left <= 0 or int_left <= 0:
                        continue
                elif int_left <= 0:
                    continue

            if uop.dispatch_c >= cycle:
                continue  # entered the queue this cycle; issueable next
            if not sim.renamer.sources_ready(uop, cycle):
                continue
            if uop.is_load and not self._load_disambiguated(uop):
                continue
            if cfg.speculation != "full" and not self._speculation_allows(uop, cycle):
                continue

            self._do_issue(uop, cycle)
            if not infinite:
                if uop.is_fp_op:
                    fp_left -= 1
                elif uop.is_load or uop.is_store:
                    ls_left -= 1
                    int_left -= 1
                else:
                    int_left -= 1

    # ------------------------------------------------------------------
    def _policy_key(self, cycle: int):
        policy = self._sim().cfg.issue_policy
        if policy == "OLDEST":
            # attrgetter builds the same (dispatch_c, seq) tuple as the
            # former lambda, without a Python-level frame per element.
            return attrgetter("dispatch_c", "seq")
        if policy == "OPT_LAST":
            return lambda u: (self._is_optimistic(u, cycle), u.dispatch_c, u.seq)
        if policy == "SPEC_LAST":
            return lambda u: (self._is_speculative(u), u.dispatch_c, u.seq)
        if policy == "BRANCH_FIRST":
            return lambda u: (not u.is_control, u.dispatch_c, u.seq)
        raise ValueError(f"unknown issue policy {policy!r}")

    def _is_optimistic(self, uop: Uop, cycle: int) -> bool:
        """Would this instruction consume a load result whose hit/miss is
        not yet known?"""
        renamer = self._sim().renamer
        for preg, is_fp in uop.src_pregs:
            producer = renamer.file_for(is_fp).producer[preg]
            if (
                producer is not None
                and producer.is_load
                and producer.state == S_ISSUED
                and producer.dcache_hit is None
            ):
                return True
        return False

    def _any_inflight_source(self, uop: Uop) -> bool:
        """Any source produced by an instruction that has issued but not
        yet passed its execute stage?  Such a consumer is (transitively)
        squashable and must keep its queue entry until confirmation."""
        renamer = self._sim().renamer
        for preg, is_fp in uop.src_pregs:
            producer = renamer.file_for(is_fp).producer[preg]
            if producer is not None and producer.state == S_ISSUED:
                return True
        return False

    def _is_speculative(self, uop: Uop) -> bool:
        """Behind an unexecuted control instruction of the same thread?"""
        for branch in self._sim().pending_branches[uop.tid]:
            if branch.seq >= uop.seq:
                break
            if branch.exec_c == -1 or branch.state == S_QUEUED:
                return True
        return False

    # ------------------------------------------------------------------
    def _load_disambiguated(self, uop: Uop) -> bool:
        """No older same-thread store with a matching partial address is
        still pending (Section 2.1's 10-bit disambiguation)."""
        for store in self._sim().pending_stores[uop.tid]:
            if store.seq >= uop.seq:
                break
            if store.mem_key == uop.mem_key and store.dcache_hit is None:
                return False
        return True

    def _speculation_allows(self, uop: Uop, cycle: int) -> bool:
        """Section 7 restricted-speculation modes."""
        sim = self._sim()
        mode = sim.cfg.speculation
        for branch in sim.pending_branches[uop.tid]:
            if branch.seq >= uop.seq:
                break
            if branch.issue_c == -1:
                return False
            if mode == "no_wrong_path" and cycle < branch.issue_c + 4:
                return False
        return True

    # ------------------------------------------------------------------
    def _do_issue(self, uop: Uop, cycle: int) -> None:
        sim = self._sim()
        cfg = sim.cfg
        uop.optimistic = self._is_optimistic(uop, cycle)
        uop.state = S_ISSUED
        uop.issue_c = cycle
        uop.exec_c = cycle + cfg.exec_offset
        sim.schedule_exec(uop)
        sim.threads[uop.tid].unissued_count -= 1

        if sim.measuring:
            sim.stats.issued_total += 1
            if uop.wrong_path:
                sim.stats.issued_wrong_path += 1

        # Wakeup scheduling.
        if uop.dest_preg is not None:
            if uop.is_load:
                if cfg.optimistic_issue:
                    # Optimistic: dependents may issue next cycle; the
                    # exec stage squashes them on a miss or bank conflict.
                    sim.renamer.set_wakeup(uop, cycle + 1)
                # Conservative mode leaves the register not-ready; the
                # exec stage wakes dependents once hit/miss is known.
            else:
                sim.renamer.set_wakeup(uop, cycle + uop.latency)

        # Queue-slot release: ordinary instructions free their entry at
        # issue; instructions whose producers are still in flight (the
        # optimistic case, transitively) are held until it is known they
        # won't be squashed (Section 2) — their entry is released at
        # their own execute stage.
        if not self._any_inflight_source(uop):
            uop.iq_freed = True
