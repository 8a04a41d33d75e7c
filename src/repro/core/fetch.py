"""The fetch unit (Section 5).

Implements the paper's ``alg.num1.num2`` partitioning: up to ``num1``
threads are selected each cycle by the fetch policy, each supplying up to
``num2`` instructions, with at most ``fetch_width`` total — filled in
priority order (so RR.2.8 takes as many as possible from the first
thread, then fills from the second).

Per-thread fetch-block termination reproduces fetch fragmentation: a
block ends at the cache-line boundary, after a predicted-taken control
instruction, on a misfetch (taken target only available at decode: the
thread stalls ``misfetch_penalty`` cycles), or on an unpredictable
indirect jump (the thread stalls until the jump executes).

Selected threads must target distinct I-cache banks; with ITAG enabled,
threads whose fetch PC misses the early tag probe are excluded from
selection (their miss is still started immediately).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, List

from repro.core.thread import BLOCKED, ThreadContext
from repro.core.uop import Uop
from repro.isa.program import INSTR_BYTES
from repro.policy.registry import make_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator

_LINE_BYTES = 64


class FetchUnit:
    """Thread selection + instruction supply, one call per cycle."""

    def __init__(self, sim: "Simulator"):
        self._sim = weakref.ref(sim)  # the simulator owns this unit
        self.rr_offset = 0
        #: The thread-choice policy object (static or meta), built from
        #: the config spec; meta-policies bind listeners to the live
        #: simulator and are ticked every cycle.
        self.policy = make_policy(sim.cfg.fetch_policy, seed=sim.cfg.seed)
        self.adaptive = self.policy.adaptive
        if self.adaptive:
            self.policy.bind(sim)

    # ------------------------------------------------------------------
    def fetch_cycle(self, cycle: int) -> None:
        sim = self._sim()
        cfg = sim.cfg
        if self.adaptive:
            # Ticked unconditionally (even when the fetch buffer is
            # full), so interval boundaries — and therefore policy
            # decisions — depend only on the cycle count.
            self.policy.tick(cycle)
        buffer_room = cfg.fetch_width - len(sim.fetch_buffer)
        if buffer_room <= 0:
            self.rr_offset = (self.rr_offset + 1) % cfg.n_threads
            return

        candidates: List[ThreadContext] = [
            t for t in sim.threads if t.fetch_blocked_until <= cycle
        ]

        if cfg.itag:
            candidates = self._itag_filter(candidates, cycle)

        ordered = self.policy.order(
            candidates, cycle, self.rr_offset,
            cfg.n_threads, sim.int_queue, sim.fp_queue,
        )

        # Select up to num1 threads with pairwise-distinct I-cache banks.
        selected: List[ThreadContext] = []
        banks_used = set()
        for thread in ordered:
            if len(selected) >= cfg.fetch_threads:
                break
            bank = sim.hierarchy.icache.bank_of(thread.phys_addr(thread.fetch_pc))
            if bank in banks_used:
                continue
            banks_used.add(bank)
            selected.append(thread)

        total_budget = min(cfg.fetch_width, buffer_room)
        fetched_any = False
        for thread in selected:
            if total_budget <= 0:
                break
            taken = self._fetch_from_thread(thread, cycle, total_budget)
            total_budget -= taken
            fetched_any = fetched_any or taken > 0

        if fetched_any and sim.measuring:
            sim.stats.fetch_cycles_active += 1
        self.rr_offset = (self.rr_offset + 1) % cfg.n_threads

    # ------------------------------------------------------------------
    def _itag_filter(
        self, candidates: List[ThreadContext], cycle: int
    ) -> List[ThreadContext]:
        """Early tag lookup: exclude missing threads, starting their
        misses immediately so the fetch slot isn't wasted later."""
        sim = self._sim()
        passing = []
        for thread in candidates:
            if not thread.program.in_text(thread.fetch_pc):
                continue  # wrong path off the text segment: wait for squash
            addr = thread.phys_addr(thread.fetch_pc)
            if thread.pending_ifill_line == (addr >> 6):
                passing.append(thread)  # fill delivered; fetch consumes it
            elif sim.hierarchy.icache_probe(addr):
                passing.append(thread)
            else:
                access = sim.hierarchy.ifetch(thread.tid, addr, cycle)
                if not access.rejected and not access.l1_hit:
                    thread.fetch_blocked_until = access.ready_cycle
                    thread.pending_ifill_line = addr >> 6
                    if sim.measuring:
                        sim.stats.icache_miss_stall_events += 1
                # On rejection (or a racing hit) the probe retries next cycle.
        return passing

    # ------------------------------------------------------------------
    def _fetch_from_thread(
        self, thread: ThreadContext, cycle: int, total_budget: int
    ) -> int:
        """Fetch one block from ``thread``; returns instructions taken."""
        sim = self._sim()
        cfg = sim.cfg
        pc = thread.fetch_pc

        if not thread.program.in_text(pc):
            # Only possible on a wrong path: stall until the squash.
            thread.fetch_blocked_until = BLOCKED
            return 0

        phys = thread.phys_addr(pc)
        if thread.pending_ifill_line == (phys >> 6):
            # A completed miss delivers its block straight to the fetch
            # unit; no tag re-check (the line may already be evicted).
            thread.pending_ifill_line = None
        elif not cfg.itag:
            access = sim.hierarchy.ifetch(thread.tid, phys, cycle)
            if access.rejected:
                return 0  # bank busy with a fill: lost opportunity
            if not access.l1_hit:
                thread.fetch_blocked_until = access.ready_cycle
                thread.pending_ifill_line = phys >> 6
                if sim.measuring:
                    sim.stats.icache_miss_stall_events += 1
                return 0
            if access.ready_cycle > cycle:
                # Hit but TLB refill pushed data availability out.
                thread.fetch_blocked_until = access.ready_cycle
                return 0

        budget = min(cfg.fetch_per_thread, total_budget)
        taken = 0
        while taken < budget:
            instr = thread.program.fetch(pc)
            if instr is None:
                thread.fetch_blocked_until = BLOCKED
                break
            uop = self._make_uop(thread, pc, instr, cycle)
            sim.fetch_buffer.append(uop)
            thread.rob.append(uop)
            thread.unissued_count += 1
            if uop.is_control:
                thread.unresolved_branches += 1
            if sim.measuring:
                sim.stats.fetched_total += 1
                if uop.wrong_path:
                    sim.stats.fetched_wrong_path += 1
            taken += 1

            next_pc, block_ends = self._advance(thread, uop, cycle)
            thread.fetch_pc = next_pc
            pc = next_pc
            if block_ends:
                break
            # A fetch block cannot cross the cache line.
            if pc % _LINE_BYTES == 0:
                break
        return taken

    # ------------------------------------------------------------------
    def _make_uop(self, thread: ThreadContext, pc: int, instr, cycle: int) -> Uop:
        """Create the dynamic instruction, consuming the oracle when on
        the correct path."""
        if thread.on_correct_path:
            record = thread.oracle_pop()
            assert record.pc == pc, (
                f"oracle desync: thread {thread.tid} fetching {pc:#x}, "
                f"oracle at {record.pc:#x}"
            )
            uop = Uop(
                thread.tid, thread.next_seq, pc, instr, wrong_path=False,
                actual_taken=record.taken, actual_target=record.next_pc,
                eff_addr=record.eff_addr,
            )
            if record.eff_addr is not None:
                thread.last_data_addr = record.eff_addr
        else:
            eff_addr = (
                thread.wrong_path_load_address(pc, thread.next_seq)
                if instr.is_mem else None
            )
            uop = Uop(
                thread.tid, thread.next_seq, pc, instr, wrong_path=True,
                eff_addr=eff_addr,
            )
        if uop.eff_addr is not None:
            uop.mem_key = (thread.phys_addr(uop.eff_addr) >> 3) & (
                (1 << self._sim().cfg.disambiguation_bits) - 1
            )
        uop.fetch_c = cycle
        uop.state = 0  # S_FETCHED
        thread.next_seq += 1
        return uop

    # ------------------------------------------------------------------
    def _advance(self, thread: ThreadContext, uop: Uop, cycle: int):
        """Predict through ``uop`` and compute the thread's next fetch PC.

        Returns (next_pc, block_ends)."""
        sim = self._sim()
        cfg = sim.cfg
        instr = uop.instr
        pc = uop.pc

        if not uop.is_control:
            return pc + INSTR_BYTES, False

        prediction = sim.predictor.predict(
            thread.tid, pc, instr,
            oracle_taken=uop.actual_taken if not uop.wrong_path else None,
            oracle_target=uop.actual_target if not uop.wrong_path else None,
        )
        uop.prediction = prediction

        if prediction.resolve_at_exec:
            # No target available: the thread stalls until this executes.
            thread.fetch_blocked_until = BLOCKED
            uop.mispredicted = not uop.wrong_path
            if not uop.wrong_path:
                thread.on_correct_path = False
            return pc + INSTR_BYTES, True

        predicted_next = (
            prediction.target if prediction.taken else pc + INSTR_BYTES
        )

        if not uop.wrong_path:
            actual_next = uop.actual_target
            if predicted_next != actual_next:
                uop.mispredicted = True
                thread.on_correct_path = False

        if prediction.redirect_at_decode:
            # Misfetch: the target comes out of decode, costing 2 cycles
            # (3 with the extra ITAG pipe stage).
            thread.fetch_blocked_until = cycle + cfg.misfetch_penalty
            return predicted_next, True

        if prediction.taken:
            return predicted_next, True
        return predicted_next, False
