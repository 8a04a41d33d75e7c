"""Unit tests for the fetch unit: partitioning, block termination,
bank-conflict selection, ITAG (Section 5)."""

import pytest

from repro.core.config import SMTConfig, scheme
from repro.core.simulator import Simulator
from repro.core.thread import BLOCKED
from repro.isa.assembler import assemble

from tests.core.test_pipeline_timing import make_sim


def warm_sim(programs, **config_kwargs):
    sim = Simulator(SMTConfig(**config_kwargs), programs)
    for thread in sim.threads:
        program = thread.program
        for pc in range(program.text_start, program.text_end, 64):
            sim.hierarchy.warm_access(thread.tid, thread.phys_addr(pc), True)
    return sim


def stub_sim(programs, **config_kwargs):
    """A simulator whose I-side always hits and whose threads occupy
    distinct I-cache banks: isolates fetch *partitioning* logic from
    cache-content effects (different threads' identical layouts can
    legitimately evict each other in the direct-mapped I-cache)."""
    from repro.memory.hierarchy import AccessResult
    sim = Simulator(SMTConfig(**config_kwargs), programs)
    sim.hierarchy.ifetch = lambda tid, addr, cycle: AccessResult(True, cycle)
    sim.hierarchy.icache.bank_of = lambda addr: (addr >> 28) & 7
    return sim


STRAIGHT = """
.text
_start:
    addi r1, r1, 1
    addi r2, r2, 1
    addi r3, r3, 1
    addi r4, r4, 1
    addi r5, r5, 1
    addi r6, r6, 1
    addi r7, r7, 1
    addi r8, r8, 1
loop:
    j loop
"""


class TestPartitioning:
    def fetched_at_cycle0(self, sim):
        sim.step()
        return [u for u in sim.fetch_buffer if u.fetch_c == 0]

    def test_rr18_fetches_eight_from_one_thread(self):
        sim = warm_sim([assemble(STRAIGHT)], n_threads=1,
                       fetch_threads=1, fetch_per_thread=8)
        uops = self.fetched_at_cycle0(sim)
        assert len(uops) == 8
        assert all(u.tid == 0 for u in uops)

    def test_per_thread_cap_num2(self):
        sim = warm_sim([assemble(STRAIGHT)], n_threads=1,
                       fetch_threads=1, fetch_per_thread=4)
        assert len(self.fetched_at_cycle0(sim)) == 4

    def test_rr24_fetches_four_each_from_two_threads(self):
        programs = [assemble(STRAIGHT), assemble(STRAIGHT)]
        sim = stub_sim(programs, n_threads=2,
                       fetch_threads=2, fetch_per_thread=4)
        uops = self.fetched_at_cycle0(sim)
        by_tid = {tid: sum(1 for u in uops if u.tid == tid) for tid in (0, 1)}
        assert by_tid == {0: 4, 1: 4}

    def test_rr28_fills_flexibly(self):
        """RR.2.8: take as many as possible from the first thread, then
        fill from the second (here the first gives all 8)."""
        programs = [assemble(STRAIGHT), assemble(STRAIGHT)]
        sim = stub_sim(programs, n_threads=2,
                       fetch_threads=2, fetch_per_thread=8)
        uops = self.fetched_at_cycle0(sim)
        assert len(uops) == 8
        assert all(u.tid == uops[0].tid for u in uops)

    def test_total_cap_is_fetch_width(self):
        programs = [assemble(STRAIGHT), assemble(STRAIGHT)]
        sim = stub_sim(programs, n_threads=2,
                       fetch_threads=2, fetch_per_thread=8, fetch_width=8)
        assert len(self.fetched_at_cycle0(sim)) <= 8

    def test_wide_fetch_16(self):
        """The Section 7 experiment: 16 total, up to 8 each from 2."""
        src_taken = """
        .text
        _start:
            addi r1, r1, 1
            addi r2, r2, 1
        loop:
            j loop
        """
        programs = [assemble(STRAIGHT), assemble(src_taken)]
        sim = stub_sim(programs, n_threads=2, fetch_threads=2,
                       fetch_per_thread=8, fetch_width=16,
                       decode_width=16, rename_width=16)
        uops = self.fetched_at_cycle0(sim)
        assert len(uops) > 8


class TestBlockTermination:
    def test_block_ends_after_predicted_taken_jump(self):
        source = """
        .text
        _start:
            addi r1, r1, 1
            j over
            addi r2, r2, 1
        over:
            addi r3, r3, 1
        loop:
            j loop
        """
        sim = warm_sim([assemble(source)], n_threads=1)
        sim.step()
        first_block = [u for u in sim.fetch_buffer if u.fetch_c == 0]
        # addi + j, then the block ends (j's target unknown: misfetch).
        assert len(first_block) == 2
        assert first_block[-1].instr.opcode.mnemonic == "j"

    def test_block_stops_at_cache_line_boundary(self):
        # 20 sequential instructions starting at TEXT_BASE (0x10000 is
        # line-aligned): a block may span at most to the line end (16
        # instructions), but fetch_width caps it at 8 anyway; use a
        # misaligned start by padding 14 instructions.
        lines = [".text", "_start:"]
        for i in range(30):
            lines.append(f"addi r{(i % 7) + 1}, r{(i % 7) + 1}, 1")
        lines.append("loop:")
        lines.append("j loop")
        sim = warm_sim([assemble("\n".join(lines))], n_threads=1,
                       fetch_per_thread=8, fetch_width=16,
                       decode_width=16, rename_width=16)
        # Advance to a fetch that starts 2 instructions before a line
        # boundary: first fetch 0..7, second 8..15 (line ends at 16).
        sim.step()
        sim.step()
        second = [u for u in sim.threads[0].rob if u.fetch_c == 1]
        if second:
            last_pc = second[-1].pc
            assert (last_pc + 4) % 64 == 0 or len(second) == 8


class TestBlockedThreads:
    def test_wrong_path_off_text_blocks_until_squash(self):
        source = """
        .text
        _start:
            addi r2, r2, 1
        loop:
            addi r1, r1, 1
            beqz r0, loop
        """
        # The always-taken backedge is the *last* instruction: its cold
        # not-taken prediction sends the wrong path straight off the end
        # of the text segment.
        sim = warm_sim([assemble(source)], n_threads=1)
        blocked_seen = False
        for _ in range(8):
            sim.step()
            if sim.threads[0].fetch_blocked_until >= BLOCKED:
                blocked_seen = True
        assert blocked_seen
        # Each mispredict resolution unblocks fetch and the loop makes
        # progress (the block recurs transiently every iteration until
        # the predictor's history saturates).
        before = sim.threads[0].cursor.pos
        for _ in range(40):
            sim.step()
        assert sim.threads[0].cursor.pos > before

    def test_icache_miss_blocks_and_delivers(self):
        sim = Simulator(SMTConfig(n_threads=1), [assemble(STRAIGHT)])
        sim.step()
        thread = sim.threads[0]
        assert thread.fetch_blocked_until > sim.cycle  # cold I$ miss
        assert thread.pending_ifill_line is not None
        assert sim.stats.fetched_total == 0 or not sim.measuring
        # Run to the fill and verify fetch proceeds without re-missing.
        while sim.cycle < thread.fetch_blocked_until:
            sim.step()
        misses_before = sim.hierarchy.icache.misses
        sim.step()
        assert sim.fetch_buffer  # delivered block fetched
        assert sim.hierarchy.icache.misses == misses_before


class TestItag:
    def test_itag_excludes_missing_thread_and_starts_miss(self):
        sim = Simulator(SMTConfig(n_threads=1, itag=True),
                        [assemble(STRAIGHT)])
        sim.step()
        thread = sim.threads[0]
        assert thread.fetch_blocked_until > sim.cycle
        assert len(sim.hierarchy.icache.outstanding) == 1

    def test_itag_fetches_after_fill(self):
        sim = Simulator(SMTConfig(n_threads=1, itag=True),
                        [assemble(STRAIGHT)])
        for _ in range(400):
            sim.step()
            if sim.fetch_buffer or any(t.rob for t in sim.threads):
                break
        assert any(t.rob for t in sim.threads) or sim.fetch_buffer
