"""Unit tests for execute-stage behaviour: retries, cascade squash,
store handling, width enforcement, commit ordering."""

import pytest

from repro.core.config import SMTConfig
from repro.core.simulator import Simulator
from repro.core.uop import S_COMMITTED
from repro.isa.assembler import assemble

from tests.core.test_pipeline_timing import make_sim


def drain(sim, cycles):
    seen = []
    for _ in range(cycles):
        sim.step()
        for u in sim.threads[0].rob:
            if u not in seen:
                seen.append(u)
    return seen


class TestCascadeSquash:
    def test_transitive_dependents_squashed_on_miss(self):
        """A -> B -> C chain on a missing load: B issues optimistically
        and is squashed; C, which issued on B's wakeup, must also be
        squashed (the cascade case)."""
        source = """
        .data
        buf: .word 3
        .text
        _start:
            li r9, buf
            ld r1, 0(r9)
            addi r2, r1, 1
            addi r3, r2, 1
        loop:
            j loop
        """
        sim = make_sim(source, warm_data=False)
        sim.measuring = True
        seen = drain(sim, 400)
        b = next(u for u in seen if u.instr.rs1 == 1)
        c = next(u for u in seen if u.instr.rs1 == 2)
        assert b.squash_count >= 1
        assert c.squash_count >= 1
        # All three eventually commit, in order.
        load = next(u for u in seen if u.is_load)
        assert load.state == S_COMMITTED
        assert b.state == S_COMMITTED and c.state == S_COMMITTED

    def test_squash_does_not_touch_other_threads(self):
        programs = [assemble("""
        .data
        buf: .word 1
        .text
        _start:
            li r9, buf
            ld r1, 0(r9)
            addi r2, r1, 1
        loop:
            j loop
        """), assemble("""
        .text
        _start:
            addi r1, r0, 1
        loop:
            addi r2, r2, 1
            j loop
        """)]
        sim = Simulator(SMTConfig(n_threads=2, fetch_threads=2), programs)
        for thread in sim.threads:
            program = thread.program
            for pc in range(program.text_start, program.text_end, 64):
                sim.hierarchy.warm_access(thread.tid, thread.phys_addr(pc),
                                          True)
        sim.measuring = True
        for _ in range(300):
            sim.step()
        # Thread 1 (no loads at all) must never be optimistically
        # squashed by thread 0's miss.
        for u in sim.threads[1].rob:
            assert u.squash_count == 0


class TestStoreRetry:
    def test_store_retries_until_accepted(self):
        """Saturate the D-cache ports so a store gets rejected at least
        once, then completes."""
        lines = [".data", "buf: .space 4096", ".text", "_start:",
                 "    li r20, buf"]
        for i in range(12):
            lines.append(f"    ld r{(i % 6) + 1}, {64 * i}(r20)")
        lines.append("    st r1, 2048(r20)")
        lines.append("loop:")
        lines.append("    j loop")
        sim = make_sim("\n".join(lines), warm_data=True)
        seen = drain(sim, 80)
        store = next(u for u in seen if u.is_store)
        assert store.state == S_COMMITTED
        # exec_c may have slid past issue + exec_offset due to retries.
        assert store.exec_c >= store.issue_c + sim.cfg.exec_offset


class TestCommitOrdering:
    def test_per_thread_program_order(self):
        sim = make_sim("""
        .text
        _start:
            addi r1, r0, 1
            mul r2, r1, r1
            addi r3, r0, 3
        loop:
            addi r4, r4, 1
            j loop
        """)
        committed = []
        sim.commit_listener = lambda u: committed.append(u.seq)
        for _ in range(80):
            sim.step()
        assert committed == sorted(committed)

    def test_commit_width_respected(self):
        sim = make_sim("""
        .text
        _start:
            addi r1, r0, 1
        loop:
            addi r2, r2, 1
            addi r3, r3, 1
            addi r4, r4, 1
            beqz r0, loop
        """, commit_width=2)
        per_cycle = {}
        sim.commit_listener = (
            lambda u: per_cycle.__setitem__(
                sim.cycle, per_cycle.get(sim.cycle, 0) + 1
            )
        )
        for _ in range(100):
            sim.step()
        assert per_cycle
        assert max(per_cycle.values()) <= 2

    def test_long_latency_blocks_younger_commits(self):
        sim = make_sim("""
        .text
        _start:
            li r1, 3
            li r2, 5
            mulq r3, r1, r2
            addi r4, r0, 4
        loop:
            j loop
        """)
        seen = drain(sim, 60)
        mul = next(u for u in seen if u.instr.opcode.mnemonic == "mulq")
        younger = next(u for u in seen if u.instr.rd == 4)
        # mulq has a 16-cycle latency; r4's producer executed long
        # before but must wait for in-order commit behind it... the
        # listener isn't attached, so compare complete/commit ordering
        # via commit_ready and actual state.
        assert younger.complete_c < mul.complete_c
        assert younger.state == S_COMMITTED and mul.state == S_COMMITTED


class TestWidths:
    def test_decode_width_limits_flow(self):
        lines = [".text", "_start:"]
        for i in range(40):
            lines.append(f"addi r{(i % 7) + 1}, r0, 1")
        lines.append("loop:")
        lines.append("j loop")
        sim = make_sim("\n".join(lines), decode_width=2, rename_width=2)
        per_cycle = {}
        seen = set()
        for _ in range(60):
            sim.step()
            for u in sim.threads[0].rob:
                if id(u) not in seen and u.decode_c >= 0:
                    seen.add(id(u))
                    per_cycle[u.decode_c] = per_cycle.get(u.decode_c, 0) + 1
        assert per_cycle
        assert max(per_cycle.values()) <= 2

    def test_ipc_bounded_by_narrow_decode(self):
        lines = [".text", "_start:"]
        for i in range(40):
            lines.append(f"addi r{(i % 7) + 1}, r0, 1")
        lines.append("loop:")
        lines.append("j loop")
        sim = make_sim("\n".join(lines), decode_width=2, rename_width=2)
        sim.measuring = True
        for _ in range(200):
            sim.step()
        assert sim.stats.committed <= 2 * 200 + 16


class TestOutstandingMisses:
    def test_lists_hold_only_misses_in_flight_at_the_last_append(self):
        """A D-cache miss drops the completed ones when it is appended:
        after a 4-thread ICOUNT run (which never calls ``misscount``),
        each thread's list holds only misses still outstanding at its
        last append, not one entry per miss of the whole run."""
        from repro.core.config import scheme
        from repro.workloads.mixes import standard_mix

        sim = Simulator(scheme("ICOUNT", 2, 8, n_threads=4),
                        standard_mix(4, 0))
        last_append = {}
        load_missed = sim.execute_unit._load_missed

        def spy(uop, cycle, ready_cycle, rejected):
            load_missed(uop, cycle, ready_cycle, rejected)
            if not rejected:
                last_append[uop.tid] = cycle

        sim.execute_unit._load_missed = spy
        sim.run(warmup_cycles=1000, measure_cycles=8000,
                functional_warmup_instructions=5000)
        assert set(last_append) == {0, 1, 2, 3}
        for thread in sim.threads:
            at = last_append[thread.tid]
            assert thread.outstanding_misses
            assert all(c > at for c in thread.outstanding_misses), (
                thread.tid, at, sorted(thread.outstanding_misses)[:5])
