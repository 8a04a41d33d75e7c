"""Unit tests for the per-context thread state."""

import pytest

from repro.core.thread import ADDRESS_SPACE_STRIDE, ThreadContext
from repro.isa.assembler import assemble
from repro.isa.program import DATA_BASE


@pytest.fixture
def program():
    return assemble("""
    .data
    buf: .space 64
    .text
    _start:
        li r1, buf
    loop:
        ld r2, 0(r1)
        addi r3, r3, 1
        j loop
    """)


class TestOracle:
    def test_cursor_pc_is_the_next_pop(self, program):
        thread = ThreadContext(0, program)
        for expected_pos in range(6):
            pc = thread.cursor.pc
            assert thread.cursor.pos == expected_pos
            assert thread.oracle_pop().pc == pc

    def test_pop_advances(self, program):
        thread = ThreadContext(0, program)
        a = thread.oracle_pop()
        b = thread.oracle_pop()
        assert b.pc == a.next_pc

    def test_oracle_matches_fetch_pc_initially(self, program):
        thread = ThreadContext(0, program)
        assert thread.cursor.pc == thread.fetch_pc
        assert thread.oracle_pop().pc == thread.fetch_pc


class TestPhysicalAddressing:
    def test_distinct_address_spaces(self, program):
        t0 = ThreadContext(0, program)
        t1 = ThreadContext(1, program)
        a0 = t0.phys_addr(DATA_BASE)
        a1 = t1.phys_addr(DATA_BASE)
        assert abs(a1 - a0) >= ADDRESS_SPACE_STRIDE // 2

    def test_mapping_is_deterministic(self, program):
        t = ThreadContext(3, program)
        assert t.phys_addr(0x12345678 & ~7) == t.phys_addr(0x12345678 & ~7)

    def test_mapping_is_injective_within_thread(self, program):
        """Page colouring must never alias two virtual pages."""
        t = ThreadContext(2, program)
        seen = {}
        for page in range(0, 4096):
            vaddr = page * 8192
            p = t.phys_addr(vaddr)
            assert p not in seen, f"pages {seen[p]} and {page} alias"
            seen[p] = page

    def test_page_offset_preserved(self, program):
        t = ThreadContext(1, program)
        base = t.phys_addr(0x10000)
        assert t.phys_addr(0x10008) == base + 8
        assert t.phys_addr(0x10000 + 8191) == base + 8191

    def test_colours_differ_across_threads_somewhere(self, program):
        """The whole point of the colouring: identical virtual layouts
        must not land on identical cache sets for every thread pair."""
        threads = [ThreadContext(tid, program) for tid in range(8)]
        def l1_set(t, vaddr):
            return (t.phys_addr(vaddr) >> 6) % 512
        vaddrs = [0x10000 + i * 8192 for i in range(16)]
        collisions = 0
        pairs = 0
        for i in range(8):
            for j in range(i + 1, 8):
                for v in vaddrs:
                    pairs += 1
                    collisions += l1_set(threads[i], v) == l1_set(threads[j], v)
        assert collisions < pairs  # not all collide


class TestCounters:
    def test_misscount_prunes_completed(self, program):
        thread = ThreadContext(0, program)
        thread.outstanding_misses = [10, 20, 300]
        assert thread.misscount(cycle=50) == 1
        assert thread.outstanding_misses == [300]

    def test_misscount_empty(self, program):
        assert ThreadContext(0, program).misscount(0) == 0


class TestWrongPathAddresses:
    def test_deterministic(self, program):
        thread = ThreadContext(0, program)
        assert (thread.wrong_path_load_address(0x10040, 5)
                == thread.wrong_path_load_address(0x10040, 5))

    def test_within_data_region(self, program):
        thread = ThreadContext(0, program)
        for seq in range(50):
            addr = thread.wrong_path_load_address(0x10000 + 4 * seq, seq)
            assert DATA_BASE <= addr < DATA_BASE + program.data.size
            assert addr % 8 == 0

    def test_near_recent_data(self, program):
        thread = ThreadContext(0, program)
        thread.last_data_addr = DATA_BASE + 8192
        addr = thread.wrong_path_load_address(0x10100, 7)
        assert abs(addr - thread.last_data_addr) <= 4096
