"""Unit tests for the instruction queues."""

import pytest

from repro.core.queues import InstructionQueue
from repro.core.uop import S_ISSUED, S_QUEUED, Uop
from repro.isa.instructions import Instruction, Opcode


def make_uop(tid=0, seq=0, state=S_QUEUED):
    uop = Uop(tid, seq, 0x10000, Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3),
              wrong_path=False)
    uop.state = state
    return uop


class TestCapacity:
    def test_full(self):
        q = InstructionQueue("int", capacity=2, search_window=2)
        q.add(make_uop(seq=0))
        assert not q.full
        q.add(make_uop(seq=1))
        assert q.full

    def test_overflow_raises(self):
        q = InstructionQueue("int", capacity=1, search_window=1)
        q.add(make_uop())
        with pytest.raises(RuntimeError):
            q.add(make_uop(seq=1))

    def test_window_cannot_exceed_capacity(self):
        with pytest.raises(ValueError):
            InstructionQueue("int", capacity=16, search_window=32)

    def test_population_counts_issued_but_unreleased(self):
        q = InstructionQueue("int", capacity=4, search_window=4)
        u = make_uop()
        q.add(u)
        u.state = S_ISSUED
        assert q.population() == 1
        u.iq_freed = True
        q.release_freed()
        assert q.population() == 0


class TestSearchWindow:
    """BIGQ (Section 5.3): double capacity, but only the first 32
    entries are searchable for issue."""

    def test_waiting_only_in_window(self):
        q = InstructionQueue("int", capacity=4, search_window=2)
        uops = [make_uop(seq=i) for i in range(4)]
        for u in uops:
            q.add(u)
        visible = list(q.waiting())
        assert visible == uops[:2]

    def test_buffered_entries_become_searchable_as_head_drains(self):
        q = InstructionQueue("int", capacity=4, search_window=2)
        uops = [make_uop(seq=i) for i in range(4)]
        for u in uops:
            q.add(u)
        uops[0].iq_freed = True
        q.release_freed()
        assert list(q.waiting()) == uops[1:3]

    def test_waiting_skips_issued(self):
        q = InstructionQueue("int", capacity=4, search_window=4)
        a, b = make_uop(seq=0), make_uop(seq=1)
        q.add(a)
        q.add(b)
        a.state = S_ISSUED
        assert list(q.waiting()) == [b]


class TestIQPosnSupport:
    def test_oldest_position_of_thread(self):
        q = InstructionQueue("int", capacity=8, search_window=8)
        q.add(make_uop(tid=1, seq=0))
        q.add(make_uop(tid=0, seq=1))
        q.add(make_uop(tid=0, seq=2))
        assert q.oldest_position_of_thread(1) == 0
        assert q.oldest_position_of_thread(0) == 1

    def test_no_entries_returns_sentinel(self):
        q = InstructionQueue("int", capacity=8, search_window=8)
        assert q.oldest_position_of_thread(3) >= 1 << 30

    def test_issued_entries_not_counted(self):
        q = InstructionQueue("int", capacity=8, search_window=8)
        a = make_uop(tid=0, seq=0, state=S_ISSUED)
        b = make_uop(tid=0, seq=1)
        q.add(a)
        q.add(b)
        assert q.oldest_position_of_thread(0) == 1
