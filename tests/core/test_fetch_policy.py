"""Unit tests for the fetch thread-choice policies (Section 5.2)."""

import pytest

from repro.core.queues import InstructionQueue
from repro.core.thread import ThreadContext
from repro.core.uop import S_QUEUED, Uop
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction, Opcode
from repro.policy import make_policy


@pytest.fixture
def threads():
    program = assemble(".text\nloop:\n addi r1, r1, 1\n j loop")
    return [ThreadContext(tid, program) for tid in range(4)]


@pytest.fixture
def queues():
    return (
        InstructionQueue("int", 32, 32),
        InstructionQueue("fp", 32, 32),
    )


def order(policy, threads, queues, cycle=0, rr=0):
    int_q, fp_q = queues
    return [
        t.tid
        for t in make_policy(policy).order(threads, cycle, rr, len(threads),
                                           int_q, fp_q)
    ]


class TestRoundRobin:
    def test_rotation(self, threads, queues):
        assert order("RR", threads, queues, rr=0) == [0, 1, 2, 3]
        assert order("RR", threads, queues, rr=2) == [2, 3, 0, 1]

    def test_unknown_policy(self, threads, queues):
        with pytest.raises(ValueError):
            order("MAGIC", threads, queues)


class TestBrcount:
    def test_fewest_unresolved_branches_first(self, threads, queues):
        threads[0].unresolved_branches = 5
        threads[2].unresolved_branches = 1
        result = order("BRCOUNT", threads, queues)
        assert result[0] in (1, 3)     # zero branches
        assert result[-1] == 0

    def test_tie_breaks_round_robin(self, threads, queues):
        assert order("BRCOUNT", threads, queues, rr=3) == [3, 0, 1, 2]


class TestMisscount:
    def test_fewest_outstanding_misses_first(self, threads, queues):
        threads[1].outstanding_misses = [100, 100]
        threads[3].outstanding_misses = [100]
        result = order("MISSCOUNT", threads, queues, cycle=0)
        assert result[-1] == 1
        assert result[-2] == 3

    def test_completed_misses_pruned(self, threads, queues):
        threads[1].outstanding_misses = [5, 5]   # complete before cycle 50
        result = order("MISSCOUNT", threads, queues, cycle=50)
        assert result == [0, 1, 2, 3]  # tie: pure round-robin


class TestIcount:
    def test_fewest_unissued_first(self, threads, queues):
        threads[0].unissued_count = 9
        threads[1].unissued_count = 2
        threads[2].unissued_count = 5
        result = order("ICOUNT", threads, queues)
        assert result == [3, 1, 2, 0]

    def test_ties_round_robin(self, threads, queues):
        threads[0].unissued_count = 1
        threads[1].unissued_count = 1
        # Threads 2,3 (count 0) first; the tied pair orders by rotation.
        assert order("ICOUNT", threads, queues, rr=1) == [2, 3, 1, 0]


class TestIqposn:
    def _queued(self, tid, seq):
        u = Uop(tid, seq, 0x10000,
                Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3), False)
        u.state = S_QUEUED
        return u

    def test_closest_to_head_gets_lowest_priority(self, threads, queues):
        int_q, _ = queues
        int_q.add(self._queued(0, 0))   # thread 0 at the head
        int_q.add(self._queued(1, 1))
        result = order("IQPOSN", threads, queues)
        assert result[-1] == 0
        assert result[-2] == 1

    def test_empty_threads_best(self, threads, queues):
        int_q, _ = queues
        int_q.add(self._queued(2, 0))
        result = order("IQPOSN", threads, queues)
        assert result[-1] == 2
        assert set(result[:3]) == {0, 1, 3}

    def test_considers_both_queues(self, threads, queues):
        int_q, fp_q = queues
        fp_q.add(self._queued(3, 0))
        result = order("IQPOSN", threads, queues)
        assert result[-1] == 3
