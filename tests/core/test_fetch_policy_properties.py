"""Property-based tests for the static fetch policies.

Three laws hold for every static policy, whatever the thread state:

* the result is a permutation of the candidates (nothing dropped or
  duplicated, no foreign threads injected),
* equal-keyed threads appear in round-robin order from ``rr_offset``
  (the paper's tie-break),
* ICOUNT matches a brute-force stable sort on ``unissued_count``.
"""

from hypothesis import given, settings, strategies as st

from repro.core.queues import InstructionQueue
from repro.core.thread import ThreadContext
from repro.isa.assembler import assemble
from repro.policy.base import rr_rank
from repro.policy.registry import make_policy, static_policy_names

_PROGRAM = assemble(".text\nloop:\n addi r1, r1, 1\n j loop")


def _threads(n, counters):
    """Build ``n`` contexts, applying per-thread counter dicts."""
    threads = [ThreadContext(tid, _PROGRAM) for tid in range(n)]
    for thread, values in zip(threads, counters):
        thread.unissued_count = values["unissued"]
        thread.unresolved_branches = values["branches"]
        thread.outstanding_misses = [10_000] * values["misses"]
    return threads


def _queues():
    return InstructionQueue("int", 32, 32), InstructionQueue("fp", 32, 32)


counter_strategy = st.fixed_dictionaries({
    "unissued": st.integers(0, 12),
    "branches": st.integers(0, 6),
    "misses": st.integers(0, 4),
})

state_strategy = st.tuples(
    st.lists(counter_strategy, min_size=1, max_size=8),
    st.integers(0, 7),          # rr_offset
    st.integers(0, 1000),       # cycle
)


@given(st.sampled_from(static_policy_names()), state_strategy)
@settings(max_examples=120, deadline=None)
def test_order_is_a_permutation(policy, state):
    counters, rr_offset, cycle = state
    threads = _threads(len(counters), counters)
    int_q, fp_q = _queues()
    rr_offset %= len(threads)
    result = make_policy(policy).order(
        threads, cycle, rr_offset, len(threads), int_q, fp_q
    )
    assert sorted(t.tid for t in result) == list(range(len(threads)))


@given(st.sampled_from(static_policy_names()), state_strategy)
@settings(max_examples=120, deadline=None)
def test_all_tied_reduces_to_round_robin(policy, state):
    """With identical per-thread state every policy keys equal, so the
    order must be exactly the round-robin rotation."""
    counters, rr_offset, cycle = state
    # Clone one counter set across all threads: every key ties.
    uniform = [counters[0]] * len(counters)
    threads = _threads(len(uniform), uniform)
    int_q, fp_q = _queues()
    n = len(threads)
    rr_offset %= n
    result = make_policy(policy).order(
        threads, cycle, rr_offset, n, int_q, fp_q
    )
    expected = sorted(range(n), key=lambda tid: (tid - rr_offset) % n)
    assert [t.tid for t in result] == expected


@given(state_strategy)
@settings(max_examples=120, deadline=None)
def test_icount_matches_brute_force_sort(state):
    counters, rr_offset, cycle = state
    threads = _threads(len(counters), counters)
    int_q, fp_q = _queues()
    n = len(threads)
    rr_offset %= n
    result = make_policy("ICOUNT").order(
        threads, cycle, rr_offset, n, int_q, fp_q
    )
    brute = sorted(
        threads,
        key=lambda t: (t.unissued_count, rr_rank(t, rr_offset, n)),
    )
    assert [t.tid for t in result] == [t.tid for t in brute]


@given(state_strategy)
@settings(max_examples=80, deadline=None)
def test_brcount_sorted_by_branches(state):
    counters, rr_offset, cycle = state
    threads = _threads(len(counters), counters)
    int_q, fp_q = _queues()
    n = len(threads)
    rr_offset %= n
    result = make_policy("BRCOUNT").order(
        threads, cycle, rr_offset, n, int_q, fp_q
    )
    keys = [t.unresolved_branches for t in result]
    assert keys == sorted(keys)


@given(state_strategy)
@settings(max_examples=80, deadline=None)
def test_misscount_sorted_by_live_misses(state):
    counters, rr_offset, cycle = state
    threads = _threads(len(counters), counters)
    int_q, fp_q = _queues()
    n = len(threads)
    rr_offset %= n
    result = make_policy("MISSCOUNT").order(
        threads, cycle, rr_offset, n, int_q, fp_q
    )
    keys = [t.misscount(cycle) for t in result]
    assert keys == sorted(keys)
