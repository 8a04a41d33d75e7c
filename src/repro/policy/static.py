"""The paper's static fetch policies (Section 5.2) as registry classes.

Each class reproduces one row of the paper's policy study.  Ties always
break round-robin.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.policy.base import FetchPolicy, rr_rank


class RoundRobin(FetchPolicy):
    name = "RR"
    description = "round-robin rotation (the paper's baseline)"

    def order(self, candidates, cycle, rr_offset, n_threads,
              int_queue, fp_queue):
        return sorted(
            candidates, key=lambda t: rr_rank(t, rr_offset, n_threads)
        )


class Brcount(FetchPolicy):
    name = "BRCOUNT"
    description = ("fewest unresolved branches first — favours threads "
                   "least likely to be on a wrong path")

    def order(self, candidates, cycle, rr_offset, n_threads,
              int_queue, fp_queue):
        return sorted(
            candidates,
            key=lambda t: (t.unresolved_branches,
                           rr_rank(t, rr_offset, n_threads)),
        )


class Misscount(FetchPolicy):
    name = "MISSCOUNT"
    description = ("fewest outstanding D-cache misses first — attacks "
                   "IQ clog from long memory latencies")

    def order(self, candidates, cycle, rr_offset, n_threads,
              int_queue, fp_queue):
        return sorted(
            candidates,
            key=lambda t: (t.misscount(cycle),
                           rr_rank(t, rr_offset, n_threads)),
        )


class Icount(FetchPolicy):
    name = "ICOUNT"
    description = ("fewest pre-issue instructions first — the paper's "
                   "winner: prevents IQ clog, favours fast-moving threads")

    def order(self, candidates, cycle, rr_offset, n_threads,
              int_queue, fp_queue):
        return sorted(
            candidates,
            key=lambda t: (t.unissued_count,
                           rr_rank(t, rr_offset, n_threads)),
        )


class IcountBrcount(FetchPolicy):
    name = "ICOUNT_BRCOUNT"
    description = ("weighted ICOUNT + 3x unresolved branches — the "
                   "hybrid the paper suggests as future work")

    def order(self, candidates, cycle, rr_offset, n_threads,
              int_queue, fp_queue):
        # Each unresolved branch is weighted as a few queued
        # instructions (expected wrong-path cost at ~10% misprediction
        # times a 7-cycle shadow is on that order).
        return sorted(
            candidates,
            key=lambda t: (t.unissued_count + 3 * t.unresolved_branches,
                           rr_rank(t, rr_offset, n_threads)),
        )


class Iqposn(FetchPolicy):
    name = "IQPOSN"
    description = ("penalise threads closest to either queue head "
                   "(oldest = most clog-prone); needs no counters")

    def order(self, candidates, cycle, rr_offset, n_threads,
              int_queue, fp_queue):
        def posn_key(t):
            closest = min(
                int_queue.oldest_position_of_thread(t.tid),
                fp_queue.oldest_position_of_thread(t.tid),
            )
            return (-closest, rr_rank(t, rr_offset, n_threads))

        return sorted(candidates, key=posn_key)


STATIC_POLICY_CLASSES = (
    RoundRobin, Brcount, Misscount, Icount, Iqposn, IcountBrcount,
)
