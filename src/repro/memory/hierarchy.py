"""The full cache/memory hierarchy of Table 2.

====================  ======  ======  =======  =====
(level)               ICache  DCache  L2       L3
====================  ======  ======  =======  =====
Size                  32 KB   32 KB   256 KB   2 MB
Associativity         DM      DM      4-way    DM
Line size             64      64      64       64
Banks                 8       8       8        1
Transfer time/cycles  1       1       1        4
Accesses/cycle        var     4       1        1/4
Cache fill time       2       2       2        8
Latency to next       6       6       12       62
====================  ======  ======  =======  =====

The two L1s share the L2; the L2 misses to the L3; the L3 misses to an
infinitely-large memory whose request latency is the L3's
``latency_to_next``.  Inter-level buses are modelled by each level's port
limit plus a memory-side bus that accepts one line transfer per
``memory_bus_interval`` cycles — enough to create the queueing delays the
paper observes without saturating any single bus.

``infinite_bandwidth=True`` removes every bank, port, bus, and MSHR
constraint while keeping all latencies — the Section 7 "Memory
Throughput" experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.memory.cache import BankedCache, CacheParams
from repro.memory.tlb import TLB


@dataclass(slots=True)
class AccessResult:
    """Outcome of a data-side access."""

    l1_hit: bool
    ready_cycle: int
    #: The access could not even start (bank/port busy or MSHRs full);
    #: the requester must retry.  ready_cycle is the suggested retry time.
    rejected: bool = False


class MemoryHierarchy:
    """I-side and D-side cache hierarchy with shared L2/L3."""

    def __init__(
        self,
        icache: Optional[CacheParams] = None,
        dcache: Optional[CacheParams] = None,
        l2: Optional[CacheParams] = None,
        l3: Optional[CacheParams] = None,
        itlb_entries: int = 64,
        dtlb_entries: int = 64,
        memory_bus_interval: int = 2,
        infinite_bandwidth: bool = False,
    ):
        self.icache = BankedCache(icache or ICACHE_PARAMS)
        self.dcache = BankedCache(dcache or DCACHE_PARAMS)
        self.l2 = BankedCache(l2 or L2_PARAMS)
        self.l3 = BankedCache(l3 or L3_PARAMS)
        #: All four levels, top down.
        self.caches = (self.icache, self.dcache, self.l2, self.l3)
        self.itlb = TLB(itlb_entries)
        self.dtlb = TLB(dtlb_entries)
        self.memory_bus_interval = memory_bus_interval
        self.infinite_bandwidth = infinite_bandwidth
        self._memory_bus_free = 0
        self._last_expire = 0
        # One full memory access (for the TLB-miss penalty): request
        # flight through every level plus the memory service itself.
        self.full_memory_latency = (
            self.icache.params.latency_to_next
            + self.l2.params.latency_to_next
            + self.l3.params.latency_to_next
            + self.l3.params.transfer_time
        )

    # ------------------------------------------------------------------
    def _tick_housekeeping(self, cycle: int) -> None:
        # Trim past bookkeeping every so often to bound memory use.
        if cycle - self._last_expire >= 1024:
            for cache in self.caches:
                cache.expire(cycle)
            self._last_expire = cycle

    # ------------------------------------------------------------------
    def _memory_ready(self, arrival: int) -> int:
        """When a line requested from memory at ``arrival`` is delivered."""
        if self.infinite_bandwidth:
            return arrival
        start = max(arrival, self._memory_bus_free)
        self._memory_bus_free = start + self.memory_bus_interval
        return start

    def _lower_access(self, cache: BankedCache, addr: int, cycle: int) -> int:
        """Access ``cache`` (L2 or L3) at ``cycle``; return the cycle its
        line data is available to the requesting level."""
        params = cache.params
        if not self.infinite_bandwidth:
            in_flight = cache.mshr_lookup(addr, cycle)
            if in_flight is not None:
                # Merge with the outstanding fill.
                cache.accesses += 1
                return in_flight + params.transfer_time
            # Queue for the port/bank.
            start = cycle
            while not cache.can_accept(addr, start):
                start += 1
            cache.grant_port(start)
        else:
            start = cycle
        hit = cache.lookup(addr, start)
        if hit:
            return start + params.transfer_time
        # Miss: go one level down.  ``arrival`` already includes this
        # level's request flight time (latency_to_next).
        arrival = start + params.latency_to_next
        if cache is self.l2:
            lower_ready = self._lower_access(self.l3, addr, arrival)
        else:
            lower_ready = self._memory_ready(arrival)
        fill_done = lower_ready + params.fill_time
        if self.infinite_bandwidth:
            cache.install(addr)
        else:
            cache.start_fill(addr, fill_done)
        return fill_done + params.transfer_time

    # ------------------------------------------------------------------
    def _l1_access(
        self, cache: BankedCache, tlb: TLB, tid: int, addr: int, cycle: int
    ) -> AccessResult:
        if cycle - self._last_expire >= 1024:
            self._tick_housekeeping(cycle)
        params = cache.params
        if not self.infinite_bandwidth:
            if not cache.can_accept(addr, cycle):
                return AccessResult(False, cycle + 1, rejected=True)

        tlb_penalty = 0
        if not tlb.access(tid, addr):
            tlb_penalty = 2 * self.full_memory_latency

        if not self.infinite_bandwidth:
            in_flight = cache.mshr_lookup(addr, cycle)
            if in_flight is not None:
                cache.accesses += 1
                cache.grant_port(cycle)
                return AccessResult(False, in_flight + tlb_penalty)
            if cache.mshr_full(cycle):
                return AccessResult(False, cycle + 1, rejected=True)
            cache.grant_port(cycle)

        hit = cache.lookup(addr, cycle)
        if hit:
            # L1 hit latency itself is part of the pipeline (load latency
            # 1); ready_cycle == cycle means "hit, data on time".
            return AccessResult(True, cycle + tlb_penalty)
        arrival = cycle + params.latency_to_next
        lower_ready = self._lower_access(self.l2, addr, arrival)
        # The page-walk penalty is charged to the requester's completion
        # (overlapping it with the line fill's resource bookings keeps
        # the port model monotonic).
        fill_done = lower_ready + params.fill_time + tlb_penalty
        if self.infinite_bandwidth:
            cache.install(addr)
        else:
            cache.start_fill(addr, fill_done)
        return AccessResult(False, fill_done)

    # ------------------------------------------------------------------
    def ifetch(self, tid: int, addr: int, cycle: int) -> AccessResult:
        """Instruction-side access for one fetch block."""
        return self._l1_access(self.icache, self.itlb, tid, addr, cycle)

    def daccess(self, tid: int, addr: int, cycle: int, is_store: bool = False) -> AccessResult:
        """Data-side access for a load or store."""
        return self._l1_access(self.dcache, self.dtlb, tid, addr, cycle)

    # ------------------------------------------------------------------
    def icache_probe(self, addr: int) -> bool:
        """Early tag lookup (the ITAG scheme): hit/miss without access.

        A line whose fill is still in flight counts as a miss (the data
        is not there yet), so the probe is simply the tag check minus
        lines still outstanding."""
        if not self.icache.probe(addr):
            return False
        return self.icache.outstanding.get(self.icache.line_of(addr)) is None

    def warm_access(self, tid: int, addr: int, is_instr: bool) -> None:
        """Functional (timing-free) access for cache warmup: walks the
        hierarchy updating tags/LRU/TLBs only."""
        tlb = self.itlb if is_instr else self.dtlb
        tlb.access(tid, addr)
        l1 = self.icache if is_instr else self.dcache
        if l1.warm_touch(addr):
            return
        if self.l2.warm_touch(addr):
            return
        self.l3.warm_touch(addr)

    def reset_stats(self) -> None:
        for cache in self.caches:
            cache.reset_stats()
        self.itlb.reset_stats()
        self.dtlb.reset_stats()


#: Table 2 parameter rows.
ICACHE_PARAMS = CacheParams(
    name="ICache", size=32 * 1024, assoc=1, line_size=64, banks=8,
    transfer_time=1, accesses_per_cycle=4, fill_time=2, latency_to_next=6,
)
DCACHE_PARAMS = CacheParams(
    name="DCache", size=32 * 1024, assoc=1, line_size=64, banks=8,
    transfer_time=1, accesses_per_cycle=4, fill_time=2, latency_to_next=6,
    mshrs=16,
)
L2_PARAMS = CacheParams(
    name="L2", size=256 * 1024, assoc=4, line_size=64, banks=8,
    transfer_time=1, accesses_per_cycle=1, fill_time=2, latency_to_next=12,
    mshrs=16,
)
L3_PARAMS = CacheParams(
    name="L3", size=2 * 1024 * 1024, assoc=1, line_size=64, banks=1,
    transfer_time=4, accesses_per_cycle=0.25, fill_time=8, latency_to_next=62,
)


def default_hierarchy(**overrides) -> MemoryHierarchy:
    """The paper's hierarchy; keyword overrides pass through."""
    return MemoryHierarchy(**overrides)
