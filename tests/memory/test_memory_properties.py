"""Property-based tests for the cache model."""

from hypothesis import given, settings, strategies as st

from repro.memory.cache import EMPTY, BankedCache, CacheParams
from repro.memory.hierarchy import MemoryHierarchy


def tiny_cache(assoc=2):
    return BankedCache(CacheParams(
        name="prop", size=2048, assoc=assoc, line_size=64, banks=2,
        transfer_time=1, accesses_per_cycle=4, fill_time=1,
        latency_to_next=6, mshrs=4,
    ))


# ----------------------------------------------------------------------
# The reference set-associative LRU model.
# ----------------------------------------------------------------------
class ReferenceLRU:
    """One Python list per set, most recently used last."""

    def __init__(self, n_sets, assoc):
        self.assoc = assoc
        self.sets = [[] for _ in range(n_sets)]

    def _set(self, line):
        return self.sets[line % len(self.sets)]

    def probe(self, line):
        return line in self._set(line)

    def lookup(self, line):
        s = self._set(line)
        if line not in s:
            return False
        s.remove(line)
        s.append(line)
        return True

    def install(self, line):
        s = self._set(line)
        if line not in s:
            if len(s) >= self.assoc:
                s.pop(0)
            s.append(line)

    def warm_touch(self, line):
        hit = self.lookup(line)
        if not hit:
            self.install(line)
        return hit

    def flat(self):
        out = []
        for s in self.sets:
            out.extend([EMPTY] * (self.assoc - len(s)) + s)
        return out


# ----------------------------------------------------------------------
# warm_touch agrees with the reference model.
# ----------------------------------------------------------------------
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_warm_touch_matches_reference_lru(line_ids):
    cache = tiny_cache(assoc=2)
    model = ReferenceLRU(cache.n_sets, 2)
    for line_id in line_ids:
        assert cache.warm_touch(line_id * 64) == model.warm_touch(line_id)


# ----------------------------------------------------------------------
# Every tag operation agrees with the same model, for direct-mapped,
# 2-way and 4-way sets, and the flat store holds exactly the model's
# sets: each set's slice is its lines in LRU order (most recent last)
# behind EMPTY ways.  Short sequences leave most sets part-full, so the
# empty-way path (install without eviction) is exercised throughout.
# ----------------------------------------------------------------------
OPS = ("lookup", "install", "start_fill", "probe", "warm_touch")


@given(st.sampled_from((1, 2, 4)),
       st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 95)),
                min_size=1, max_size=200))
@settings(max_examples=80, deadline=None)
def test_tag_operations_match_reference_lru(assoc, ops):
    cache = tiny_cache(assoc=assoc)
    model = ReferenceLRU(cache.n_sets, assoc)
    assert cache._tags == model.flat()  # every way starts empty
    for cycle, (op, line) in enumerate(ops):
        addr = line * 64
        if op == "lookup":
            assert cache.lookup(addr, cycle) == model.lookup(line)
        elif op == "install":
            cache.install(addr)
            model.install(line)
        elif op == "start_fill":
            cache.start_fill(addr, cycle + 10)
            model.install(line)
        elif op == "probe":
            assert cache.probe(addr) == model.probe(line)
        else:
            assert cache.warm_touch(addr) == model.warm_touch(line)
        assert cache._tags == model.flat(), (op, line)


def test_empty_ways_fill_before_eviction():
    cache = tiny_cache(assoc=4)
    stride = 64 * cache.n_sets           # same set, different tags
    for i in range(3):
        cache.install(i * stride)
    assert all(cache.probe(i * stride) for i in range(3))
    assert cache._tags[:4] == [EMPTY, 0, cache.n_sets, 2 * cache.n_sets]
    assert cache.lookup(0, 0)            # line 0 becomes most recent
    cache.install(3 * stride)            # fills the last empty way
    cache.install(4 * stride)            # full: evicts the LRU line
    assert not cache.probe(stride)
    assert all(cache.probe(i * stride) for i in (0, 2, 3, 4))


# ----------------------------------------------------------------------
# The timed lookup/fill path never hits for a line never filled, and
# always hits for a line just filled (same set pressure permitting).
# ----------------------------------------------------------------------
@given(st.lists(st.integers(0, 31), min_size=1, max_size=100))
@settings(max_examples=40, deadline=None)
def test_lookup_subset_of_filled(line_ids):
    cache = tiny_cache()
    filled = set()
    cycle = 0
    for line_id in line_ids:
        addr = line_id * 64
        hit = cache.lookup(addr, cycle)
        if hit:
            assert line_id in filled, "hit on a never-filled line"
        else:
            cache.start_fill(addr, cycle)
            filled.add(line_id)
        cycle += 3


# ----------------------------------------------------------------------
# Hierarchy accesses always complete in bounded time and never lose the
# hit-after-fill property under random interleavings.
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 40)),
                min_size=1, max_size=60),
       st.integers(2, 9))
@settings(max_examples=30, deadline=None)
def test_hierarchy_bounded_latency(accesses, gap):
    h = MemoryHierarchy()
    cycle = 0
    for tid, line_id in accesses:
        addr = 0x1000000 + line_id * 64
        result = h.daccess(tid, addr, cycle)
        if not result.rejected:
            assert result.ready_cycle <= cycle + 3000
            assert result.ready_cycle >= cycle
        cycle += gap


@given(st.integers(0, 100), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_hit_after_uncontended_fill(line_id, tid):
    h = MemoryHierarchy()
    addr = 0x1000000 + line_id * 64
    first = h.daccess(tid, addr, 0)
    assert not first.l1_hit
    later = h.daccess(tid, addr, first.ready_cycle + 10)
    assert later.l1_hit
