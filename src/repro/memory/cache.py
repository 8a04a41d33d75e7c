"""Banked, lockup-free cache model.

Each cache level is interleaved into banks on line address (following
Sohi & Franklin, as the paper does); a bank serves one access per cycle
and is additionally occupied for ``fill_time`` cycles when a miss fill
returns.  Outstanding misses are tracked in MSHRs: a second miss to a
line already in flight merges with the first (lockup-free behaviour) and
costs no extra downstream traffic.

Tag state (hit/miss, LRU) is updated eagerly at access time; timing is
returned to the caller as absolute cycle numbers.

Tags live in one flat list per level, ``n_sets * assoc`` ints: set ``s``
owns the slice ``[s * assoc, (s + 1) * assoc)``, ordered least- to
most-recently used, with :data:`EMPTY` marking a way not yet filled.
Empty ways sit at the LRU end, so filling one and evicting the LRU line
are the same shift.  A direct-mapped level is then one index-and-compare
per access, and the whole tag state is a single GC-tracked object rather
than one list per set (the 2 MB L3 alone has 32,768 sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Tag-store value of a way that holds no line (lines are non-negative).
EMPTY = -1


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache level (one row of Table 2)."""

    name: str
    size: int                 # bytes
    assoc: int                # 1 = direct mapped
    line_size: int = 64
    banks: int = 8
    transfer_time: int = 1    # cycles to move a line over the output bus
    accesses_per_cycle: float = 1.0   # port limit across all banks
    fill_time: int = 2        # cycles a bank is busy accepting a fill
    latency_to_next: int = 6  # request flight time to the next level
    mshrs: int = 8            # outstanding distinct line misses

    def __post_init__(self):
        if self.size % (self.line_size * self.assoc * self.banks):
            raise ValueError(f"{self.name}: size not divisible into sets/banks")

    @property
    def n_sets(self) -> int:
        return self.size // (self.line_size * self.assoc)


class BankedCache:
    """One cache level with banks, ports, and MSHRs."""

    def __init__(self, params: CacheParams):
        self.params = params
        self.n_sets = params.n_sets
        self._line_shift = params.line_size.bit_length() - 1
        # Hot-path constants, denormalised out of the params dataclass
        # (attribute chains through a frozen dataclass cost two lookups
        # per access in code that runs millions of times per run).
        self._banks = params.banks
        self._assoc = params.assoc
        self._apc_ge1 = params.accesses_per_cycle >= 1
        self._apc = params.accesses_per_cycle
        self._slow_interval = (
            0 if self._apc_ge1 else round(1 / params.accesses_per_cycle)
        )
        # Flat tag store; see the module docstring for the layout.
        self._tags: List[int] = [EMPTY] * (self.n_sets * params.assoc)
        # Bank -> earliest cycle the bank can take another access
        # (serialises same-bank accesses at one per cycle).
        self._bank_free = [0] * params.banks
        # Bank -> [(start, end)] windows during which a returning fill
        # occupies the bank and rejects reads.
        self._fill_windows: List[List[tuple]] = [[] for _ in range(params.banks)]
        # Port accounting: cycle -> accesses already granted that cycle.
        # (accesses_per_cycle < 1 means one access per 1/apc cycles,
        # modelled with the same bank-free mechanism on bank 0.)
        self._port_grants: Dict[int, int] = {}
        # MSHRs: line address -> cycle the fill completes.
        self.outstanding: Dict[int, int] = {}
        # Statistics.
        self.accesses = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def bank_of(self, addr: int) -> int:
        return self.line_of(addr) % self.params.banks

    def _touch_lru(self, line: int) -> bool:
        """Set-associative hit check: make ``line`` its set's most recent
        way and return True, or return False with nothing changed."""
        assoc = self._assoc
        tags = self._tags
        end = (line % self.n_sets + 1) * assoc
        mru = end - 1
        if tags[mru] == line:
            return True
        base = end - assoc
        ways = tags[base:mru]
        if line not in ways:
            return False
        way = base + ways.index(line)
        tags[way:mru] = tags[way + 1:end]
        tags[mru] = line
        return True

    def _fill(self, line: int) -> None:
        """Insert absent ``line`` as its set's most recent way, evicting
        the least recent one (an empty way, until the set fills)."""
        assoc = self._assoc
        tags = self._tags
        if assoc == 1:
            tags[line % self.n_sets] = line
            return
        end = (line % self.n_sets + 1) * assoc
        tags[end - assoc:end - 1] = tags[end - assoc + 1:end]
        tags[end - 1] = line

    # ------------------------------------------------------------------
    def expire(self, cycle: int) -> None:
        """Retire bookkeeping that is strictly in the past."""
        self.outstanding = {
            line: ready for line, ready in self.outstanding.items() if ready > cycle
        }
        self._port_grants = {
            c: n for c, n in self._port_grants.items() if c >= cycle
        }
        self._fill_windows = [
            [(s, e) for (s, e) in windows if e >= cycle]
            for windows in self._fill_windows
        ]

    # ------------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Tag check only; no state change (used by ITAG early lookup)."""
        line = addr >> self._line_shift
        assoc = self._assoc
        if assoc == 1:
            return self._tags[line % self.n_sets] == line
        base = (line % self.n_sets) * assoc
        return line in self._tags[base:base + assoc]

    def bank_free_at(self, addr: int, cycle: int) -> bool:
        bank = (addr >> self._line_shift) % self._banks
        if self._bank_free[bank] > cycle:
            return False
        for start, end in self._fill_windows[bank]:
            if start <= cycle < end:
                return False
        return True

    def can_accept(self, addr: int, cycle: int) -> bool:
        """``port_available(cycle) and bank_free_at(addr, cycle)`` fused
        into one call for the hierarchy's hot path."""
        if self._apc_ge1:
            if self._port_grants.get(cycle, 0) >= self._apc:
                return False
        elif self._bank_free[0] > cycle:
            return False
        bank = (addr >> self._line_shift) % self._banks
        if self._bank_free[bank] > cycle:
            return False
        for start, end in self._fill_windows[bank]:
            if start <= cycle < end:
                return False
        return True

    def port_available(self, cycle: int) -> bool:
        if self._apc_ge1:
            return self._port_grants.get(cycle, 0) < self._apc
        # Fractional rate: at most one access per 1/apc cycles, enforced
        # through bank 0's free time (single-banked slow caches).
        return self._bank_free[0] <= cycle

    def grant_port(self, cycle: int) -> None:
        if self._apc_ge1:
            self._port_grants[cycle] = self._port_grants.get(cycle, 0) + 1
        else:
            self._bank_free[0] = cycle + self._slow_interval

    # ------------------------------------------------------------------
    def lookup(self, addr: int, cycle: int) -> bool:
        """Perform the tag access at ``cycle``; returns hit/miss and
        occupies the bank for this cycle.  Does not handle the miss —
        the hierarchy does that."""
        self.accesses += 1
        line = addr >> self._line_shift
        bank = line % self._banks
        bank_free = self._bank_free
        if bank_free[bank] <= cycle:
            bank_free[bank] = cycle + 1
        if self._assoc == 1:
            if self._tags[line % self.n_sets] == line:
                return True
        elif self._touch_lru(line):
            return True
        self.misses += 1
        return False

    def warm_touch(self, addr: int) -> bool:
        """Functional (timing-free) touch: LRU update, install on miss.

        Used by functional warmup to bring tag state to steady state
        without simulating cycles.  Returns True on hit."""
        line = addr >> self._line_shift
        if self._assoc == 1:
            tags = self._tags
            index = line % self.n_sets
            if tags[index] == line:
                return True
            tags[index] = line
            return False
        if self._touch_lru(line):
            return True
        self._fill(line)
        return False

    def mshr_lookup(self, addr: int, cycle: Optional[int] = None) -> Optional[int]:
        """Completion cycle of an in-flight fill for this line, if any.

        When ``cycle`` is given, an entry whose fill already landed is
        retired on the spot (the line is installed, so a fresh lookup
        will hit)."""
        line = addr >> self._line_shift
        ready = self.outstanding.get(line)
        if ready is None:
            return None
        if cycle is not None and ready <= cycle:
            del self.outstanding[line]
            return None
        return ready

    def mshr_full(self, cycle: int) -> bool:
        """True if no miss-status register is free at ``cycle``.

        Entries whose fill has already landed are pruned on the spot —
        a completed fill frees its MSHR immediately, not at the next
        housekeeping sweep."""
        if len(self.outstanding) < self.params.mshrs:
            return False
        self.outstanding = {
            line: ready for line, ready in self.outstanding.items() if ready > cycle
        }
        return len(self.outstanding) >= self.params.mshrs

    def install(self, addr: int) -> None:
        """Install a line's tag (evicting LRU if needed).  A line already
        present keeps its LRU position."""
        if not self.probe(addr):
            self._fill(addr >> self._line_shift)

    def start_fill(self, addr: int, ready_cycle: int) -> None:
        """Record an outstanding miss; the line installs at ready_cycle."""
        line = self.line_of(addr)
        self.outstanding[line] = ready_cycle
        # Install the tag now (the timing gate is the MSHR entry); the
        # bank is busy accepting the fill when it lands.
        self.install(addr)
        bank = self.bank_of(addr)
        windows = self._fill_windows[bank]
        windows.append((ready_cycle, ready_cycle + self.params.fill_time))
        if len(windows) > 64:
            del windows[0]

    # ------------------------------------------------------------------
    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0
