"""Thread-to-core allocation policies and their registry.

:data:`ALLOCATORS` is an instance of the one spec registry
(:class:`repro.policy.registry.SpecRegistry`, which also holds the
fetch policies): the CLI's ``repro allocators`` listing, spec
validation, and the driver's allocator construction all read it, with
the fetch policies' grammar, messages and ``crc32(seed, spec)``
seeding.  Allocators take ``key=value`` options but no arms list
(``arms=False``), e.g. ``ROUND_ROBIN`` or ``PAIRING:miss_weight=2.0``.
Allocator specs live in :class:`~repro.multicore.driver.MulticoreRunSpec`
and hash into multicore cache keys.

The policies:

* ``RANDOM`` — seeded uniform choice among cores with a free context
  (the baseline the allocation papers compare against).
* ``ROUND_ROBIN`` — cycle through cores in index order, skipping full
  ones.  With no core ever full, allocation counts across cores never
  differ by more than one (the fairness invariant the property tests
  pin).
* ``LOAD`` — fewest resident threads, ties to the lowest core index.
* ``PAIRING`` — SYNPA-style predicted-interference pairing: each
  job carries a telemetry snapshot (IPC proxy, IQ pressure, miss rate
  — an EWMA that the driver's own ``_signals`` and
  ``_update_telemetry`` compute each quantum from committed counts,
  issue-queue entries and outstanding misses), and the candidate goes to
  the eligible core whose resident jobs' predicted interference with it
  is smallest.  The interference estimate is a weighted dot product of
  the candidate's and each resident's signals: two memory-bound jobs
  (high miss rates) contend for MSHRs and cache capacity, two
  queue-hungry jobs contend for IQ entries, two high-IPC jobs contend
  for issue slots.  Ties fall back to LOAD order, so an untrained
  snapshot (all zeros) degrades gracefully to load balancing.  The
  decision is a pure function of the snapshots — identical telemetry,
  identical choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, Tuple

from repro.policy.registry import SpecInfo, SpecRegistry


class AllocationError(ValueError):
    """An allocator misbehaved (chose a full or unknown core)."""


#: Telemetry snapshot keys every job carries (see
#: :class:`repro.multicore.driver.Job`); missing keys read as 0.0.
TELEMETRY_KEYS = ("ipc", "iq", "miss")


@dataclass(frozen=True)
class CoreView:
    """What an allocator may observe about one core.

    ``telemetry`` holds the resident jobs' signal snapshots (one mapping
    per resident job, in residence order).
    """

    index: int
    resident: int
    capacity: int
    telemetry: Tuple[Mapping[str, float], ...] = ()

    @property
    def free(self) -> int:
        return self.capacity - self.resident


def eligible_cores(cores: Sequence[CoreView]) -> Tuple[CoreView, ...]:
    """Cores with at least one free hardware context."""
    return tuple(core for core in cores if core.free > 0)


# ----------------------------------------------------------------------
# Policies.
# ----------------------------------------------------------------------
class Allocator:
    """Base class: pick a core for one job.

    ``choose`` is called only when at least one core has a free
    context; it must return the index of such a core.  Policies keep
    any internal state (cursors, RNGs) on the instance, so an allocator
    is reusable across a whole driver run but never across runs.
    """

    name = "?"
    description = ""

    def __init__(self) -> None:
        self.spec = self.name

    def choose(self, job: Any, cores: Sequence[CoreView]) -> int:
        raise NotImplementedError

    def telemetry_snapshot(self, job: Any) -> Mapping[str, float]:
        """The job's signal snapshot (empty mapping if untracked)."""
        return getattr(job, "telemetry", None) or {}


class RandomAllocator(Allocator):
    name = "RANDOM"
    description = ("seeded uniform choice among cores with a free "
                   "context (baseline)")

    def __init__(self, rng_seed: int = 0):
        super().__init__()
        self.rng = random.Random(rng_seed)

    def choose(self, job, cores):
        candidates = eligible_cores(cores)
        if not candidates:
            raise AllocationError("no core has a free context")
        return self.rng.choice(candidates).index


class RoundRobinAllocator(Allocator):
    name = "ROUND_ROBIN"
    description = ("cycle cores in index order, skipping full ones "
                   "(fair by construction)")

    def __init__(self) -> None:
        super().__init__()
        self._cursor = 0

    def choose(self, job, cores):
        n = len(cores)
        for step in range(n):
            core = cores[(self._cursor + step) % n]
            if core.free > 0:
                self._cursor = (core.index + 1) % n
                return core.index
        raise AllocationError("no core has a free context")


class LoadAllocator(Allocator):
    name = "LOAD"
    description = "fewest resident threads, ties to the lowest core index"

    def choose(self, job, cores):
        candidates = eligible_cores(cores)
        if not candidates:
            raise AllocationError("no core has a free context")
        return min(candidates, key=lambda c: (c.resident, c.index)).index


class PairingAllocator(Allocator):
    name = "PAIRING"
    description = ("SYNPA-style predicted-interference pairing from "
                   "per-thread telemetry (IPC, IQ pressure, miss rate)")

    def __init__(self, miss_weight: float = 1.0, iq_weight: float = 0.5,
                 ipc_weight: float = 0.25):
        super().__init__()
        if min(miss_weight, iq_weight, ipc_weight) < 0:
            raise ValueError("PAIRING weights must be non-negative")
        self.miss_weight = miss_weight
        self.iq_weight = iq_weight
        self.ipc_weight = ipc_weight

    # ------------------------------------------------------------------
    def interference(self, candidate: Mapping[str, float],
                     resident: Mapping[str, float]) -> float:
        """Predicted slowdown of co-scheduling two jobs (unitless)."""
        c_ipc = candidate.get("ipc", 0.0)
        r_ipc = resident.get("ipc", 0.0)
        return (
            self.miss_weight * candidate.get("miss", 0.0)
            * resident.get("miss", 0.0)
            + self.iq_weight * candidate.get("iq", 0.0)
            * resident.get("iq", 0.0)
            # IPC proxies are in instructions/cycle, not [0, 1];
            # normalise by the paper's 8-wide issue ceiling.
            + self.ipc_weight * (c_ipc / 8.0) * (r_ipc / 8.0)
        )

    def score(self, candidate: Mapping[str, float], core: CoreView) -> float:
        return sum(
            self.interference(candidate, resident)
            for resident in core.telemetry
        )

    def choose(self, job, cores):
        candidates = eligible_cores(cores)
        if not candidates:
            raise AllocationError("no core has a free context")
        snapshot = self.telemetry_snapshot(job)
        return min(
            candidates,
            key=lambda c: (self.score(snapshot, c), c.resident, c.index),
        ).index


# ----------------------------------------------------------------------
# The allocator table: an instance of the one spec registry.
# ----------------------------------------------------------------------
ALLOCATORS = SpecRegistry(
    noun="allocator", title="allocator", unknown="allocation policy",
    plural="allocators",
    groups=(("allocator", "thread-to-core allocation policies"),),
    footer=("spec grammar: NAME, NAME:key=value,...  "
            "(e.g. PAIRING:miss_weight=2.0)",
            "used by     : repro multicore run --allocator, "
            "repro experiment allocation"),
    arms=False,
)

for _cls, _factory, _params in (
    (RandomAllocator, lambda arms, opts, seed: RandomAllocator(seed), {}),
    (RoundRobinAllocator, lambda arms, opts, seed: RoundRobinAllocator(), {}),
    (LoadAllocator, lambda arms, opts, seed: LoadAllocator(), {}),
    (PairingAllocator, lambda arms, opts, seed: PairingAllocator(**opts),
     dict.fromkeys(("miss_weight", "iq_weight", "ipc_weight"), float)),
):
    ALLOCATORS.register(SpecInfo(
        name=_cls.name, kind="allocator", summary=_cls.description,
        factory=_factory, params=_params,
    ))

make_allocator: Callable[..., Allocator] = ALLOCATORS.make
allocator_names = ALLOCATORS.names
