"""Warm machine-state images: amortising functional warmup across runs.

Functional warmup (:meth:`Simulator.functional_warmup`) dominates the cost
of short campaign runs: it emulates tens of thousands of instructions per
thread to bring caches, TLBs, and the branch predictor to steady state
before a comparatively small timed window.  Warmup is a *pure function*
of the workload and the warm-relevant configuration — it reads no timed
state — so its result can be captured once and replayed into any fresh
simulator built from the same spec.

A :class:`WarmImage` is a deep snapshot of everything functional warmup
mutates:

* per thread: the architectural emulator (pc, instret, halted, register
  files, memory overlays), the physical frame map, ``fetch_pc``, and
  ``last_data_addr``;
* the hierarchy: every cache level's flat tag/LRU store (one list per
  level) and both TLB maps (timing state — banks, ports, MSHRs — is
  untouched by warmup);
* the branch predictor (BTB, PHT, RAS, histories), snapshotted whole.

:func:`restore` copies *out of* the image each time, so one image serves
any number of simulators; equivalence with a fresh warmup is enforced by
``tests/workloads/test_images.py`` (bit-identical ``SimResult``).

Images live in a process-level store.  The parallel engine precomputes a
batch's images in the pool parent **before** forking workers, so every
worker inherits them copy-on-write and per-run warmup drops to a
restore.  The serial path uses the same store, amortising warmup across
repeated specs within one process.  Set ``REPRO_NO_WARM_IMAGES=1`` to
disable image use entirely (every run then warms from scratch).
"""

from __future__ import annotations

import copy
import os
from collections import OrderedDict
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator

#: Bounded store: a huge sweep of distinct configs must not hold every
#: warm state alive.  LRU eviction; 64 images is far beyond any one
#: figure's working set.
_MAX_IMAGES = 64

_STORE: "OrderedDict[str, WarmImage]" = OrderedDict()
_GENERATION = 0

#: Statistics (introspectable from benchmarks/tests).
hits = 0
misses = 0


def images_enabled() -> bool:
    from repro.envutil import env_flag
    return not env_flag("REPRO_NO_WARM_IMAGES")


class WarmImage:
    """Snapshot of the machine state functional warmup produces."""

    __slots__ = ("threads", "cache_tags", "tlb_maps", "predictor",
                 "warm_instructions")

    def __init__(self, threads: List[dict], cache_tags: List[List[int]],
                 tlb_maps: List[OrderedDict], predictor: object,
                 warm_instructions: int):
        self.threads = threads
        self.cache_tags = cache_tags
        self.tlb_maps = tlb_maps
        self.predictor = predictor
        self.warm_instructions = warm_instructions


# ----------------------------------------------------------------------
def capture(sim: "Simulator", warm_instructions: int) -> WarmImage:
    """Deep-copy the warm state out of ``sim`` (post functional warmup)."""
    threads = []
    for thread in sim.threads:
        emu = thread.emulator
        threads.append({
            "pc": emu.pc,
            "instret": emu.instret,
            "halted": emu.halted,
            "int_regs": list(emu.int_regs),
            "fp_regs": list(emu.fp_regs),
            "mem": dict(emu._mem),
            "fmem": dict(emu._fmem),
            "frames": dict(thread._frames),
            "fetch_pc": thread.fetch_pc,
            "last_data_addr": thread.last_data_addr,
        })
    hierarchy = sim.hierarchy
    cache_tags = [list(cache._tags) for cache in hierarchy.caches]
    tlb_maps = [OrderedDict(hierarchy.itlb._map),
                OrderedDict(hierarchy.dtlb._map)]
    return WarmImage(threads, cache_tags, tlb_maps,
                     copy.deepcopy(sim.predictor), warm_instructions)


def restore(sim: "Simulator", image: WarmImage) -> None:
    """Install ``image`` into a freshly constructed ``sim``."""
    if sim.cycle != 0:
        raise RuntimeError("warm image restore must precede simulation")
    if len(sim.threads) != len(image.threads):
        raise ValueError("image/simulator thread-count mismatch")
    for thread, st in zip(sim.threads, image.threads):
        emu = thread.emulator
        emu.pc = st["pc"]
        emu.instret = st["instret"]
        emu.halted = st["halted"]
        emu.int_regs[:] = st["int_regs"]
        emu.fp_regs[:] = st["fp_regs"]
        emu._mem.clear()
        emu._mem.update(st["mem"])
        emu._fmem.clear()
        emu._fmem.update(st["fmem"])
        thread._frames.clear()
        thread._frames.update(st["frames"])
        thread.fetch_pc = st["fetch_pc"]
        thread.last_data_addr = st["last_data_addr"]
    hierarchy = sim.hierarchy
    for cache, tags in zip(hierarchy.caches, image.cache_tags):
        cache._tags[:] = tags
    hierarchy.itlb._map = OrderedDict(image.tlb_maps[0])
    hierarchy.dtlb._map = OrderedDict(image.tlb_maps[1])
    sim.predictor = copy.deepcopy(image.predictor)


# ----------------------------------------------------------------------
def lookup(key: str) -> Optional[WarmImage]:
    image = _STORE.get(key)
    if image is not None:
        _STORE.move_to_end(key)
    return image


def put(key: str, image: WarmImage) -> None:
    global _GENERATION
    _STORE[key] = image
    _STORE.move_to_end(key)
    while len(_STORE) > _MAX_IMAGES:
        _STORE.popitem(last=False)
    _GENERATION += 1


def generation() -> int:
    """Monotonic store version — the pool re-forks when it changes, so
    workers always inherit the current images copy-on-write."""
    return _GENERATION


def clear() -> None:
    """Drop all images (tests, benchmark isolation)."""
    global _GENERATION, hits, misses
    _STORE.clear()
    _GENERATION += 1
    hits = 0
    misses = 0


def size() -> int:
    return len(_STORE)


# ----------------------------------------------------------------------
def warm_via_image(sim: "Simulator", key: str,
                   warm_instructions: int) -> bool:
    """Warm ``sim``, through the image store when possible.

    On a hit the stored image is restored (no emulation); on a miss the
    ordinary :meth:`functional_warmup` runs and its outcome is captured
    for the next simulator with the same key.  Returns True on a hit.
    """
    global hits, misses
    image = lookup(key)
    if image is not None and image.warm_instructions == warm_instructions:
        restore(sim, image)
        hits += 1
        return True
    sim.functional_warmup(warm_instructions)
    put(key, capture(sim, warm_instructions))
    misses += 1
    return False
