"""Warm machine-state images: amortising functional warmup across runs.

Functional warmup (:meth:`Simulator.functional_warmup`) dominates the cost
of short campaign runs: it emulates tens of thousands of instructions per
thread to bring caches, TLBs, and the branch predictor to steady state
before a comparatively small timed window.  Warmup is a *pure function*
of a few inputs — the programs on each context, the workload seed, the
predictor's shape and the warmup length
(:func:`repro.experiments.parallel.warm_key`) — and reads no timed
state, so its result can be captured once and replayed into any fresh
simulator whose spec shares those inputs, whatever its fetch scheme,
queues or pipeline.

A :class:`WarmImage` is a snapshot of everything functional warmup
mutates:

* per thread: its correct-path cursor (the architectural state is the
  program's shared stream, :mod:`repro.isa.stream`), the physical frame
  map, ``fetch_pc``, and ``last_data_addr``;
* the hierarchy: every cache level's filled ways, stored sparsely as
  two ``array('q')`` (way indices and their tags — the 2 MB L3's flat
  tag store is over 95% empty after warmup), and both TLB maps (timing
  state — banks, ports, MSHRs — is untouched by warmup);
* the branch predictor's trained state, field by field: PHT counters,
  BTB sets, histories and return stacks.  Its configuration flags stay
  with the simulator the image is restored into.

:func:`restore` copies *out of* the image each time, so one image serves
any number of simulators; equivalence with a fresh warmup is enforced by
``tests/workloads/test_images.py`` (bit-identical ``SimResult``).

Images live in a process-level store.  The parallel engine precomputes,
in the pool parent and **before** forking workers, the images that
several runs of a batch share, so every worker inherits them
copy-on-write and per-run warmup drops to a restore.  An image only one
run needs is computed by the worker that runs it and kept in that
worker's own store.  Campaign workers (:mod:`repro.sched.worker`) and
the serial path use the same store, so a process warms each state once.
:func:`repro.experiments.parallel.run_spec` is the reference path: every
run does its own functional warmup.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.memory.cache import EMPTY

if TYPE_CHECKING:  # pragma: no cover
    from repro.branch.predictor import BranchPredictor
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


@dataclass
class WarmImage:
    """Snapshot of the machine state functional warmup produces."""

    __slots__ = ("threads", "cache_tags", "tlb_maps", "predictor",
                 "warm_instructions")

    threads: List[Dict[str, Any]]
    #: Per cache level, top down: (way indices, tags) of the filled ways.
    cache_tags: List[Tuple[array, array]]
    tlb_maps: List[OrderedDict]
    predictor: Dict[str, Any]
    warm_instructions: int


# ----------------------------------------------------------------------
def _capture_predictor(predictor: "BranchPredictor") -> Dict[str, Any]:
    return {
        "pht": array("b", predictor.pht.table),
        "btb": [list(ways) for ways in predictor.btb._sets],
        "histories": list(predictor.histories),
        "ras": [(list(ras._buf), ras.top) for ras in predictor.ras],
    }


def _restore_predictor(predictor: "BranchPredictor",
                       saved: Dict[str, Any]) -> None:
    predictor.pht.table[:] = saved["pht"]
    for ways, saved_ways in zip(predictor.btb._sets, saved["btb"]):
        ways[:] = saved_ways
    predictor.histories[:] = saved["histories"]
    for ras, (buf, top) in zip(predictor.ras, saved["ras"]):
        ras._buf[:] = buf
        ras.top = top


def capture(sim: "Simulator", warm_instructions: int) -> WarmImage:
    """Copy the warm state out of ``sim`` (post functional warmup)."""
    threads = []
    for thread in sim.threads:
        threads.append({
            "cursor": thread.cursor.state(),
            "frames": dict(thread._frames),
            "fetch_pc": thread.fetch_pc,
            "last_data_addr": thread.last_data_addr,
        })
    hierarchy = sim.hierarchy
    cache_tags = []
    for cache in hierarchy.caches:
        tags = cache._tags
        ways = array("q", [way for way, tag in enumerate(tags)
                           if tag != EMPTY])
        cache_tags.append((ways, array("q", [tags[way] for way in ways])))
    tlb_maps = [OrderedDict(hierarchy.itlb._map),
                OrderedDict(hierarchy.dtlb._map)]
    return WarmImage(threads, cache_tags, tlb_maps,
                     _capture_predictor(sim.predictor), warm_instructions)


def restore(sim: "Simulator", image: WarmImage) -> None:
    """Install ``image`` into a freshly constructed ``sim``."""
    if sim.cycle != 0 or any(t.cursor.pos for t in sim.threads):
        raise RuntimeError("warm image restore must precede simulation "
                           "and functional warmup")
    if len(sim.threads) != len(image.threads):
        raise ValueError("image/simulator thread-count mismatch")
    for thread, st in zip(sim.threads, image.threads):
        thread.cursor.seek(st["cursor"])
        thread._frames.clear()
        thread._frames.update(st["frames"])
        thread.fetch_pc = st["fetch_pc"]
        thread.last_data_addr = st["last_data_addr"]
    hierarchy = sim.hierarchy
    # A fresh simulator's tag stores are all EMPTY: fill in the ways.
    for cache, (ways, saved) in zip(hierarchy.caches, image.cache_tags):
        tags = cache._tags
        for way, tag in zip(ways, saved):
            tags[way] = tag
    hierarchy.itlb._map = OrderedDict(image.tlb_maps[0])
    hierarchy.dtlb._map = OrderedDict(image.tlb_maps[1])
    _restore_predictor(sim.predictor, image.predictor)


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
