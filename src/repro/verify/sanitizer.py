"""Runtime pipeline invariant sanitizer.

The paper's conclusions (ICOUNT's win, the vanishing IQ clog, issue
policy irrelevance) are read off internal pipeline state, so the model
behind that state needs continuous validation, not just end-to-end IPC
checks.  :class:`PipelineSanitizer` attaches to a live
:class:`~repro.core.simulator.Simulator` through the composable
observer hooks (commit listener, squash listener, and the per-cycle
``sim.sanitizer`` slot) and verifies, every cycle:

**Structural invariants** (``check_cycle``)

* instruction-queue occupancy never exceeds the configured capacity,
  entries live in the queue matching their type, belong to a live ROB,
  and appear exactly once;
* per-thread ICOUNT (``unissued_count``, the fetch-policy input) equals
  the number of the thread's in-flight uops still in the pre-issue
  stages, and BRCOUNT (``unresolved_branches``) the number of its
  unexecuted control instructions;
* physical registers are conserved: per file, the free list, the
  current rename maps, and in-flight instructions' displaced mappings
  partition the register file exactly — no leak, no double allocation;
* fetch respects the ``alg.num1.num2`` partition: at most ``num1``
  threads supply instructions in any cycle, no thread supplies more
  than ``num2``, the total never exceeds the fetch width, and fetch
  blocks from different threads never interleave;
* the fetch and decode buffers respect their configured bounds.

**Stream invariants** (listeners)

* committed uops are correct-path, executed, and commit in strictly
  increasing per-thread program order;
* no dynamic instruction is both squashed and committed;
* every committed PC follows the thread's architectural oracle in
  lockstep: a private shadow :class:`~repro.isa.emulator.Emulator` per
  thread is replayed to the simulator's current architectural position
  and stepped once per commit (the differential check the fuzzer
  drives).

The first breach raises :class:`InvariantViolation` carrying the cycle,
thread, invariant name, and uop provenance.  Overhead when detached is
a single ``is None`` test per cycle; when attached, full checks run
every ``check_interval`` cycles (default: every cycle).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.core.simulator import Simulator
from repro.core.uop import (
    S_COMMITTED,
    S_DONE,
    S_ISSUED,
    S_QUEUED,
    S_SQUASHED,
    STATE_NAMES,
    Uop,
)
from repro.isa.emulator import Emulator

#: Queue-entry states that legitimately occupy an IQ slot.  ``S_DONE``
#: entries linger until ``release_freed`` drops them at the start of
#: the next cycle.
_IQ_STATES = (S_QUEUED, S_ISSUED, S_DONE)


class InvariantViolation(Exception):
    """A structural invariant failed.

    Structured so violations survive multiprocessing boundaries and the
    schema-versioned export layer: ``invariant`` names the check,
    ``cycle``/``tid`` locate it, ``uop`` is the provenance string of the
    offending instruction (if one exists), and ``details`` carries
    check-specific context (expected/actual values).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        cycle: int,
        tid: Optional[int] = None,
        uop: Optional[str] = None,
        details: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(invariant, message, cycle, tid, uop, details)
        self.invariant = invariant
        self.message = message
        self.cycle = cycle
        self.tid = tid
        self.uop = uop
        self.details = details or {}

    def __str__(self) -> str:
        where = f"cycle {self.cycle}"
        if self.tid is not None:
            where += f", thread {self.tid}"
        text = f"[{self.invariant}] {self.message} ({where})"
        if self.uop:
            text += f" uop={self.uop}"
        if self.details:
            pairs = ", ".join(f"{k}={v!r}" for k, v in self.details.items())
            text += f" [{pairs}]"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for the structured exporters."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "cycle": self.cycle,
            "tid": self.tid,
            "uop": self.uop,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InvariantViolation":
        return cls(
            invariant=data["invariant"],
            message=data["message"],
            cycle=data["cycle"],
            tid=data.get("tid"),
            uop=data.get("uop"),
            details=data.get("details") or {},
        )


class PipelineSanitizer:
    """Always-available structural checker for a live simulator.

    Attach before (or at any point during) a run::

        sim = Simulator(config, programs)
        sanitizer = PipelineSanitizer(sim)   # attaches immediately
        sim.run()                            # raises InvariantViolation
                                             # on the first breach

    ``check_oracle=False`` skips the per-commit architectural lockstep
    (useful when only structural invariants are wanted);
    ``check_interval=N`` runs the expensive whole-structure scans every
    N cycles while keeping the cheap per-cycle fetch-partition check.
    The sanitizer composes with the tracer, telemetry sampler, and
    metrics collector through the listener chains.
    """

    def __init__(self, sim: Simulator, check_oracle: bool = True,
                 check_interval: int = 1, autostart: bool = True):
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.sim = sim
        self.check_oracle = check_oracle
        self.check_interval = check_interval
        self._attached = False
        #: Cycles fully checked (telemetry for tests and reports).
        self.cycles_checked = 0
        self.commits_checked = 0
        self.squashes_checked = 0
        # Shadow oracles are created lazily (first commit or first
        # checked cycle) so functional warmup — which advances the
        # architectural state without committing — is accounted for.
        self._oracles: Optional[List[Emulator]] = None
        self._prev_next_seq: List[int] = []
        self._last_committed_seq: List[int] = []
        self._squashed_seqs: List[Set[int]] = []
        if autostart:
            self.attach()

    # ------------------------------------------------------------------
    # Attach / detach.
    # ------------------------------------------------------------------
    def attach(self) -> None:
        if self._attached:
            return
        sim = self.sim
        if sim.sanitizer is not None:
            raise RuntimeError("simulator already has a sanitizer")
        n = len(sim.threads)
        self._prev_next_seq = [t.next_seq for t in sim.threads]
        self._last_committed_seq = [-1] * n
        self._squashed_seqs = [set() for _ in range(n)]
        sim.add_commit_listener(self._on_commit)
        sim.add_squash_listener(self._on_squash)
        sim.sanitizer = self
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        sim = self.sim
        sim.sanitizer = None
        sim.remove_commit_listener(self._on_commit)
        sim.remove_squash_listener(self._on_squash)
        self._attached = False

    # ------------------------------------------------------------------
    # Shadow-oracle synchronisation.
    #
    # Each thread's cursor has consumed ``pos`` correct-path
    # instructions of its program's shared stream.  Consumed
    # instructions are either committed already or in flight on the
    # correct path, so a fresh emulator replayed
    # ``pos - inflight_correct`` steps sits exactly at the next PC the
    # pipeline must commit.  This holds at any attach point: cycle 0,
    # after functional warmup, or mid-run.  The shadow is the
    # sanitizer's own emulator, independent of the stream.
    # ------------------------------------------------------------------
    def _ensure_oracles(self, committing_tid: Optional[int] = None) -> None:
        if self._oracles is not None or not self.check_oracle:
            return
        oracles = []
        for thread in self.sim.threads:
            inflight_correct = sum(
                1 for u in thread.rob if not u.wrong_path
            )
            consumed = thread.cursor.pos - inflight_correct
            if thread.tid == committing_tid:
                # Mid-commit: the committing uop has left the ROB but
                # must still be replayed by the shadow oracle.
                consumed -= 1
            shadow = Emulator(thread.program)
            for _ in range(consumed):
                shadow.step()
            oracles.append(shadow)
        self._oracles = oracles

    # ------------------------------------------------------------------
    # Stream hooks.
    # ------------------------------------------------------------------
    def _on_commit(self, uop: Uop) -> None:
        self.commits_checked += 1
        cycle = self.sim.cycle
        tid = uop.tid
        if uop.state != S_COMMITTED:
            self._fail("commit-state",
                       f"committing uop in state "
                       f"{STATE_NAMES.get(uop.state, uop.state)}",
                       cycle, tid, uop)
        if uop.wrong_path:
            self._fail("commit-wrong-path",
                       "wrong-path instruction committed", cycle, tid, uop)
        if uop.complete_c < 0 or uop.commit_ready_c > cycle:
            self._fail("commit-before-complete",
                       "instruction committed before executing",
                       cycle, tid, uop,
                       details={"complete_c": uop.complete_c,
                                "commit_ready_c": uop.commit_ready_c})
        last = self._last_committed_seq[tid]
        if uop.seq <= last:
            self._fail("commit-order",
                       "per-thread commit order not strictly increasing",
                       cycle, tid, uop,
                       details={"seq": uop.seq, "last_committed": last})
        squashed = self._squashed_seqs[tid]
        if uop.seq in squashed:
            self._fail("squash-then-commit",
                       "previously squashed instruction committed",
                       cycle, tid, uop, details={"seq": uop.seq})
        self._last_committed_seq[tid] = uop.seq
        if squashed:
            # In-order commit: seqs at or below the commit point can
            # never commit later, so the set stays in-flight sized.
            self._squashed_seqs[tid] = {
                s for s in squashed if s > uop.seq
            }
        if self.check_oracle:
            self._ensure_oracles(committing_tid=tid)
            record = self._oracles[tid].step()
            if record.pc != uop.pc:
                self._fail("oracle-divergence",
                           "committed PC diverges from the architectural "
                           "oracle", cycle, tid, uop,
                           details={"expected_pc": hex(record.pc),
                                    "actual_pc": hex(uop.pc),
                                    "oracle_instr": str(record.instr)})

    def _on_squash(self, uop: Uop) -> None:
        self.squashes_checked += 1
        cycle = self.sim.cycle
        tid = uop.tid
        if uop.state != S_SQUASHED:
            self._fail("squash-state",
                       f"squash listener saw state "
                       f"{STATE_NAMES.get(uop.state, uop.state)}",
                       cycle, tid, uop)
        if not uop.wrong_path:
            self._fail("squash-correct-path",
                       "correct-path instruction squashed", cycle, tid, uop)
        if uop.seq <= self._last_committed_seq[tid]:
            self._fail("commit-then-squash",
                       "already-committed instruction squashed",
                       cycle, tid, uop,
                       details={"seq": uop.seq,
                                "last_committed":
                                    self._last_committed_seq[tid]})
        squashed = self._squashed_seqs[tid]
        if uop.seq in squashed:
            self._fail("double-squash",
                       "instruction squashed twice", cycle, tid, uop)
        squashed.add(uop.seq)

    # ------------------------------------------------------------------
    # The per-cycle hook (called from ``Simulator.step``).
    # ------------------------------------------------------------------
    def check_cycle(self, cycle: int) -> None:
        self._ensure_oracles()
        self._check_fetch_partition(cycle)
        if cycle % self.check_interval == 0:
            self._check_buffers(cycle)
            self._check_queues(cycle)
            self._check_thread_counters(cycle)
            self._check_registers(cycle)
            self.cycles_checked += 1

    # ------------------------------------------------------------------
    def _check_fetch_partition(self, cycle: int) -> None:
        sim = self.sim
        cfg = sim.cfg
        prev = self._prev_next_seq
        fetched = [t.next_seq - prev[i] for i, t in enumerate(sim.threads)]
        self._prev_next_seq = [t.next_seq for t in sim.threads]
        total = sum(fetched)
        if total == 0:
            return
        if total > cfg.fetch_width:
            self._fail("fetch-width",
                       f"{total} instructions fetched in one cycle",
                       cycle, details={"fetched": fetched,
                                       "fetch_width": cfg.fetch_width})
        threads_fetching = 0
        for tid, count in enumerate(fetched):
            if count == 0:
                continue
            threads_fetching += 1
            if count > cfg.fetch_per_thread:
                self._fail("fetch-per-thread",
                           f"thread fetched {count} instructions "
                           f"(num2={cfg.fetch_per_thread})", cycle, tid,
                           details={"fetched": fetched})
        if threads_fetching > cfg.fetch_threads:
            self._fail("fetch-threads",
                       f"{threads_fetching} threads fetched "
                       f"(num1={cfg.fetch_threads})", cycle,
                       details={"fetched": fetched})
        # Fetch blocks must not interleave: this cycle's additions to
        # the fetch buffer form one contiguous run per selected thread.
        run_tids: List[int] = []
        for uop in sim.fetch_buffer:
            if uop.fetch_c != cycle:
                continue
            if not run_tids or run_tids[-1] != uop.tid:
                run_tids.append(uop.tid)
        if len(run_tids) != len(set(run_tids)):
            self._fail("fetch-block-interleave",
                       "fetch blocks from one thread interleaved with "
                       "another's", cycle, details={"runs": run_tids})

    # ------------------------------------------------------------------
    def _check_buffers(self, cycle: int) -> None:
        sim = self.sim
        cfg = sim.cfg
        if len(sim.fetch_buffer) > cfg.fetch_width:
            self._fail("fetch-buffer-bound",
                       f"fetch buffer holds {len(sim.fetch_buffer)} "
                       f"(width {cfg.fetch_width})", cycle)
        if len(sim.decode_buffer) > cfg.decode_width:
            self._fail("decode-buffer-bound",
                       f"decode buffer holds {len(sim.decode_buffer)} "
                       f"(width {cfg.decode_width})", cycle)

    # ------------------------------------------------------------------
    def _check_queues(self, cycle: int) -> None:
        sim = self.sim
        capacity = sim.cfg.iq_capacity
        rob_ids = {
            id(u) for thread in sim.threads for u in thread.rob
        }
        seen: Set[int] = set()
        for queue in (sim.int_queue, sim.fp_queue):
            entries = queue.entries
            if len(entries) > capacity:
                self._fail("iq-overflow",
                           f"{queue.name} queue holds {len(entries)} "
                           f"entries (capacity {capacity})", cycle,
                           details={"queue": queue.name,
                                    "occupancy": len(entries),
                                    "capacity": capacity})
            is_fp_queue = queue is sim.fp_queue
            for uop in entries:
                if uop.is_fp_op != is_fp_queue:
                    self._fail("iq-wrong-queue",
                               f"{'fp' if uop.is_fp_op else 'int'} uop in "
                               f"the {queue.name} queue", cycle, uop.tid, uop)
                if uop.state not in _IQ_STATES:
                    self._fail("iq-entry-state",
                               f"queue entry in state "
                               f"{STATE_NAMES.get(uop.state, uop.state)}",
                               cycle, uop.tid, uop)
                if id(uop) in seen:
                    self._fail("iq-duplicate-entry",
                               "uop occupies two queue slots",
                               cycle, uop.tid, uop)
                seen.add(id(uop))
                if id(uop) not in rob_ids:
                    self._fail("iq-orphan-entry",
                               "queue entry absent from its thread's ROB",
                               cycle, uop.tid, uop)

    # ------------------------------------------------------------------
    def _check_thread_counters(self, cycle: int) -> None:
        for thread in self.sim.threads:
            unissued = 0
            unresolved = 0
            for uop in thread.rob:
                if uop.state < S_ISSUED:
                    unissued += 1
                if uop.is_control and uop.state != S_DONE:
                    unresolved += 1
            if unissued != thread.unissued_count:
                self._fail("icount-accounting",
                           f"ICOUNT says {thread.unissued_count}, ROB "
                           f"holds {unissued} pre-issue instructions",
                           cycle, thread.tid,
                           details={"icount": thread.unissued_count,
                                    "pre_issue_in_rob": unissued})
            if unresolved != thread.unresolved_branches:
                self._fail("brcount-accounting",
                           f"BRCOUNT says {thread.unresolved_branches}, "
                           f"ROB holds {unresolved} unresolved branches",
                           cycle, thread.tid,
                           details={"brcount": thread.unresolved_branches,
                                    "unresolved_in_rob": unresolved})

    # ------------------------------------------------------------------
    def _check_registers(self, cycle: int) -> None:
        sim = self.sim
        renamer = sim.renamer
        expected = sim.cfg.physical_registers
        for is_fp, rf in ((False, renamer.int_file), (True, renamer.fp_file)):
            name = "fp" if is_fp else "int"
            if rf.physical != expected:
                self._fail("register-file-size",
                           f"{name} file sized {rf.physical} "
                           f"(config says {expected})", cycle)
            counts = [0] * rf.physical
            for preg in rf.free_list:
                counts[preg] += 1
            for thread_map in rf.maps:
                for preg in thread_map:
                    counts[preg] += 1
            for thread in sim.threads:
                for uop in thread.rob:
                    if uop.dest_preg is not None and uop.dest_is_fp == is_fp:
                        counts[uop.old_preg] += 1
            bad = [p for p, c in enumerate(counts) if c != 1]
            if bad:
                leaked = [p for p in bad if counts[p] == 0]
                dup = [p for p in bad if counts[p] > 1]
                self._fail("register-conservation",
                           f"{name} physical registers not conserved",
                           cycle,
                           details={"leaked": leaked[:8],
                                    "oversubscribed": dup[:8],
                                    "free": len(rf.free_list)})

    # ------------------------------------------------------------------
    def _fail(
        self,
        invariant: str,
        message: str,
        cycle: int,
        tid: Optional[int] = None,
        uop: Optional[Uop] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        raise InvariantViolation(
            invariant, message, cycle, tid=tid,
            uop=repr(uop) if uop is not None else None, details=details,
        )
