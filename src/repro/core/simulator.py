"""Top-level cycle-driven simulator.

Phases run in reverse pipeline order each cycle so a value never flows
through two stages in one cycle:

1. apply pending mispredict squashes (effective one cycle after the
   branch resolved at exec),
2. commit (per-thread, in order),
3. execute (branch resolution, D-cache access, optimistic squash),
4. issue (policy selection, wakeup),
5. rename + dispatch into the instruction queues,
6. decode,
7. fetch (partitioning + thread choice),
8. statistics sampling.

The conventional-superscalar baseline is the same machine with
``smt_pipeline=False`` (one register-read stage, 6-cycle mispredict
penalty) and one thread.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import SMTConfig
from repro.core.execute import ExecuteUnit
from repro.core.fetch import FetchUnit
from repro.core.issue import IssueUnit
from repro.core.queues import InstructionQueue
from repro.core.rename import NEVER, Renamer
from repro.core.retire import RetireUnit
from repro.core.stats import Stats
from repro.core.thread import _PAGE_MASK, _PAGE_SHIFT, ThreadContext
from repro.core.uop import (
    S_DECODED,
    S_DONE,
    S_FETCHED,
    S_ISSUED,
    S_QUEUED,
    S_SQUASHED,
    Uop,
)
from repro.branch.predictor import BranchPredictor
from repro.isa.program import TEXT_BASE, Program
from repro.memory.hierarchy import MemoryHierarchy


@dataclass
class CacheStats:
    accesses: int
    misses: int
    miss_rate: float
    mpki: float


class SimulationAborted(RuntimeError):
    """Raised by an abort hook to stop a run before it completes.

    Picklable, so it propagates cleanly out of pool and supervisor
    workers (campaign workers and the fuzz supervisor convert it into a
    ``timeout`` failure record rather than losing the whole campaign).
    """

    def __init__(self, reason: str, cycle: int = 0):
        super().__init__(reason)
        self.reason = reason
        self.cycle = cycle

    def __reduce__(self):
        return (SimulationAborted, (self.reason, self.cycle))


class Watchdog:
    """Wall-clock and cycle-budget guard, installable as a simulator's
    abort hook.

    The hook is polled every :data:`ABORT_CHECK_INTERVAL` cycles from
    :meth:`Simulator.step` (and once per interleave round during
    functional warmup), so a pathological configuration aborts with a
    structured :class:`SimulationAborted` instead of hanging a campaign.
    Either guard may be ``None`` (disabled).
    """

    __slots__ = ("deadline", "wall_seconds", "max_cycles")

    def __init__(self, wall_seconds: Optional[float] = None,
                 max_cycles: Optional[int] = None):
        self.wall_seconds = wall_seconds
        self.deadline = (
            time.monotonic() + wall_seconds if wall_seconds else None
        )
        self.max_cycles = max_cycles

    def attach(self, sim: "Simulator") -> None:
        sim.abort_hook = self

    def __call__(self, sim: "Simulator") -> None:
        if self.max_cycles is not None and sim.cycle >= self.max_cycles:
            raise SimulationAborted(
                f"cycle budget exceeded ({sim.cycle} >= "
                f"{self.max_cycles} cycles)", sim.cycle,
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SimulationAborted(
                f"wall-clock timeout after {self.wall_seconds}s "
                f"(cycle {sim.cycle})", sim.cycle,
            )


#: How often (in cycles) ``Simulator.step`` polls the abort hook.
ABORT_CHECK_INTERVAL = 256


def _run_reference(sim: "Simulator", n: int) -> None:
    """``n`` cycles of the reference loop, :meth:`Simulator.step`."""
    step = sim.step
    for _ in range(n):
        step()


class ListenerChain:
    """Fan-out dispatcher for commit/squash listeners.

    Several observers (tracer, telemetry, metrics, sanitizer) may need
    the same event stream; a chain calls each registered listener in
    attach order.  Managed through ``Simulator.add_commit_listener`` /
    ``remove_commit_listener`` (and the squash equivalents), which keep
    the single-listener fast path — a bare callable — until a second
    observer actually attaches.
    """

    __slots__ = ("listeners",)

    def __init__(self, listeners):
        self.listeners = list(listeners)

    def __call__(self, uop) -> None:
        for listener in self.listeners:
            listener(uop)


def _chain_add(current, listener):
    """Compose ``listener`` onto ``current`` (None, callable, or chain)."""
    if current is None:
        return listener
    if isinstance(current, ListenerChain):
        current.listeners.append(listener)
        return current
    return ListenerChain([current, listener])


def _chain_remove(current, listener):
    """Detach ``listener``, collapsing one-element chains back to the
    bare callable (so round trips preserve listener identity).

    Matches by equality, not identity: observers register bound methods,
    and each ``obj.method`` access creates a fresh (but ``==``) object.
    """
    if current is listener or current == listener:
        return None
    if isinstance(current, ListenerChain):
        try:
            current.listeners.remove(listener)
        except ValueError:
            return current
        if len(current.listeners) == 1:
            return current.listeners[0]
        if not current.listeners:
            return None
    return current


def _drop_squashed(container) -> None:
    """Filter squashed uops out of a list or deque, in place."""
    survivors = [u for u in container if u.state != S_SQUASHED]
    container.clear()
    container.extend(survivors)


@dataclass
class SimResult:
    """Everything a run produces, in the units the paper reports."""

    config_name: str
    n_threads: int
    cycles: int
    committed: int
    ipc: float
    useful_fetch_per_cycle: float
    fetch_per_cycle: float
    wrong_path_fetched_frac: float
    wrong_path_issued_frac: float
    squashed_optimistic_frac: float
    int_iq_full_frac: float
    fp_iq_full_frac: float
    avg_queue_population: float
    out_of_registers_frac: float
    branch_mispredict_rate: float
    jump_mispredict_rate: float
    fetch_active_frac: float = 0.0     # cycles with >= 1 instruction fetched
    icache_miss_stall_events: int = 0  # fetch stalls started on I-cache misses
    icache: Optional[CacheStats] = None
    dcache: Optional[CacheStats] = None
    l2: Optional[CacheStats] = None
    l3: Optional[CacheStats] = None
    committed_per_thread: Dict[int, int] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.config_name}: T={self.n_threads} IPC={self.ipc:.2f} "
            f"fetch/cyc={self.useful_fetch_per_cycle:.2f} "
            f"wpf={self.wrong_path_fetched_frac:.1%} "
            f"iqfull(int/fp)={self.int_iq_full_frac:.0%}/{self.fp_iq_full_frac:.0%}"
        )


class Simulator:
    """One machine configuration running one multiprogrammed workload."""

    def __init__(self, config: SMTConfig, programs: List[Program]):
        if len(programs) != config.n_threads:
            raise ValueError(
                f"config has {config.n_threads} contexts but "
                f"{len(programs)} programs were supplied"
            )
        self.cfg = config
        self.threads = [
            ThreadContext(tid, prog) for tid, prog in enumerate(programs)
        ]
        self.predictor = BranchPredictor(
            config.n_threads,
            btb_entries=config.btb_entries,
            btb_assoc=config.btb_assoc,
            pht_entries=config.pht_entries,
            history_bits=config.history_bits,
            ras_depth=config.ras_depth,
            tag_thread=config.btb_thread_tags,
            shared_history=config.shared_history,
            perfect=config.perfect_branch_prediction,
        )
        self.hierarchy = MemoryHierarchy(
            infinite_bandwidth=config.infinite_memory_bandwidth
        )
        self.renamer = Renamer(config.n_threads, config.physical_registers)
        self.int_queue = InstructionQueue(
            "int", config.iq_capacity, config.iq_size
        )
        self.fp_queue = InstructionQueue(
            "fp", config.iq_capacity, config.iq_size
        )
        # Deques: decode and rename consume from the front every cycle,
        # and list.pop(0) is O(n) per uop.
        self.fetch_buffer: Deque[Uop] = deque()
        self.decode_buffer: Deque[Uop] = deque()
        self.pending_exec: Dict[int, List[Uop]] = {}
        self.pending_squashes: List[Tuple[Uop, int]] = []
        self.pending_stores: List[List[Uop]] = [[] for _ in range(config.n_threads)]
        self.pending_branches: List[List[Uop]] = [[] for _ in range(config.n_threads)]
        #: Optional hook called with every committing uop (tracing,
        #: verification against the architectural stream).  Prefer
        #: :meth:`add_commit_listener` so observers compose.
        self.commit_listener = None
        #: Optional hook called with every squashed uop (tracing).
        self.squash_listener = None
        #: Optional attached TelemetrySampler (interval time series).
        self.telemetry = None
        #: Optional attached PipelineSanitizer (per-cycle invariants).
        self.sanitizer = None
        #: Optional abort hook (e.g. a :class:`Watchdog`), polled every
        #: ABORT_CHECK_INTERVAL cycles with the simulator; raises
        #: :class:`SimulationAborted` to stop a runaway run.
        self.abort_hook = None
        #: When False, :meth:`run_cycles` always uses the reference
        #: :meth:`step` loop (the equivalence tests' oracle).
        self.use_fast_step = True
        self.stats = Stats()
        self.cycle = 0
        self.measuring = False
        # Units last: an adaptive fetch policy binds commit/squash
        # listeners at construction, so the observer slots and clock
        # above must already exist.  Each unit refers back to the
        # simulator weakly, so a finished simulator is freed by
        # reference counting rather than by a full cyclic collection
        # (docs/performance.md, "Memory layout and the garbage
        # collector").
        self.fetch_unit = FetchUnit(self)
        self.issue_unit = IssueUnit(self)
        self.execute_unit = ExecuteUnit(self)
        self.retire_unit = RetireUnit(self)

    # ------------------------------------------------------------------
    @property
    def policy_engine(self):
        """The fetch unit's :class:`~repro.policy.base.FetchPolicy`
        object (static ranker or stateful meta-policy)."""
        return self.fetch_unit.policy

    # ==================================================================
    # Observer registration.  Several observers can watch the same run:
    # listeners registered here are chained (fan-out in attach order)
    # instead of overwriting each other.  Direct assignment to
    # ``commit_listener`` / ``squash_listener`` still works and replaces
    # the whole chain (single-observer code and tests rely on it).
    # ==================================================================
    def add_commit_listener(self, listener) -> None:
        self.commit_listener = _chain_add(self.commit_listener, listener)

    def remove_commit_listener(self, listener) -> None:
        self.commit_listener = _chain_remove(self.commit_listener, listener)

    def add_squash_listener(self, listener) -> None:
        self.squash_listener = _chain_add(self.squash_listener, listener)

    def remove_squash_listener(self, listener) -> None:
        self.squash_listener = _chain_remove(self.squash_listener, listener)

    # ==================================================================
    # Scheduling helpers used by the pipeline units.
    # ==================================================================
    def schedule_exec(self, uop: Uop) -> None:
        self.pending_exec.setdefault(uop.exec_c, []).append(uop)

    def in_flight_issued(self, cycle: int) -> List[Uop]:
        """Uops issued but not yet at their execute stage.

        The scan is bounded to the issue-to-execute window (a uop issued
        at ``t`` executes at ``t + exec_offset``), so only that many
        event lists are ever touched.
        """
        out: List[Uop] = []
        pending_get = self.pending_exec.get
        for c in range(cycle, cycle + self.cfg.exec_offset + 1):
            uops = pending_get(c)
            if not uops:
                continue
            for uop in uops:
                if uop.state == S_ISSUED and uop.exec_c == c:
                    out.append(uop)
        return out

    def schedule_mispredict_squash(self, uop: Uop, effective_cycle: int) -> None:
        self.pending_squashes.append((uop, effective_cycle))

    def prune_pending_branch(self, uop: Uop) -> None:
        branches = self.pending_branches[uop.tid]
        if uop in branches:
            branches.remove(uop)

    # ==================================================================
    # Squash.
    # ==================================================================
    def _apply_squashes(self, cycle: int) -> None:
        if not self.pending_squashes:
            return
        remaining = []
        for branch, effective in self.pending_squashes:
            if effective <= cycle:
                self._squash_after(branch, cycle)
            else:
                remaining.append((branch, effective))
        # In place: the fast-step loop holds a binding to this list.
        self.pending_squashes[:] = remaining

    def _squash_after(self, branch: Uop, cycle: int) -> None:
        """Squash everything younger than ``branch`` in its thread and
        redirect fetch to the branch's actual target.

        The ROB unwinds youngest first.  Per uop: the thread's counters,
        then, if it was renamed, wakeup retraction and rename rollback
        (so mappings unwind correctly).  Each container that held a
        squashed uop is then filtered once, *in place*, so that
        long-lived bindings (the fast-step loop's locals) stay valid.
        """
        thread = self.threads[branch.tid]
        # Repair speculative predictor state (history register, return
        # stack) now that the last wrong-path fetch has happened.
        self.predictor.recover(
            branch.tid, branch.pc, branch.instr, branch.prediction,
            bool(branch.actual_taken),
        )
        rob = thread.rob
        seq = branch.seq
        int_file = self.renamer.int_file
        fp_file = self.renamer.fp_file
        listener = self.squash_listener
        in_fetch = in_decode = in_int = in_fp = False
        while rob and rob[-1].seq > seq:
            uop = rob.pop()
            state = uop.state
            if state == S_FETCHED:
                in_fetch = True
            elif state == S_DECODED:
                in_decode = True
            if state <= S_QUEUED:
                thread.unissued_count -= 1
            if uop.is_control and state != S_DONE:
                thread.unresolved_branches -= 1
            if S_QUEUED <= state <= S_DONE:
                if uop.is_fp_op:
                    in_fp = True
                else:
                    in_int = True
                preg = uop.dest_preg
                if preg is not None:
                    rf = fp_file if uop.dest_is_fp else int_file
                    rf.ready[preg] = NEVER
                    rf.maps[uop.tid][uop.instr.rd] = uop.old_preg
                    rf.producer[preg] = None
                    rf.free_list.append(preg)
                    uop.dest_preg = None
            uop.state = S_SQUASHED
            if listener is not None:
                listener(uop)
        if in_fetch:
            _drop_squashed(self.fetch_buffer)
        if in_decode:
            _drop_squashed(self.decode_buffer)
        if in_int:
            _drop_squashed(self.int_queue.entries)
        if in_fp:
            _drop_squashed(self.fp_queue.entries)
        if in_int or in_fp:
            # Only renamed uops enter these lists.
            _drop_squashed(self.pending_stores[branch.tid])
            _drop_squashed(self.pending_branches[branch.tid])
        thread.on_correct_path = True
        thread.fetch_pc = branch.actual_target
        thread.fetch_blocked_until = cycle + (1 if self.cfg.itag else 0)
        thread.pending_ifill_line = None  # any delivered block is moot now

    # ==================================================================
    # Rename / dispatch and decode phases.
    # ==================================================================
    def _rename_cycle(self, cycle: int) -> None:
        buffer = self.decode_buffer
        rename_width = self.cfg.rename_width
        rename = self.renamer.rename
        renamed = 0
        blocked_int = blocked_fp = blocked_regs = False
        while buffer and renamed < rename_width:
            uop = buffer[0]
            if uop.state == S_SQUASHED:
                buffer.popleft()
                continue
            if uop.decode_c >= cycle:
                break
            queue = self.fp_queue if uop.is_fp_op else self.int_queue
            if queue.full:
                if uop.is_fp_op:
                    blocked_fp = True
                else:
                    blocked_int = True
                break
            if not rename(uop):
                blocked_regs = True
                break
            buffer.popleft()
            uop.dispatch_c = cycle
            uop.state = S_QUEUED
            queue.add(uop)
            if uop.is_store:
                self.pending_stores[uop.tid].append(uop)
            if uop.is_control:
                self.pending_branches[uop.tid].append(uop)
            renamed += 1
        if self.measuring:
            if blocked_int:
                self.stats.int_iq_full_cycles += 1
            if blocked_fp:
                self.stats.fp_iq_full_cycles += 1
            if blocked_regs:
                self.stats.out_of_registers_cycles += 1

    def _decode_cycle(self, cycle: int) -> None:
        buffer = self.fetch_buffer
        decode_buffer = self.decode_buffer
        decode_width = self.cfg.decode_width
        decoded = 0
        while buffer and decoded < decode_width:
            uop = buffer[0]
            if uop.state == S_SQUASHED:
                buffer.popleft()
                continue
            if uop.fetch_c >= cycle:
                break
            if len(decode_buffer) >= decode_width:
                break
            buffer.popleft()
            uop.decode_c = cycle
            uop.state = S_DECODED
            decode_buffer.append(uop)
            decoded += 1

    # ==================================================================
    # The cycle loop.
    # ==================================================================
    def step(self) -> None:
        cycle = self.cycle
        int_queue = self.int_queue
        fp_queue = self.fp_queue
        self._apply_squashes(cycle)
        self.retire_unit.commit_cycle(cycle)
        self.execute_unit.execute_cycle(cycle)
        int_queue.release_freed()
        fp_queue.release_freed()
        self.issue_unit.issue_cycle(cycle)
        self._rename_cycle(cycle)
        self._decode_cycle(cycle)
        self.fetch_unit.fetch_cycle(cycle)
        if self.measuring:
            stats = self.stats
            stats.cycles += 1
            stats.queue_population_sum += (
                len(int_queue.entries) + len(fp_queue.entries)
            )
        if cycle & 1023 == 0 and self.pending_exec:
            self._gc_pending_exec()
        abort_hook = self.abort_hook
        if abort_hook is not None and cycle & (ABORT_CHECK_INTERVAL - 1) == 0:
            abort_hook(self)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.check_cycle(cycle)
        self.cycle += 1

    # ------------------------------------------------------------------
    def run_cycles(self, n: int) -> None:
        """Advance the machine by ``n`` cycles.

        Dispatches to the specialized fast-step loop
        (:mod:`repro.core.faststep`) unless the sanitizer is attached:
        it inspects intermediate state every cycle, so its presence
        selects the reference :meth:`step` loop.  Commit/squash
        listeners, abort hooks, and adaptive fetch policies are all
        dispatched faithfully inside the fast loop.  An attached
        :class:`~repro.core.telemetry.TelemetrySampler` splits the call
        into chunks that end at its interval edges and samples there,
        on either loop.  The two paths are bit-identical (enforced by
        ``tests/core/test_faststep_equivalence.py``).
        """
        if n <= 0:
            return
        if self.use_fast_step and self.sanitizer is None:
            from repro.core.faststep import run_cycles_fast as loop
        else:
            loop = _run_reference
        end = self.cycle + n
        while self.cycle < end:
            telemetry = self.telemetry
            if telemetry is None:
                loop(self, end - self.cycle)
                return
            # The interval closes with cycle ``next_sample_cycle``.
            edge = max(telemetry.next_sample_cycle, self.cycle)
            loop(self, min(end, edge + 1) - self.cycle)
            if self.cycle > edge:
                telemetry.sample(edge)

    # ------------------------------------------------------------------
    def functional_warmup(self, instructions_per_thread: int = 60000,
                          chunk: int = 500) -> None:
        """Timing-free warmup: walk each thread's correct path forward,
        training caches, TLBs, and the branch predictor in program order.

        The paper measures 300M-instruction runs where caches and
        predictors are at steady state; cycle-accurate simulation in
        Python cannot affordably reach that point, so (as is standard in
        architecture simulators) tag/predictor state is warmed
        functionally and the timed simulation continues from the warmed
        architectural state.  Threads are interleaved in chunks so the
        shared caches see a mixed access stream.
        """
        if self.cycle != 0:
            raise RuntimeError("functional warmup must precede timed simulation")
        # Steady-state L3 contents: after hundreds of millions of
        # instructions every thread's text and data image has long been
        # resident in the 2MB L3; preload it so first-touches in the
        # measured window pay an L3 hit, not a memory round trip.
        for thread in self.threads:
            program = thread.program
            for pc in range(program.text_start, program.text_end, 64):
                self.hierarchy.l3.warm_touch(thread.phys_addr(pc))
            data_start = 0x0100_0000  # DATA_BASE
            for addr in range(data_start, data_start + program.data.size, 64):
                self.hierarchy.l3.warm_touch(thread.phys_addr(addr))
        # One flat loop, in the access order of the hierarchy's
        # ``warm_access`` (I-side TLB and L1, then on an L1 miss L2 and
        # L3; then the same on the D-side; then the predictor).  A touch
        # that repeats the thread's previous I-side (or D-side) line
        # within its chunk is skipped: nothing else touched that side's
        # TLB or L1 since, so the line is still most recent in its L1
        # set and its page most recent in the TLB, and the touch would
        # change only the hit counters, which are reset below.
        #
        # The loop walks the correct-path stream event to event.  The
        # ``plain[i]`` instructions from text index ``i`` on are neither
        # memory nor control ops, so they fall through and touch only
        # the I-side: the walk touches each I-line such a stretch (and
        # the event that ends it) crosses, at its first PC, then the
        # event's D-side or predictor.  That is the per-instruction
        # order with the skipped touches left out.
        hierarchy = self.hierarchy
        icache, itlb = hierarchy.icache, hierarchy.itlb
        dcache, dtlb = hierarchy.dcache, hierarchy.dtlb
        i_shift, d_shift = icache._line_shift, dcache._line_shift
        i_sets, d_sets = icache.n_sets, dcache.n_sets
        # A direct-mapped L1's tag store is touched inline; any other
        # goes through ``warm_touch``.
        i_tags = icache._tags if icache._assoc == 1 else None
        d_tags = dcache._tags if dcache._assoc == 1 else None
        i_map, d_map = itlb._map, dtlb._map
        l2_touch = hierarchy.l2.warm_touch
        l3_touch = hierarchy.l3.warm_touch
        predictor_warm = self.predictor.warm
        page_shift = _PAGE_SHIFT
        page_mask = _PAGE_MASK
        remaining = [instructions_per_thread] * len(self.threads)
        while any(remaining):
            abort_hook = self.abort_hook
            if abort_hook is not None:
                abort_hook(self)
            for thread in self.threads:
                tid = thread.tid
                budget = min(chunk, remaining[tid])
                remaining[tid] -= budget
                cursor = thread.cursor
                stream = cursor.stream
                pos = cursor.pos
                pc = cursor.pc
                mem = cursor.mem
                ctl = cursor.ctl
                want = pos + budget
                stop = stream.extend(want)
                if stop > want:
                    stop = want
                plain = stream.plain_runs()
                instructions = stream.instructions
                addrs = stream.addrs
                targets = stream.targets
                data_addr = thread.last_data_addr
                frames = thread._frames
                asid = thread.asid_offset
                i_last = d_last = -1
                while pos < stop:
                    idx = (pc - TEXT_BASE) >> 2
                    # The stretch: plain instructions, then its event
                    # (none if the budget or the stream ends first).
                    n = plain[idx] + 1
                    if n > stop - pos:
                        n = stop - pos
                        instr = None
                    else:
                        instr = instructions[idx + n - 1]
                    last = pc + 4 * n - 4
                    line_v = pc >> i_shift
                    end_v = last >> i_shift
                    addr = pc
                    while True:
                        if line_v != i_last:
                            i_last = line_v
                            frame = frames.get(addr >> page_shift)
                            phys = (thread.phys_addr(addr) if frame is None
                                    else asid + (frame << page_shift)
                                    + (addr & page_mask))
                            key = (tid, phys >> itlb.page_shift)
                            if key in i_map:
                                i_map.move_to_end(key)
                            else:
                                if len(i_map) >= itlb.entries:
                                    i_map.popitem(last=False)
                                i_map[key] = True
                            line = phys >> i_shift
                            if i_tags is None:
                                hit = icache.warm_touch(phys)
                            else:
                                hit = i_tags[line % i_sets] == line
                                if not hit:
                                    i_tags[line % i_sets] = line
                            if not hit and not l2_touch(phys):
                                l3_touch(phys)
                        if line_v == end_v:
                            break
                        line_v += 1
                        addr = line_v << i_shift
                    pos += n
                    if instr is None:
                        pc = last + 4
                    elif instr.is_mem:
                        pc = last + 4
                        ea = data_addr = addrs[mem]
                        mem += 1
                        if ea >> d_shift != d_last:
                            d_last = ea >> d_shift
                            frame = frames.get(ea >> page_shift)
                            phys = (thread.phys_addr(ea) if frame is None else
                                    asid + (frame << page_shift)
                                    + (ea & page_mask))
                            key = (tid, phys >> dtlb.page_shift)
                            if key in d_map:
                                d_map.move_to_end(key)
                            else:
                                if len(d_map) >= dtlb.entries:
                                    d_map.popitem(last=False)
                                d_map[key] = True
                            line = phys >> d_shift
                            if d_tags is None:
                                hit = dcache.warm_touch(phys)
                            else:
                                hit = d_tags[line % d_sets] == line
                                if not hit:
                                    d_tags[line % d_sets] = line
                            if not hit and not l2_touch(phys):
                                l3_touch(phys)
                    else:
                        word = targets[ctl]
                        ctl += 1
                        taken = word & 1 == 1
                        pc = word ^ taken
                        predictor_warm(tid, last, instr, taken, pc)
                cursor.pos = pos
                cursor.pc = pc
                cursor.mem = mem
                cursor.ctl = ctl
                thread.last_data_addr = data_addr
                if stop < want:
                    stream.fail()
                thread.fetch_pc = pc
        self.hierarchy.reset_stats()

    # ------------------------------------------------------------------
    def run(
        self,
        warmup_cycles: int = 3000,
        measure_cycles: int = 20000,
        functional_warmup_instructions: int = 60000,
    ) -> SimResult:
        """Warm up (functionally, then a short timed ramp), then measure."""
        if functional_warmup_instructions and self.cycle == 0:
            self.functional_warmup(functional_warmup_instructions)
        self.measuring = False
        self.run_cycles(warmup_cycles)
        self.measuring = True
        self.stats = Stats()
        self.hierarchy.reset_stats()
        self.run_cycles(measure_cycles)
        self.measuring = False
        return self.result()

    # ------------------------------------------------------------------
    def result(self) -> SimResult:
        s = self.stats

        def cache_stats(cache) -> CacheStats:
            return CacheStats(
                accesses=cache.accesses,
                misses=cache.misses,
                miss_rate=cache.miss_rate,
                mpki=s.mpki(cache.misses),
            )

        return SimResult(
            config_name=self.cfg.scheme_name,
            n_threads=self.cfg.n_threads,
            cycles=s.cycles,
            committed=s.committed,
            ipc=s.ipc,
            useful_fetch_per_cycle=s.useful_fetch_per_cycle,
            fetch_per_cycle=s.fetch_per_cycle,
            wrong_path_fetched_frac=s.wrong_path_fetched_frac,
            wrong_path_issued_frac=s.wrong_path_issued_frac,
            squashed_optimistic_frac=s.squashed_optimistic_frac,
            int_iq_full_frac=s.int_iq_full_frac,
            fp_iq_full_frac=s.fp_iq_full_frac,
            avg_queue_population=s.avg_queue_population,
            out_of_registers_frac=s.out_of_registers_frac,
            branch_mispredict_rate=s.branch_mispredict_rate,
            jump_mispredict_rate=s.jump_mispredict_rate,
            fetch_active_frac=s.fetch_active_frac,
            icache_miss_stall_events=s.icache_miss_stall_events,
            icache=cache_stats(self.hierarchy.icache),
            dcache=cache_stats(self.hierarchy.dcache),
            l2=cache_stats(self.hierarchy.l2),
            l3=cache_stats(self.hierarchy.l3),
            committed_per_thread=dict(s.committed_per_thread),
        )

    # ------------------------------------------------------------------
    def _gc_pending_exec(self) -> None:
        """Drop exec-event lists strictly in the past (bounded memory)."""
        stale = [c for c in self.pending_exec if c < self.cycle]
        for c in stale:
            del self.pending_exec[c]
