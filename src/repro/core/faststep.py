"""Specialized fast-step cycle loop.

:func:`run_cycles_fast` advances a :class:`~repro.core.simulator.Simulator`
by ``n`` cycles, producing **bit-identical** results to ``n`` calls of the
reference :meth:`Simulator.step` (enforced by
``tests/core/test_faststep_equivalence.py``).  It is a *transcription* of
the reference phases — same data structures, same event order, same
arithmetic — with the per-cycle interpretation overhead removed:

* every pipeline constant (widths, unit counts, queue capacities) and
  every hot container (buffers, queue entry lists, register-file arrays)
  is bound to a local once, outside the loop;
* the commit, execute-completion, issue, rename, and decode phases are
  inlined, eliminating several function calls *per instruction*, and so
  is a load's or store's D-cache access up to an on-time hit;
* a correct-path fetch block reads its program's correct-path stream
  (:mod:`repro.isa.stream`) through its cursor's fields held in
  locals, and calls into the stream only to extend it;
* the issue walk collects only uops that can issue this cycle (see the
  readiness prefilter at the walk), so the uops clogging a queue never
  reach the priority sort;
* the per-cycle path builds no list comprehension or generator (each is
  a frame of its own on CPython);
* ``measuring`` statistics accumulate in local integers and flush to the
  ``Stats`` object once, in a ``finally`` block (so aborts flush too).

Rare or stateful paths — mispredict squash application, a load that
misses or is turned away, branch resolution, I-tag filtering,
fetch-policy ordering, branch prediction — delegate to the reference
implementations, and both loops call the hierarchy's one L1 access
(``MemoryHierarchy._l1_access``).  That keeps this module honest: it
specializes control flow, it does not fork semantics.

Because the loop holds direct references to the mutable containers, the
reference code paths it delegates to must mutate those containers **in
place** (``deque.clear``/``extend``, slice assignment) rather than
rebinding attributes; see ``Simulator._squash_after``,
``Simulator._apply_squashes``, and ``InstructionQueue.release_freed``.

Eligibility is decided by :meth:`Simulator.run_cycles`: the sanitizer
needs a cycle-granular hook the fast loop does not emit, so its presence
selects the reference loop.  Commit/squash listeners, abort hooks
(watchdogs), and adaptive fetch policies all work here, and telemetry
samples between calls that end at its interval edges.
"""

from __future__ import annotations

from itertools import filterfalse
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.core.thread import BLOCKED, _PAGE_MASK, _PAGE_SHIFT
from repro.core.uop import Uop
from repro.isa.program import TEXT_BASE
from repro.policy.static import Brcount, Icount, IcountBrcount, RoundRobin

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator

#: Readiness sentinel, mirrored from repro.core.rename.NEVER.
_NEVER = 1 << 60


def run_cycles_fast(sim: "Simulator", n: int) -> None:
    """Advance ``sim`` by ``n`` cycles on the specialized loop."""
    # ------------------------------------------------------------------
    # Per-config constants.
    # ------------------------------------------------------------------
    cfg = sim.cfg
    n_threads = cfg.n_threads
    fetch_width = cfg.fetch_width
    fetch_threads = cfg.fetch_threads
    fetch_per_thread = cfg.fetch_per_thread
    decode_width = cfg.decode_width
    rename_width = cfg.rename_width
    commit_width = cfg.commit_width
    iq_capacity = cfg.iq_capacity
    search_window = cfg.iq_size
    int_units = cfg.int_units
    ls_units = cfg.ls_units
    fp_units = cfg.fp_units
    infinite_fus = cfg.infinite_fus
    exec_offset = cfg.exec_offset
    itag = cfg.itag
    misfetch_penalty = cfg.misfetch_penalty
    optimistic_issue = cfg.optimistic_issue
    spec_full = cfg.speculation == "full"
    dis_mask = (1 << cfg.disambiguation_bits) - 1
    measuring = sim.measuring

    # ------------------------------------------------------------------
    # Hot containers and delegated callables (identity-stable).
    # ------------------------------------------------------------------
    threads = sim.threads
    fetch_buffer = sim.fetch_buffer
    decode_buffer = sim.decode_buffer
    fetch_pop = fetch_buffer.popleft
    fetch_append = fetch_buffer.append
    decode_pop = decode_buffer.popleft
    decode_append = decode_buffer.append
    int_queue = sim.int_queue
    fp_queue = sim.fp_queue
    int_entries = int_queue.entries
    fp_entries = fp_queue.entries
    queue_entries = (int_entries, fp_entries)
    is_freed = attrgetter("iq_freed")
    pending_exec = sim.pending_exec
    pending_pop = pending_exec.pop
    pending_squashes = sim.pending_squashes
    pending_stores = sim.pending_stores
    pending_branches = sim.pending_branches
    apply_squashes = sim._apply_squashes
    renamer = sim.renamer
    int_file = renamer.int_file
    fp_file = renamer.fp_file
    int_ready = int_file.ready
    fp_ready = fp_file.ready
    int_producer = int_file.producer
    fp_producer = fp_file.producer
    int_free = int_file.free_list
    fp_free = fp_file.free_list
    # Per thread, (int map, fp map): indexed by an is_fp bool.
    thread_maps = tuple(zip(int_file.maps, fp_file.maps))
    fu = sim.fetch_unit
    policy = fu.policy
    policy_order = policy.order
    policy_tick = policy.tick
    adaptive = fu.adaptive
    # Inline thread-ordering for the ubiquitous cheap static policies.
    # Their sort keys are (metric, rr_rank) with rr_rank a permutation of
    # 0..n_threads-1, so a decorated tuple sort — (metric, rr_rank,
    # thread), where the unique rr_rank guarantees the thread object is
    # never compared — yields exactly the reference's stable keyed sort.
    # MISSCOUNT (stateful misscount()), IQPOSN, and adaptive meta-policies
    # keep delegating to policy.order.
    pcls = policy.__class__
    if pcls is Icount:
        fast_order = 1
    elif pcls is RoundRobin:
        fast_order = 2
    elif pcls is Brcount:
        fast_order = 3
    elif pcls is IcountBrcount:
        fast_order = 4
    else:
        fast_order = 0
    itag_filter = fu._itag_filter
    rr_offset = fu.rr_offset
    iu = sim.issue_unit
    static_key = iu._static_key
    policy_key = iu._policy_key
    speculation_allows = iu._speculation_allows
    ex = sim.execute_unit
    load_missed = ex._load_missed
    resolve_control = ex._resolve_control
    predictor_predict = sim.predictor.predict
    hierarchy = sim.hierarchy
    l1_access = hierarchy._l1_access
    icache = hierarchy.icache
    itlb = hierarchy.itlb
    dcache = hierarchy.dcache
    dtlb = hierarchy.dtlb
    icache_line_shift = icache._line_shift
    icache_banks = icache._banks
    page_shift = _PAGE_SHIFT
    page_mask = _PAGE_MASK
    stats = sim.stats
    per_thread_committed = stats.committed_per_thread
    gc_pending = sim._gc_pending_exec

    # Batched statistics deltas (flushed in the finally block).  Counters
    # incremented by delegated helpers (branch resolution, optimistic
    # squash, I-cache stalls) are written straight to ``stats`` by that
    # code and are deliberately NOT duplicated here.
    cycles_d = 0
    qpop_d = 0
    committed_d = 0
    fetched_d = 0
    fetched_wp_d = 0
    fetch_active_d = 0
    issued_d = 0
    issued_wp_d = 0
    int_iq_full_d = 0
    fp_iq_full_d = 0
    out_of_regs_d = 0

    cycle = sim.cycle
    end = cycle + n
    try:
        while cycle < end:
            # Keep the public clock current: abort hooks, listeners and
            # delegated helpers may read it mid-cycle.
            sim.cycle = cycle

            # ---------------- squash application ----------------------
            if pending_squashes:
                apply_squashes(cycle)

            # ---------------- commit (per-thread, in order) -----------
            commit_listener = sim.commit_listener
            budget = commit_width
            idx = cycle % n_threads
            for _ in range(n_threads):
                if budget <= 0:
                    break
                thread = threads[idx]
                idx += 1
                if idx == n_threads:
                    idx = 0
                rob = thread.rob
                while budget > 0 and rob:
                    uop = rob[0]
                    if uop.state != 4 or uop.commit_ready_c > cycle:  # S_DONE
                        break
                    rob.popleft()
                    uop.state = 5  # S_COMMITTED
                    if uop.dest_preg is not None:
                        (fp_free if uop.dest_is_fp else int_free).append(
                            uop.old_preg
                        )
                    if uop.is_store:
                        del pending_stores[uop.tid][0]  # see RetireUnit
                    budget -= 1
                    if commit_listener is not None:
                        commit_listener(uop)
                    if measuring:
                        committed_d += 1
                        tid = uop.tid
                        per_thread_committed[tid] = (
                            per_thread_committed.get(tid, 0) + 1
                        )

            # ---------------- execute -------------------------------
            exec_uops = pending_pop(cycle, None)
            if exec_uops:
                for uop in exec_uops:
                    if uop.state != 3 or uop.exec_c != cycle:  # S_ISSUED
                        continue  # squashed, or optimistically re-queued
                    if uop.is_load or uop.is_store:
                        # Inlined _execute_load and _execute_store up to
                        # the D-cache access.  A load that does not hit
                        # on time is delegated with the access outcome;
                        # a store turned away retries next cycle.
                        tid = uop.tid
                        thread = threads[tid]
                        ea = uop.eff_addr
                        frame = thread._frames.get(ea >> page_shift)
                        phys = (thread.phys_addr(ea) if frame is None else
                                thread.asid_offset + (frame << page_shift)
                                + (ea & page_mask))
                        hit, ready_c, rejected = l1_access(
                            dcache, dtlb, tid, phys, cycle)
                        if uop.is_load:
                            if not hit or ready_c > cycle:
                                load_missed(uop, cycle, ready_c, rejected)
                                continue
                            uop.dcache_hit = True
                            # Re-arm a wakeup that is not live.
                            dp = uop.dest_preg
                            if dp is not None:
                                ready = (fp_ready if uop.dest_is_fp
                                         else int_ready)
                                if ready[dp] > cycle:
                                    ready[dp] = cycle
                        elif rejected:
                            ec = cycle + 1
                            uop.exec_c = ec
                            lst = pending_exec.get(ec)
                            if lst is None:
                                pending_exec[ec] = [uop]
                            else:
                                lst.append(uop)
                            continue
                        else:
                            uop.dcache_hit = hit
                        cc = cycle
                    else:
                        if uop.is_control:
                            resolve_control(uop, cycle)
                        lat = uop.latency
                        cc = cycle + (lat - 1 if lat > 1 else 0)
                    # Inlined _finish(cc).
                    uop.complete_c = cc
                    uop.commit_ready_c = cc + 1
                    uop.state = 4  # S_DONE
                    uop.iq_freed = True
                    dp = uop.dest_preg
                    if dp is not None:
                        (fp_producer if uop.dest_is_fp
                         else int_producer)[dp] = None
                    if uop.is_control:
                        threads[uop.tid].unresolved_branches -= 1
                        branches = pending_branches[uop.tid]
                        if uop in branches:
                            branches.remove(uop)

            # ---------------- IQ release + issue ----------------------
            # Per queue: release (drop iq_freed entries, in place and in
            # C), then collect issue candidates from the search window
            # of what is left.  The collection predicate (waiting, state
            # 2, inside the window *after* release) is walk-independent,
            # so collecting before the priority sort is exactly the
            # reference's waiting() set.  Its third term, dispatched on
            # an earlier cycle, always holds here: rename runs after
            # issue.  Readiness is prefiltered: a source not ready now
            # can only become ready later in this walk if its producer
            # issues in it with latency 0 (a compare), since a load
            # wakes its consumers at cycle + 1 and any other op at
            # cycle + latency.  So a uop is collected only if each
            # source is ready or produced by a queued, non-load,
            # latency-0 op; the walk below re-checks readiness as the
            # reference does.  A dropped uop cannot issue this cycle,
            # and skipping it has no side effect.
            candidates = []
            cand_append = candidates.append
            for entries in queue_entries:
                for uop in entries:
                    if uop.iq_freed:
                        entries[:] = filterfalse(is_freed, entries)
                        break
                for uop in (entries if len(entries) <= search_window
                            else entries[:search_window]):
                    if uop.state != 2:
                        continue
                    for preg, is_fp in uop.src_pregs:
                        if is_fp:
                            if fp_ready[preg] > cycle:
                                p = fp_producer[preg]
                                if (p is None or p.state != 2
                                        or p.latency or p.is_load):
                                    break
                        elif int_ready[preg] > cycle:
                            p = int_producer[preg]
                            if (p is None or p.state != 2
                                    or p.latency or p.is_load):
                                break
                    else:
                        cand_append(uop)
            if candidates:
                if len(candidates) > 1:
                    candidates.sort(key=static_key or policy_key(cycle))
                int_left = int_units
                ls_left = ls_units
                fp_left = fp_units
                for uop in candidates:
                    is_fp_op = uop.is_fp_op
                    is_mem = uop.is_load or uop.is_store
                    if not infinite_fus:
                        if is_fp_op:
                            if fp_left <= 0:
                                continue
                        elif is_mem:
                            if ls_left <= 0 or int_left <= 0:
                                continue
                        elif int_left <= 0:
                            continue
                    ready = True
                    for preg, is_fp in uop.src_pregs:
                        if (fp_ready[preg] if is_fp
                                else int_ready[preg]) > cycle:
                            ready = False
                            break
                    if not ready:
                        continue
                    if uop.is_load:
                        mem_key = uop.mem_key
                        seq = uop.seq
                        for store in pending_stores[uop.tid]:
                            if store.seq >= seq:
                                break
                            if (store.mem_key == mem_key
                                    and store.dcache_hit is None):
                                ready = False
                                break
                        if not ready:
                            continue
                    if not spec_full and not speculation_allows(uop, cycle):
                        continue

                    # Inlined _do_issue.
                    optimistic = False
                    inflight = False
                    for preg, is_fp in uop.src_pregs:
                        p = (fp_producer if is_fp else int_producer)[preg]
                        if p is not None and p.state == 3:  # S_ISSUED
                            inflight = True
                            if p.is_load and p.dcache_hit is None:
                                optimistic = True
                                break
                    uop.optimistic = optimistic
                    uop.state = 3  # S_ISSUED
                    uop.issue_c = cycle
                    ec = cycle + exec_offset
                    uop.exec_c = ec
                    lst = pending_exec.get(ec)
                    if lst is None:
                        pending_exec[ec] = [uop]
                    else:
                        lst.append(uop)
                    threads[uop.tid].unissued_count -= 1
                    if measuring:
                        issued_d += 1
                        if uop.wrong_path:
                            issued_wp_d += 1
                    dp = uop.dest_preg
                    if dp is not None:
                        if uop.is_load:
                            if optimistic_issue:
                                (fp_ready if uop.dest_is_fp
                                 else int_ready)[dp] = cycle + 1
                        else:
                            (fp_ready if uop.dest_is_fp
                             else int_ready)[dp] = cycle + uop.latency
                    if not inflight:
                        uop.iq_freed = True
                    if not infinite_fus:
                        if is_fp_op:
                            fp_left -= 1
                        elif is_mem:
                            ls_left -= 1
                            int_left -= 1
                        else:
                            int_left -= 1

            # ---------------- rename / dispatch -----------------------
            renamed = 0
            blocked_int = blocked_fp = blocked_regs = False
            while decode_buffer and renamed < rename_width:
                uop = decode_buffer[0]
                if uop.state == 6:  # S_SQUASHED
                    decode_pop()
                    continue
                if uop.decode_c >= cycle:
                    break
                is_fp_op = uop.is_fp_op
                entries = fp_entries if is_fp_op else int_entries
                if len(entries) >= iq_capacity:
                    if is_fp_op:
                        blocked_fp = True
                    else:
                        blocked_int = True
                    break
                # Inlined Renamer.rename: the free-list check first (a
                # stall has no side effects), then the sources (at most
                # rs1 and rs2), read before the destination remaps.
                instr = uop.instr
                tid = uop.tid
                rd = instr.rd
                if rd is not None:
                    dest_is_fp = instr._rd_is_fp
                    free = fp_free if dest_is_fp else int_free
                    if not free:
                        blocked_regs = True
                        break
                maps = thread_maps[tid]
                sources = instr._sources_fp
                if len(sources) == 2:
                    (r1, fp1), (r2, fp2) = sources
                    uop.src_pregs = ((maps[fp1][r1], fp1),
                                     (maps[fp2][r2], fp2))
                elif sources:
                    ((r1, fp1),) = sources
                    uop.src_pregs = ((maps[fp1][r1], fp1),)
                if rd is not None:
                    preg = free.pop()
                    (fp_ready if dest_is_fp else int_ready)[preg] = _NEVER
                    (fp_producer if dest_is_fp else int_producer)[preg] = uop
                    uop.dest_preg = preg
                    uop.dest_is_fp = dest_is_fp
                    maps_t = maps[dest_is_fp]
                    uop.old_preg = maps_t[rd]
                    maps_t[rd] = preg
                decode_pop()
                uop.dispatch_c = cycle
                uop.state = 2  # S_QUEUED
                entries.append(uop)
                if uop.is_store:
                    pending_stores[tid].append(uop)
                if uop.is_control:
                    pending_branches[tid].append(uop)
                renamed += 1
            if measuring:
                if blocked_int:
                    int_iq_full_d += 1
                if blocked_fp:
                    fp_iq_full_d += 1
                if blocked_regs:
                    out_of_regs_d += 1

            # ---------------- decode ----------------------------------
            decoded = 0
            while fetch_buffer and decoded < decode_width:
                uop = fetch_buffer[0]
                if uop.state == 6:  # S_SQUASHED
                    fetch_pop()
                    continue
                if uop.fetch_c >= cycle:
                    break
                if len(decode_buffer) >= decode_width:
                    break
                fetch_pop()
                uop.decode_c = cycle
                uop.state = 1  # S_DECODED
                decode_append(uop)
                decoded += 1

            # ---------------- fetch -----------------------------------
            if adaptive:
                policy_tick(cycle)
            buffer_room = fetch_width - len(fetch_buffer)
            if buffer_room > 0:
                candidates = []
                for t in threads:
                    if t.fetch_blocked_until <= cycle:
                        candidates.append(t)
                if itag:
                    candidates = itag_filter(candidates, cycle)
                if fast_order == 0:
                    ordered = policy_order(
                        candidates, cycle, rr_offset, n_threads,
                        int_queue, fp_queue,
                    )
                elif fast_order == 2:
                    # Round-robin rotation: sorted by the (unique)
                    # rr_rank alone == rotate the tid-ordered list.
                    ordered = []
                    for t in candidates:
                        if t.tid >= rr_offset:
                            ordered.append(t)
                    for t in candidates:
                        if t.tid < rr_offset:
                            ordered.append(t)
                else:
                    dec = []
                    for t in candidates:
                        if fast_order == 1:
                            metric = t.unissued_count
                        elif fast_order == 3:
                            metric = t.unresolved_branches
                        else:
                            metric = (t.unissued_count
                                      + 3 * t.unresolved_branches)
                        dec.append(
                            (metric, (t.tid - rr_offset) % n_threads, t)
                        )
                    dec.sort()
                    ordered = []
                    for d in dec:
                        ordered.append(d[2])
                selected = []
                banks_used = 0  # bit b set: bank b taken this cycle
                for thread in ordered:
                    if len(selected) >= fetch_threads:
                        break
                    # Inlined phys_addr + bank_of; the translation is
                    # carried along so the fetch loop below does not
                    # repeat it for the same PC.
                    pc = thread.fetch_pc
                    frame = thread._frames.get(pc >> page_shift)
                    phys = (thread.phys_addr(pc) if frame is None else
                            thread.asid_offset + (frame << page_shift)
                            + (pc & page_mask))
                    bank_bit = 1 << ((phys >> icache_line_shift)
                                     % icache_banks)
                    if banks_used & bank_bit:
                        continue
                    banks_used |= bank_bit
                    selected.append((thread, phys))
                total_budget = min(fetch_width, buffer_room)
                fetched_any = False
                for thread, phys in selected:
                    if total_budget <= 0:
                        break
                    # Inlined _fetch_from_thread.
                    pc = thread.fetch_pc
                    program = thread.program
                    text_end = program._text_end
                    if not TEXT_BASE <= pc < text_end or pc & 3:
                        thread.fetch_blocked_until = BLOCKED
                        continue
                    line = phys >> 6
                    if thread.pending_ifill_line == line:
                        thread.pending_ifill_line = None
                    elif not itag:
                        hit, ready_c, rejected = l1_access(
                            icache, itlb, thread.tid, phys, cycle)
                        if rejected:
                            continue  # bank busy with a fill
                        if not hit:
                            thread.fetch_blocked_until = ready_c
                            thread.pending_ifill_line = line
                            if measuring:
                                stats.icache_miss_stall_events += 1
                            continue
                        if ready_c > cycle:
                            thread.fetch_blocked_until = ready_c
                            continue
                    budget = (fetch_per_thread
                              if fetch_per_thread < total_budget
                              else total_budget)
                    taken = 0
                    wrong = 0
                    control = 0
                    tid = thread.tid
                    seq = thread.next_seq
                    rob_append = thread.rob.append
                    instructions = program.instructions
                    frames = thread._frames
                    asid = thread.asid_offset
                    # A block that starts on the wrong path stays on it,
                    # so only a correct-path block loads its cursor.
                    wp = not thread.on_correct_path
                    if wp:
                        cursor = None
                    else:
                        cursor = thread.cursor
                        stream = cursor.stream
                        o_pos = cursor.pos
                        o_pc = cursor.pc
                        o_mem = cursor.mem
                        o_ctl = cursor.ctl
                        o_len = stream.length
                        o_addrs = stream.addrs
                        o_targets = stream.targets
                    while taken < budget:
                        # Inlined program.fetch + _make_uop.
                        if not TEXT_BASE <= pc < text_end or pc & 3:
                            thread.fetch_blocked_until = BLOCKED
                            break
                        instr = instructions[(pc - TEXT_BASE) >> 2]
                        if wp:
                            ea = (thread.wrong_path_load_address(pc, seq)
                                  if instr.is_mem else None)
                            uop = Uop(tid, seq, pc, instr, True, None, None,
                                      ea)
                            wrong += 1
                        else:
                            # Inlined StreamCursor.pop.
                            if o_pos >= o_len:
                                o_len = stream.extend(o_pos + 1)
                                if o_pos >= o_len:
                                    cursor.pos = o_pos
                                    cursor.mem = o_mem
                                    cursor.ctl = o_ctl
                                    stream.fail()
                            assert o_pc == pc, (
                                f"oracle desync: thread {tid} fetching "
                                f"{pc:#x}, oracle at {o_pc:#x}"
                            )
                            o_pos += 1
                            if instr.is_mem:
                                ea = o_addrs[o_mem]
                                o_mem += 1
                                thread.last_data_addr = ea
                                o_taken = False
                                o_pc = pc + 4
                            elif instr.is_control:
                                ea = None
                                word = o_targets[o_ctl]
                                o_ctl += 1
                                o_taken = word & 1 == 1
                                o_pc = word ^ o_taken
                            else:
                                ea = None
                                o_taken = False
                                o_pc = pc + 4
                            uop = Uop(tid, seq, pc, instr, False, o_taken,
                                      o_pc, ea)
                        if ea is not None:
                            frame = frames.get(ea >> page_shift)
                            uop.mem_key = ((
                                thread.phys_addr(ea) if frame is None else
                                asid + (frame << page_shift)
                                + (ea & page_mask)
                            ) >> 3) & dis_mask
                        uop.fetch_c = cycle
                        seq += 1
                        fetch_append(uop)
                        rob_append(uop)
                        taken += 1

                        # Inlined _advance.
                        if not uop.is_control:
                            next_pc = pc + 4
                            block_ends = False
                        else:
                            control += 1
                            prediction = predictor_predict(
                                tid, pc, instr,
                                None if wp else uop.actual_taken,
                                None if wp else uop.actual_target,
                            )
                            uop.prediction = prediction
                            if prediction.resolve_at_exec:
                                thread.fetch_blocked_until = BLOCKED
                                uop.mispredicted = not wp
                                if not wp:
                                    thread.on_correct_path = False
                                next_pc = pc + 4
                                block_ends = True
                            else:
                                next_pc = (prediction.target
                                           if prediction.taken
                                           else pc + 4)
                                if not wp and next_pc != uop.actual_target:
                                    uop.mispredicted = True
                                    thread.on_correct_path = False
                                    wp = True
                                if prediction.redirect_at_decode:
                                    thread.fetch_blocked_until = (
                                        cycle + misfetch_penalty
                                    )
                                    block_ends = True
                                else:
                                    block_ends = prediction.taken
                        pc = next_pc
                        if block_ends:
                            break
                        if not pc % 64:  # cache-line boundary
                            break
                    thread.fetch_pc = pc
                    thread.next_seq = seq
                    if cursor is not None:
                        cursor.pos = o_pos
                        cursor.pc = o_pc
                        cursor.mem = o_mem
                        cursor.ctl = o_ctl
                    thread.unissued_count += taken
                    thread.unresolved_branches += control
                    if measuring:
                        fetched_d += taken
                        fetched_wp_d += wrong
                    total_budget -= taken
                    if taken:
                        fetched_any = True
                if fetched_any and measuring:
                    fetch_active_d += 1
            rr_offset += 1
            if rr_offset == n_threads:
                rr_offset = 0

            # ---------------- bookkeeping -----------------------------
            if measuring:
                cycles_d += 1
                qpop_d += len(int_entries) + len(fp_entries)
            if not cycle & 1023 and pending_exec:
                gc_pending()
            if not cycle & 255:
                abort_hook = sim.abort_hook
                if abort_hook is not None:
                    abort_hook(sim)
            cycle += 1
    finally:
        sim.cycle = cycle
        fu.rr_offset = rr_offset
        if measuring:
            stats.cycles += cycles_d
            stats.queue_population_sum += qpop_d
            stats.committed += committed_d
            stats.fetched_total += fetched_d
            stats.fetched_wrong_path += fetched_wp_d
            stats.fetch_cycles_active += fetch_active_d
            stats.issued_total += issued_d
            stats.issued_wrong_path += issued_wp_d
            stats.int_iq_full_cycles += int_iq_full_d
            stats.fp_iq_full_cycles += fp_iq_full_d
            stats.out_of_registers_cycles += out_of_regs_d
