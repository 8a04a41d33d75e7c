"""Synthetic benchmark generator.

Given a :class:`~repro.workloads.profiles.WorkloadProfile` and a seed,
:func:`generate_program` produces a complete, runs-forever program:

* a dispatcher loop that tours the program's procedures (I-cache
  pressure, call/return traffic for the return-address stacks),
* procedures built from basic blocks sampled from the profile's
  instruction mix, with per-procedure memory cursors persisted in a
  globals area (load/store traffic with realistic address streams),
* data-dependent branches fed from a pre-initialised "flags" array whose
  bit bias sets their predictability,
* optionally a switch-style indirect jump (BTB/jump-misprediction
  traffic) and a recursive function (return-stack depth pressure).

Everything is deterministic in (profile, seed).

The generator hands each statement and label straight to the
assembler's statement-level entry, :class:`~repro.isa.assembler.Assembler`,
and formats no assembly text.  The text front end encodes a program's
disassembly back to the same instructions
(``tests/workloads/test_synthetic.py`` checks the round trip).

Register conventions
--------------------
=========  ====================================================
r1..r10    block scratch results
r11..r18   stable (loop-invariant) integer values
r9 / r8    address computation temporaries
r10        per-procedure memory cursor (persisted in globals)
r20, r21   loop counters / recursion depth argument
r22        selector cursor (switch)
r23        flags cursor (data-dependent branches)
r24        working-set address mask (ws - 8)
r25        data base pointer
r26        aux/globals base pointer
r27        case-table base pointer
r28        pointer-chase cursor
r29        stack pointer
r31        link register
f1..f10    FP block scratch
f11..f18   stable FP values
=========  ====================================================

Memory layout (per program)
---------------------------
``[DATA_BASE, DATA_BASE + ws)``    main working set (chase nodes live here)
``AUX = DATA_BASE + ws``:

=================  =========================================
AUX + 0..2047      globals (procedure cursors, misc)
AUX + 2048         case table (one word per switch case)
AUX + 3072..7167   selector array (512 words)
AUX + 8192..16383  flags array (1024 words)
AUX + 24576..32767 stack (grows down from AUX + 32760)
=================  =========================================
"""

from __future__ import annotations

import random
import zlib
from typing import List, Optional

from repro.isa.assembler import Assembler
from repro.isa.instructions import Opcode
from repro.isa.program import DATA_BASE, Program
from repro.workloads.profiles import WorkloadProfile

_AUX_GLOBALS = 0
_AUX_CASETAB = 2048
_AUX_SELECTORS = 3072
_AUX_FLAGS = 8192
_AUX_STACK_TOP = 32760
_AUX_SIZE = 32768

_N_SELECTORS = 128
_N_FLAGS = 128

_INT_STABLE = list(range(11, 19))
_FP_STABLE = list(range(11, 19))
_INT_SCRATCH = list(range(1, 8))  # r8, r9, r10 reserved for addresses/cursor
_FP_SCRATCH = list(range(1, 11))

#: Candidate lists for ``rng.choice``: each keeps the length and order
#: it has always had, so a draw picks the same operation.
_FP_OPS = [Opcode.FADD, Opcode.FADD, Opcode.FMUL, Opcode.FMUL, Opcode.FSUB]
_LOGIC_OPS = [Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR]
_SHIFT_OPS = [Opcode.SLLI, Opcode.SRLI]
_CMP_OPS = [Opcode.CMPLT, Opcode.CMPEQ, Opcode.CMPLE]
_CMOV_OPS = [Opcode.CMOVZ, Opcode.CMOVNZ]


class _Builder:
    """Feeds statements and labels to the assembler; keeps the register
    and fresh-label state."""

    def __init__(self, profile: WorkloadProfile, rng: random.Random):
        self.p = profile
        self.rng = rng
        self.asm = Assembler(profile.name)
        #: ``emit(opcode, rd, rs1, rs2, imm, target)``: one statement,
        #: with :meth:`Assembler.instruction`'s fields (FP operands are
        #: implied by the opcode).
        self.emit = self.asm.instruction
        self.labels = 0
        self._label_counter = 0
        self._int_scratch_next = 0
        self._fp_scratch_next = 0
        self.recent_int: List[int] = list(_INT_STABLE)
        self.recent_fp: List[int] = list(_FP_STABLE)
        self.last_addr_reg: Optional[int] = None

    # -- low-level emitters -------------------------------------------
    def label(self, name: str) -> None:
        self.labels += 1
        self.asm.label(name)

    def size(self) -> int:
        """Statements plus labels so far: what loop bodies are sized by."""
        return len(self.asm) + self.labels

    def fresh(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    # -- register selection -------------------------------------------
    def _next_int_scratch(self) -> int:
        reg = _INT_SCRATCH[self._int_scratch_next % len(_INT_SCRATCH)]
        self._int_scratch_next += 1
        return reg

    def _next_fp_scratch(self) -> int:
        reg = _FP_SCRATCH[self._fp_scratch_next % len(_FP_SCRATCH)]
        self._fp_scratch_next += 1
        return reg

    def _int_source(self) -> int:
        # Dependent operands chain on the most recent result: real code's
        # critical paths are serial (address -> load -> compare -> use),
        # which is what bounds single-thread ILP on a wide machine.
        if self.rng.random() < self.p.dependence_density:
            return self.recent_int[-1]
        return self.rng.choice(_INT_STABLE)

    def _fp_source(self) -> int:
        if self.rng.random() < self.p.dependence_density:
            return self.recent_fp[-1]
        return self.rng.choice(_FP_STABLE)

    def _note_int_result(self, reg: int) -> None:
        self.recent_int.append(reg)
        if len(self.recent_int) > 8:
            self.recent_int.pop(0)

    def _note_fp_result(self, reg: int) -> None:
        self.recent_fp.append(reg)
        if len(self.recent_fp) > 8:
            self.recent_fp.pop(0)

    # -- address generation --------------------------------------------
    #: Data-region byte offset of the current procedure's hot slice;
    #: set by the procedure emitter.
    slice_base: int = 0

    def emit_address(self) -> int:
        """Emit the profile's address-stream update; return the register
        that holds the resulting (data-region) address.

        seq/stride/random streams tile through the procedure's hot slice
        (``hot_region`` bytes at ``slice_base``): accesses mostly hit a
        cache-resident window, while different procedures' slices cover
        the whole working set over time.
        """
        emit = self.emit
        pattern = self.p.access_pattern
        if pattern == "chase":
            emit(Opcode.LD, rd=28, rs1=28)
            self.last_addr_reg = 28
            return 28
        hot_mask = self.p.hot_region - 8  # keeps 8-byte alignment
        if pattern == "random":
            emit(Opcode.SLLI, 8, 10, imm=13)
            emit(Opcode.XOR, 10, 10, 8)
            emit(Opcode.SRLI, 8, 10, imm=7)
            emit(Opcode.XOR, 10, 10, 8)
            emit(Opcode.ANDI, 9, 10, imm=hot_mask)
            emit(Opcode.ADD, 9, 9, 25)
        else:
            stride = 8 if pattern == "seq" else self.p.stride
            if self.rng.random() < 0.35:
                # Indexed addressing: the address stream depends on
                # computed values (a[b[i]]-style), merging the address
                # recurrence into the value chain — the serial critical
                # path that bounds real single-thread ILP.
                emit(Opcode.ADD, 10, 10, self.recent_int[-1])
            else:
                emit(Opcode.ADDI, 10, 10, imm=stride)
            emit(Opcode.ANDI, 10, 10, imm=hot_mask)
            emit(Opcode.ADD, 9, 10, 25)
        if self.slice_base:
            emit(Opcode.ADDI, 9, 9, imm=self.slice_base)
        self.last_addr_reg = 9
        return 9

    def _addr_for_access(self) -> int:
        """Reuse the last computed address sometimes (spatial locality),
        otherwise advance the stream."""
        if self.last_addr_reg is not None and self.rng.random() < 0.3:
            return self.last_addr_reg
        return self.emit_address()

    # -- mix ops ---------------------------------------------------------
    def emit_load(self) -> None:
        if self.p.access_pattern == "chase" and self.rng.random() < 0.5:
            # A chase step *is* a load (the next-pointer fetch).
            self.emit(Opcode.LD, rd=28, rs1=28)
            self.last_addr_reg = 28
            return
        addr = self._addr_for_access()
        off = 8 if addr == 28 else 0
        if self.p.frac_fp > 0 and self.rng.random() < 0.55:
            reg = self._next_fp_scratch()
            self.emit(Opcode.FLD, rd=reg, rs1=addr, imm=off)
            self._note_fp_result(reg)
        else:
            reg = self._next_int_scratch()
            self.emit(Opcode.LD, rd=reg, rs1=addr, imm=off)
            self._note_int_result(reg)

    def emit_store(self) -> None:
        addr = self._addr_for_access()
        off = 8 if addr == 28 else 0
        if self.p.frac_fp > 0 and self.rng.random() < 0.5:
            self.emit(Opcode.FST, rs1=addr, rs2=self._fp_source(), imm=off)
        else:
            self.emit(Opcode.ST, rs1=addr, rs2=self._int_source(), imm=off)

    def emit_fp_op(self) -> None:
        rng = self.rng
        reg = self._next_fp_scratch()
        if rng.random() < self.p.frac_fp_div:
            op = Opcode.FDIVD if rng.random() < 0.4 else Opcode.FDIV
            self.emit(op, reg, self._fp_source(), rng.choice(_FP_STABLE))
        else:
            op = rng.choice(_FP_OPS)
            self.emit(op, reg, self._fp_source(), self._fp_source())
        self._note_fp_result(reg)

    def emit_mul(self) -> None:
        reg = self._next_int_scratch()
        op = Opcode.MULQ if self.rng.random() < 0.25 else Opcode.MUL
        self.emit(op, reg, self._int_source(), self._int_source())
        self._note_int_result(reg)

    def emit_int_op(self) -> None:
        rng = self.rng
        reg = self._next_int_scratch()
        r = rng.random()
        if r < 0.55:
            op = rng.choice(_LOGIC_OPS)
            self.emit(op, reg, self._int_source(), self._int_source())
        elif r < 0.75:
            self.emit(Opcode.ADDI, reg, self._int_source(),
                      imm=rng.randrange(1, 64))
        elif r < 0.85:
            op = rng.choice(_SHIFT_OPS)
            self.emit(op, reg, self._int_source(), imm=rng.randrange(1, 9))
        elif r < 0.95:
            op = rng.choice(_CMP_OPS)
            self.emit(op, reg, self._int_source(), self._int_source())
        else:
            op = rng.choice(_CMOV_OPS)
            self.emit(op, reg, self._int_source(), self._int_source())
        self._note_int_result(reg)

    def emit_data_branch(self) -> None:
        """A branch whose direction is decided by pre-initialised flag data."""
        skip = self.fresh("skip")
        emit = self.emit
        emit(Opcode.ADDI, 23, 23, imm=8)
        emit(Opcode.ANDI, 23, 23, imm=_N_FLAGS * 8 - 1)
        emit(Opcode.ADD, 8, 23, 26)
        emit(Opcode.LD, rd=7, rs1=8, imm=_AUX_FLAGS)
        emit(Opcode.ANDI, 7, 7, imm=1)
        # bnez: taken with probability = the flag bias, so these forward
        # branches actually fragment fetch blocks like real taken
        # branches do (the filler below is the rarely-executed arm).
        emit(Opcode.BNEZ, rs1=7, target=skip)
        for _ in range(self.rng.randrange(2, 5)):
            self.emit_int_op()
        self.label(skip)

    def emit_block(self) -> None:
        """One basic block sampled from the profile's instruction mix."""
        p, rng = self.p, self.rng
        size = rng.randrange(p.block_size[0], p.block_size[1] + 1)
        for _ in range(size):
            r = rng.random()
            if r < p.frac_fp:
                self.emit_fp_op()
            elif r < p.frac_fp + p.frac_load:
                self.emit_load()
            elif r < p.frac_fp + p.frac_load + p.frac_store:
                self.emit_store()
            elif r < p.frac_fp + p.frac_load + p.frac_store + p.frac_mul:
                self.emit_mul()
            else:
                self.emit_int_op()
        if rng.random() < p.data_branch_prob:
            self.emit_data_branch()


def _emit_procedure(b: _Builder, index: int, body_instructions: int) -> None:
    """Emit one leaf procedure: a sequence of small counted loops.

    Real loop nests are short — a backedge every block or two — which is
    what makes branch frequency high and fetch blocks fragmented (the
    effect Section 5.1 of the paper exploits).  Each loop body is one
    basic block plus the loop glue; successive loops walk the procedure's
    memory cursor further along its stream.
    """
    p, rng = b.p, b.rng
    b.label(f"proc_{index}")
    # This procedure's hot slice of the working set (line-aligned tile).
    b.slice_base = (index * p.hot_region) % p.working_set
    cursor_slot = 8 * index
    b.emit(Opcode.LD, rd=10, rs1=26, imm=cursor_slot)
    # Outer loop: real code concentrates execution in hot loop nests, so
    # each inner backedge executes outer_trip * trip times per call —
    # enough for the 2-bit PHT counters to converge.
    outer = rng.randrange(p.outer_trip[0], p.outer_trip[1] + 1)
    b.emit(Opcode.LI, rd=21, imm=outer)
    b.label(f"pouter_{index}")
    emitted = 0
    segment = 0
    while emitted < body_instructions:
        before = b.size()
        trip = rng.randrange(p.trip_count[0], p.trip_count[1] + 1)
        loop = f"ploop_{index}_{segment}"
        b.emit(Opcode.LI, rd=20, imm=trip)
        b.label(loop)
        b.last_addr_reg = None  # addresses don't survive the back edge
        b.emit_block()
        b.emit(Opcode.ADDI, 20, 20, imm=-1)
        b.emit(Opcode.BNEZ, rs1=20, target=loop)
        emitted += b.size() - before
        segment += 1
    b.emit(Opcode.ADDI, 21, 21, imm=-1)
    b.emit(Opcode.BNEZ, rs1=21, target=f"pouter_{index}")
    b.emit(Opcode.ST, rs1=26, rs2=10, imm=cursor_slot)
    b.emit(Opcode.RET)


def _emit_switch(b: _Builder, n_cases: int, switch_id: int) -> None:
    """Emit a switch-style indirect jump.  Each switch instance gets its
    own slice of the case table (filled with its case-label addresses by
    :func:`_initialise_data`)."""
    done = b.fresh("swdone")
    table_off = switch_id * n_cases * 8
    b.emit(Opcode.ADDI, 22, 22, imm=8)
    b.emit(Opcode.ANDI, 22, 22, imm=_N_SELECTORS * 8 - 1)
    b.emit(Opcode.ADD, 9, 22, 27)
    b.emit(Opcode.LD, rd=8, rs1=9, imm=_AUX_SELECTORS - _AUX_CASETAB)
    b.emit(Opcode.SLLI, 8, 8, imm=3)
    b.emit(Opcode.ADD, 8, 8, 27)
    b.emit(Opcode.LD, rd=8, rs1=8, imm=table_off)
    b.emit(Opcode.JR, rs1=8)
    for case in range(n_cases):
        b.label(f"case_{switch_id}_{case}")
        for _ in range(b.rng.randrange(2, 6)):
            b.emit_int_op()
        b.emit(Opcode.J, target=done)
    b.label(done)


def _emit_recursive_fn(b: _Builder) -> None:
    """Emit a self-recursive function driven by the r20 depth argument."""
    b.label("recfn")
    b.emit(Opcode.ADDI, 29, 29, imm=-16)
    b.emit(Opcode.ST, rs1=29, rs2=31)
    b.emit(Opcode.ST, rs1=29, rs2=20, imm=8)
    for _ in range(4):
        b.emit_int_op()
    if b.p.access_pattern == "chase":
        b.emit(Opcode.LD, rd=28, rs1=28)
    b.emit(Opcode.ADDI, 20, 20, imm=-1)
    b.emit(Opcode.BEQZ, rs1=20, target="recbase")
    b.emit(Opcode.JAL, target="recfn")
    b.label("recbase")
    b.emit(Opcode.LD, rd=31, rs1=29)
    b.emit(Opcode.LD, rd=20, rs1=29, imm=8)
    b.emit(Opcode.ADDI, 29, 29, imm=16)
    b.emit(Opcode.RET)


def _emit_start(b: _Builder, ws: int) -> None:
    """Emit register initialisation."""
    aux = DATA_BASE + ws
    b.label("_start")
    b.emit(Opcode.LI, rd=24, imm=ws - 8)      # address mask (8-byte aligned)
    b.emit(Opcode.LI, rd=25, imm=DATA_BASE)   # data base
    b.emit(Opcode.LI, rd=26, imm=aux)         # globals base
    b.emit(Opcode.LI, rd=27, imm=aux + _AUX_CASETAB)
    b.emit(Opcode.LI, rd=28, imm=DATA_BASE)   # chase head
    b.emit(Opcode.LI, rd=29, imm=aux + _AUX_STACK_TOP)
    b.emit(Opcode.LI, rd=22)
    b.emit(Opcode.LI, rd=23)
    for i, reg in enumerate(_INT_STABLE):
        b.emit(Opcode.LI, rd=reg, imm=2 * i + 3)
    # Stable FP registers are loaded from pre-initialised globals words.
    for i, reg in enumerate(_FP_STABLE):
        b.emit(Opcode.FLD, rd=reg, rs1=26, imm=1600 + 8 * i)


def generate_program(profile: WorkloadProfile, seed: int = 0) -> Program:
    """Generate the synthetic program for ``profile``.

    Deterministic in ``(profile, seed)``.  The returned program never
    halts; the simulator runs it for a fixed cycle/instruction budget.
    """
    name_hash = zlib.crc32(profile.name.encode("ascii")) & 0xFFFF_FFFF
    rng = random.Random(name_hash ^ (seed * 0x9E3779B9))
    b = _Builder(profile, rng)
    ws = profile.working_set

    _emit_start(b, ws)

    # Dispatcher: phase-structured touring.  Real programs spend long
    # stretches in a few hot procedures before moving on; each "phase"
    # loops over a small group of procedures, which keeps the set of
    # simultaneously-active branch sites within what a 2K-entry PHT can
    # hold while still touring the whole text over time (I-cache
    # pressure at phase transitions).
    order = list(range(profile.procedures))
    rng.shuffle(order)
    if profile.calls_per_iteration:
        order = order[: profile.calls_per_iteration]
    b.label("outer")
    n_switches = 0
    max_switches = (1024 // 8) // max(1, profile.switch_cases)  # table capacity
    group_size = 2
    for g in range(0, len(order), group_size):
        group = order[g : g + group_size]
        repeats = rng.randrange(4, 11)
        b.emit(Opcode.LI, rd=19, imm=repeats)
        b.label(f"phase_{g}")
        for k in group:
            b.emit(Opcode.JAL, target=f"proc_{k}")
        if (
            profile.switch_cases
            and n_switches < max_switches
        ):
            _emit_switch(b, profile.switch_cases, n_switches)
            n_switches += 1
        if profile.recursion_depth and rng.random() < 0.5:
            b.emit(Opcode.LI, rd=20, imm=profile.recursion_depth)
            b.emit(Opcode.JAL, target="recfn")
        b.emit(Opcode.ADDI, 19, 19, imm=-1)
        b.emit(Opcode.BNEZ, rs1=19, target=f"phase_{g}")
    b.emit(Opcode.J, target="outer")

    body_per_proc = profile.text_instructions // profile.procedures
    for index in range(profile.procedures):
        _emit_procedure(b, index, body_per_proc)

    if profile.recursion_depth:
        _emit_recursive_fn(b)

    program = b.asm.program()
    program.data.size = ws + _AUX_SIZE
    _initialise_data(program, profile, rng)
    return program


def _initialise_data(
    program: Program, profile: WorkloadProfile, rng: random.Random
) -> None:
    """Fill the data segment: flags, selectors, case table, FP constants,
    cursor phases, and (for chase profiles) the pointer-chase permutation."""
    words = program.data.words
    ws = profile.working_set
    aux = DATA_BASE + ws

    # Data-dependent branch flags: a Markov chain with the profile's
    # stationary bias and temporal persistence.  (If bit_{t-1} ~
    # Bernoulli(bias), copying it with probability `persist` and
    # redrawing from Bernoulli(bias) otherwise keeps the marginal at
    # `bias` while giving the branch history real information content.)
    persist = profile.data_branch_persistence
    bit = 1 if rng.random() < profile.data_branch_bias else 0
    for i in range(_N_FLAGS):
        if rng.random() >= persist:
            bit = 1 if rng.random() < profile.data_branch_bias else 0
        words[aux + _AUX_FLAGS + 8 * i] = (rng.randrange(1 << 16) << 1) | bit

    # Switch machinery.  Each switch instance owns a slice of the case
    # table; a shared selector stream picks the case index.
    if profile.switch_cases:
        for i in range(_N_SELECTORS):
            words[aux + _AUX_SELECTORS + 8 * i] = rng.randrange(profile.switch_cases)
        switch_id = 0
        while f"case_{switch_id}_0" in program.symbols:
            for case in range(profile.switch_cases):
                slot = aux + _AUX_CASETAB + (switch_id * profile.switch_cases + case) * 8
                words[slot] = program.symbols[f"case_{switch_id}_{case}"]
            switch_id += 1

    # Stable FP constants (read back by ``fld`` in _start as floats).
    for i in range(len(_FP_STABLE)):
        words[aux + 1600 + 8 * i] = rng.randrange(1, 7)

    # Per-procedure cursor phases stagger the procedures within their
    # hot slices (random-pattern cursors must start odd for xorshift).
    for k in range(profile.procedures):
        phase = (k * 1912 * 8) % profile.hot_region & ~0x7
        words[aux + 8 * k] = phase | (1 if profile.access_pattern == "random" else 0)

    # Pointer-chase permutation: 16-byte nodes forming one random cycle.
    if profile.access_pattern == "chase":
        n_nodes = ws // 16
        perm = list(range(1, n_nodes))
        rng.shuffle(perm)
        chain = [0] + perm  # start at node 0, visit every node, wrap
        for here, there in zip(chain, chain[1:] + chain[:1]):
            words[DATA_BASE + 16 * here] = DATA_BASE + 16 * there
            words[DATA_BASE + 16 * here + 8] = rng.randrange(1 << 16)
