"""One correct-path stream per program per process.

A context's correct path is a pure function of its program: contexts
share no architectural state (the multiprogrammed workload of Section
3), so every context that runs a program walks the same dynamic
instruction sequence from its entry.  Rather than give each context a
private :class:`~repro.isa.emulator.Emulator`, each program has one
:class:`CorrectPathStream` per process, and each context reads it
through a :class:`StreamCursor`.  Runs that rotate the same programs
over the contexts then emulate each position once per process.

The stream keeps only what the timing core cannot recompute from the
static instruction at a PC:

* ``addrs``: each memory op's effective address, in program order;
* ``targets``: each control op's next PC, with its direction in bit 0
  (PCs are 4-byte aligned);
* ``length``, how many dynamic instructions are known, and ``error``,
  the exception the next one raises once the producer can go no
  further (a ``halt`` has executed, an indirect jump left the text, the
  PC ran off it).

Everything else follows from the position before: the PC, the static
instruction there, a non-control op's fall-through.  So a cursor is
four integers, and the tables cost 8 bytes per memory op and 8 per
control op.

The program's one *producer* emulator extends the stream in batches of
at least :data:`BATCH` instructions, under the stream's lock, and
publishes ``length`` only after the arrays hold every entry below it;
readers take no lock.  Two threads that need the same program (the
service runs reports on worker threads) therefore see one sequence.
An extension cut short leaves the producer past ``length``; the next
extension sees that and rebuilds the stream up to ``length``.
"""

from __future__ import annotations

import os
import threading
import weakref
from array import array
from typing import Optional

from repro.isa.emulator import Emulator, OracleRecord
from repro.isa.program import INSTR_BYTES, TEXT_BASE, Program

#: Fewest instructions one extension emulates.  A process emulates at
#: most this many positions per program that no context reads.
BATCH = 512

# Weak keys, as the emulator's handler tables: a stream lives exactly as
# long as its program, so it must not refer to the program strongly.
_STREAMS: "weakref.WeakKeyDictionary[Program, CorrectPathStream]" = (
    weakref.WeakKeyDictionary()
)
_STREAMS_LOCK = threading.Lock()


def correct_path(program: Program) -> "CorrectPathStream":
    """The process's correct-path stream of ``program``."""
    stream = _STREAMS.get(program)
    if stream is None:
        with _STREAMS_LOCK:
            stream = _STREAMS.get(program)
            if stream is None:
                stream = _STREAMS[program] = CorrectPathStream(program)
    return stream


class CorrectPathStream:
    """The correct path of one program, as far as any context needed."""

    __slots__ = ("instructions", "addrs", "targets", "length", "error",
                 "_plain", "_program", "_producer", "_lock")

    def __init__(self, program: Program):
        self.instructions = program.instructions
        self._plain: Optional[array] = None
        self.addrs = array("q")
        self.targets = array("q")
        self.length = 0
        self.error: Optional[Exception] = None
        self._program = weakref.ref(program)
        self._producer = _producer(program)
        self._lock = threading.Lock()

    def extend(self, need: int) -> int:
        """Emulate until ``need`` instructions are known, or until the
        program can go no further; return ``length``.  An error the
        producer meets is kept in ``error`` for the cursor that reaches
        it, never raised here."""
        if self.length < need:
            with self._lock:
                if self._producer.instret != self.length:
                    self._resync()
                if self.length < need and self.error is None:
                    self._produce(max(need - self.length, BATCH))
        return self.length

    def plain_runs(self) -> array:
        """Per text index ``i``, how many instructions from ``i`` on are
        neither memory nor control ops: the stretch functional warmup
        walks past with I-side touches alone.  Built on first use."""
        plain = self._plain
        if plain is None:
            instructions = self.instructions
            plain = array("I", bytes(4 * (len(instructions) + 1)))
            for i in range(len(instructions) - 1, -1, -1):
                instr = instructions[i]
                if not (instr.is_mem or instr.is_control):
                    plain[i] = plain[i + 1] + 1
            self._plain = plain
        return plain

    def fail(self) -> None:
        """Raise what the instruction at ``length`` raises."""
        raise self.error.with_traceback(None)

    def _produce(self, n: int) -> None:
        # Emulator.step without its record: each handler returns the
        # instruction's stream entry.
        producer = self._producer
        handlers = producer._handlers
        n_text = len(handlers)
        instructions = self.instructions
        addrs_append = self.addrs.append
        targets_append = self.targets.append
        try:
            for _ in range(n):
                pc = producer.pc
                idx = (pc - TEXT_BASE) >> 2
                if producer.halted or pc & 3 or not 0 <= idx < n_text:
                    producer.step()  # raises what this step raises
                entry = handlers[idx](producer)
                if entry is not None:
                    if instructions[idx].is_mem:
                        addrs_append(entry)
                    else:
                        targets_append(entry)
        except Exception as exc:  # noqa: BLE001 - raised at its position
            self.error = exc
        # Published last: every entry below it is in the arrays.
        self.length = producer.instret

    def _resync(self) -> None:
        """Rebuild a stream whose last extension was cut short (by an
        exception such as ``KeyboardInterrupt``, or by a fork that left
        it to another thread): replay a fresh producer to the published
        length and drop the entries beyond it."""
        producer = _producer(self._program())
        n_addrs = n_targets = 0
        for _ in range(self.length):
            record = producer.step()
            if record.eff_addr is not None:
                n_addrs += 1
            elif record.instr.is_control:
                n_targets += 1
        del self.addrs[n_addrs:]
        del self.targets[n_targets:]
        self.error = None
        self._producer = producer


def _producer(program: Program) -> Emulator:
    emulator = Emulator(program)
    # Through a proxy, so the memo's value does not keep its key alive.
    emulator.program = weakref.proxy(program)
    return emulator


def _after_fork_in_child() -> None:
    # Only the forking thread survives, so a lock another thread held
    # stays held; the extension it was running is rebuilt by the next.
    for stream in list(_STREAMS.values()):
        stream._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; without fork, no reset
    os.register_at_fork(after_in_child=_after_fork_in_child)


class StreamCursor:
    """A context's place in its program's correct-path stream: ``pos``
    instructions consumed, the ``pc`` of the next, and the indices of
    the next memory op's address (``mem``) and control op's target
    (``ctl``).  The timing core's fetch and functional warmup read the
    arrays inline with these fields held in locals."""

    __slots__ = ("stream", "pos", "pc", "mem", "ctl")

    def __init__(self, program: Program):
        self.stream = correct_path(program)
        self.pos = 0
        self.pc = program.entry
        self.mem = 0
        self.ctl = 0

    def pop(self) -> OracleRecord:
        """Consume the next correct-path instruction."""
        stream = self.stream
        pos = self.pos
        if pos >= stream.length and pos >= stream.extend(pos + 1):
            stream.fail()
        pc = self.pc
        instr = stream.instructions[(pc - TEXT_BASE) >> 2]
        next_pc = pc + INSTR_BYTES
        taken = False
        eff_addr = None
        if instr.is_mem:
            eff_addr = stream.addrs[self.mem]
            self.mem += 1
        elif instr.is_control:
            word = stream.targets[self.ctl]
            self.ctl += 1
            taken = word & 1 == 1
            next_pc = word ^ taken
        self.pos = pos + 1
        self.pc = next_pc
        return OracleRecord(pos, pc, instr, next_pc, taken, eff_addr)

    def state(self):
        """``(pos, pc, mem, ctl)``, what a warm image keeps."""
        return (self.pos, self.pc, self.mem, self.ctl)

    def seek(self, state) -> None:
        """Move to a position saved by :meth:`state`.  The stream is a
        pure function of the program, so the saved position holds in
        any process, however far its stream has been produced."""
        self.pos, self.pc, self.mem, self.ctl = state
