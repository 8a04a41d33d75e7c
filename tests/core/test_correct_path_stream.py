"""One correct-path stream per program per process.

Every context that runs a program reads the program's one
:class:`~repro.isa.stream.CorrectPathStream` through its own cursor, so
a process emulates each (program, position) pair once.  These tests
hold that in place: a second simulator emulates only past the first
one's furthest position; sharing a stream changes no result, whether
two contexts of one core or two simulators advanced in turn share it;
the stream ends exactly where the emulator would raise (``halt``); two
threads extending it at once see the producer's sequence; and the
desync assertion still guards fetch.
"""

import dataclasses
import gc
import sys
import threading
import weakref

import pytest

from repro.core.config import SMTConfig, scheme
from repro.core.simulator import Simulator
from repro.isa import emulator as emulator_mod
from repro.isa import stream as stream_mod
from repro.isa.assembler import assemble
from repro.isa.emulator import Emulator, EmulatorError
from repro.isa.stream import StreamCursor, correct_path
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import generate_program


def _fields(result):
    return dataclasses.asdict(result)


@pytest.fixture
def handler_calls(monkeypatch):
    """Instructions emulated in this process: every compiled handler is
    wrapped to count its executions.  (The stream's producer runs the
    handlers without ``Emulator.step``, so counting ``step`` would miss
    it.)  Only handlers compiled after the fixture count, so use a
    freshly generated program."""
    calls = [0]
    real = emulator_mod._make_handler

    def counting(*args):
        handler = real(*args)
        if handler is None:
            return None

        def counted(emu, _h=handler):
            calls[0] += 1
            return _h(emu)
        return counted

    monkeypatch.setattr(emulator_mod, "_make_handler", counting)
    return calls


# ----------------------------------------------------------------------
# One emulation per (program, position).
# ----------------------------------------------------------------------
def test_second_simulator_steps_only_past_the_first(handler_calls):
    program = generate_program(PROFILES["espresso"], seed=0)
    config = scheme("ICOUNT", 2, 8, n_threads=1)

    first = Simulator(config, [program])
    first.functional_warmup(3000)
    first.run_cycles(1500)
    stream = first.threads[0].cursor.stream
    steps_first = handler_calls[0]
    produced_first = stream.length
    assert steps_first == produced_first
    assert first.threads[0].cursor.pos <= produced_first

    second = Simulator(config, [program])
    assert second.threads[0].cursor.stream is stream
    second.functional_warmup(3000)
    second.run_cycles(4000)
    steps_second = handler_calls[0] - steps_first
    # The second run went past the first one's furthest position and
    # emulated only what lies beyond it.
    assert second.threads[0].cursor.pos > produced_first
    assert steps_second == stream.length - produced_first
    assert steps_second < steps_first


def test_colocated_contexts_share_one_stream():
    """Two contexts of one core run one profile, as the multicore
    driver's co-located jobs do: one stream, the same result as two
    separately built copies of the program."""
    config = scheme("ICOUNT", 2, 8, n_threads=2)
    budget = dict(warmup_cycles=300, measure_cycles=2000,
                  functional_warmup_instructions=4000)
    program = generate_program(PROFILES["xlisp"], seed=0)
    shared = Simulator(config, [program, program])
    assert shared.threads[0].cursor.stream is shared.threads[1].cursor.stream
    apart = Simulator(config, [generate_program(PROFILES["xlisp"], seed=0),
                               generate_program(PROFILES["xlisp"], seed=0)])
    assert apart.threads[0].cursor.stream is not apart.threads[1].cursor.stream
    assert _fields(shared.run(**budget)) == _fields(apart.run(**budget))


def test_alternately_advanced_simulators_match_lone_runs():
    """Two simulators of the same programs, advanced in turn, leave
    each other's cursors alone: each gives its lone run's result."""
    names = ["tomcatv", "alvinn", "ora"]
    configs = [scheme("ICOUNT", 2, 8, n_threads=3),
               scheme("RR", 1, 8, n_threads=3)]

    def start(config, programs):
        sim = Simulator(config, programs)
        sim.functional_warmup(3000)
        sim.measuring = True
        return sim

    alone = []
    for config in configs:
        sim = start(config, [generate_program(PROFILES[name], seed=0)
                             for name in names])
        sim.run_cycles(3000)
        alone.append(sim)

    shared = [generate_program(PROFILES[name], seed=0) for name in names]
    sims = [start(config, list(shared)) for config in configs]
    for _ in range(10):
        for sim in sims:
            sim.run_cycles(300)
    for sim, lone in zip(sims, alone):
        assert _fields(sim.result()) == _fields(lone.result())
        assert ([t.cursor.state() for t in sim.threads]
                == [t.cursor.state() for t in lone.threads])


# ----------------------------------------------------------------------
# The stream ends where the emulator raises.
# ----------------------------------------------------------------------
HALTING = """
.data
buf: .space 256
.text
_start:
    li r1, buf
    li r2, 40
loop:
    ld r3, 0(r1)
    addi r1, r1, 8
    addi r2, r2, -1
    bnez r2, loop
    halt
    addi r4, r4, 1
    j _start
"""


def _halting_sim():
    return Simulator(SMTConfig(n_threads=2),
                     [assemble(HALTING), assemble(HALTING)])


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "step"])
def test_halt_raises_where_the_emulator_did(fast):
    """Pinned numbers, taken with one emulator per context: fetching the
    instruction after ``halt`` raises in cycle 799, with 163 and 158
    correct-path instructions consumed."""
    sim = _halting_sim()
    sim.use_fast_step = fast
    with pytest.raises(EmulatorError, match="stepping a halted emulator"):
        sim.run_cycles(5000)
    assert sim.cycle == 799
    assert [t.cursor.pos for t in sim.threads] == [163, 158]
    assert [len(t.rob) for t in sim.threads] == [33, 28]
    assert [t.last_data_addr for t in sim.threads] == [16777528, 16777520]


def test_halt_raises_in_functional_warmup_where_the_emulator_did():
    sim = _halting_sim()
    with pytest.raises(EmulatorError, match="stepping a halted emulator"):
        sim.functional_warmup(1000, chunk=100)
    assert [t.cursor.pos for t in sim.threads] == [163, 100]
    assert [t.fetch_pc for t in sim.threads] == [65552, 65552]
    assert [t.last_data_addr for t in sim.threads] == [16777528, 16777408]
    assert sim.predictor.histories[:2] == [2046, 2047]


def test_stream_error_is_raised_at_its_position_only():
    program = assemble(".text\n nop\n nop\n halt\n nop")
    stream = correct_path(program)
    assert stream.extend(1) == 3  # a batch stops at the halt
    assert isinstance(stream.error, EmulatorError)
    cursor = StreamCursor(program)
    assert [cursor.pop().pc for _ in range(3)] == [0x10000, 0x10004,
                                                    0x10008]
    for _ in range(2):
        with pytest.raises(EmulatorError, match="halted"):
            cursor.pop()
    assert cursor.pos == 3


# ----------------------------------------------------------------------
# Concurrency, forks, lifetime.
# ----------------------------------------------------------------------
def _reference(program, n):
    emulator = Emulator(program)
    return [(r.pc, r.next_pc, r.taken, r.eff_addr)
            for r in (emulator.step() for _ in range(n))]


def test_threads_extend_one_stream_and_read_the_producers_sequence():
    """More threads than CPUs, switching every microsecond, each reading
    its own cursor and so extending the one stream in turn: a lost or
    torn extension would misplace an entry."""
    program = generate_program(PROFILES["doduc"], seed=0)
    n = 6000
    want = _reference(program, n)
    n_threads = 4
    got = [None] * n_threads
    barrier = threading.Barrier(n_threads, timeout=60)

    def read(slot):
        cursor = StreamCursor(program)
        barrier.wait()
        got[slot] = [(r.pc, r.next_pc, r.taken, r.eff_addr)
                     for r in (cursor.pop() for _ in range(n))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read, args=(i,))
                   for i in range(n_threads)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert got == [want] * n_threads
    stream = correct_path(program)
    produced = _reference(program, stream.length)
    assert list(stream.addrs) == [ea for *_, ea in produced
                                  if ea is not None]
    assert len(stream.targets) == sum(
        1 for pc, next_pc, taken, ea in produced
        if ea is None and program.fetch(pc).is_control)


def test_an_extension_cut_short_is_rebuilt_by_the_next():
    """An exception (or a fork that leaves the extension to another
    thread, holding the lock) can stop an extension half done: the
    producer has stepped past the published length and the arrays hold
    entries beyond it.  The next extension rebuilds the stream, and a
    forked child gets a free lock."""
    program = generate_program(PROFILES["tex"], seed=0)
    stream = correct_path(program)
    stream.extend(1000)
    length = stream.length
    for _ in range(7):
        stream._producer.step()
    stream.addrs.append(12345)
    stream.targets.append(6789)
    stream._lock.acquire()  # held by a thread the fork leaves behind
    stream_mod._after_fork_in_child()
    assert stream.extend(length) == length  # published entries stand
    cursor = StreamCursor(program)
    got = [(r.pc, r.next_pc, r.taken, r.eff_addr)
           for r in (cursor.pop() for _ in range(length + 2000))]
    assert got == _reference(program, length + 2000)


def test_an_interrupt_during_an_extension_leaves_the_stream_exact(
        monkeypatch):
    """``KeyboardInterrupt`` lands after the first memory or control op
    from the 700th emulated instruction on is executed, but before its
    entry is recorded."""
    calls = [0]
    fired = []
    real = emulator_mod._make_handler

    def interrupting(*args):
        handler = real(*args)
        if handler is None:
            return None

        def interrupted(emu, _h=handler):
            entry = _h(emu)
            calls[0] += 1
            if calls[0] >= 700 and entry is not None and not fired:
                fired.append(calls[0])
                raise KeyboardInterrupt
            return entry
        return interrupted

    monkeypatch.setattr(emulator_mod, "_make_handler", interrupting)
    program = generate_program(PROFILES["xlisp"], seed=0)
    cursor = StreamCursor(program)
    got = []
    with pytest.raises(KeyboardInterrupt):
        for _ in range(3000):
            record = cursor.pop()
            got.append((record.pc, record.next_pc, record.taken,
                        record.eff_addr))
    for _ in range(3000):
        record = cursor.pop()
        got.append((record.pc, record.next_pc, record.taken,
                    record.eff_addr))
    assert got == _reference(program, len(got))


def test_stream_freed_with_its_program():
    program = generate_program(PROFILES["ora"], seed=0)
    cursor = StreamCursor(program)
    for _ in range(1000):
        cursor.pop()
    streams = len(stream_mod._STREAMS)
    program_ref = weakref.ref(program)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del cursor, program
        assert program_ref() is None
        assert len(stream_mod._STREAMS) == streams - 1
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Fetch still checks the cursor.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast", [True, False], ids=["fast", "step"])
def test_fetch_pc_off_the_cursor_trips_the_desync_assertion(fast):
    sim = Simulator(SMTConfig(n_threads=1),
                    [generate_program(PROFILES["alvinn"], seed=0)])
    sim.use_fast_step = fast
    sim.functional_warmup(1000)
    thread = sim.threads[0]
    assert thread.on_correct_path and thread.fetch_pc == thread.cursor.pc
    thread.fetch_pc += 4
    with pytest.raises(AssertionError, match="oracle desync"):
        sim.run_cycles(500)
