"""The compiled emulator against its reference interpreter.

Every static instruction's handler is compiled on its first execution
(``emulator._make_handler``) and shared by every emulator of the
program.  Two properties hold that scheme in place:

* **Equivalence.**  Stepping through the compiled handlers and stepping
  through :meth:`Emulator._step_interpreted`, the semantic reference,
  give identical record streams and identical final architectural
  state on every workload program.
* **Laziness.**  Building an emulator compiles nothing; stepping
  compiles each PC it reaches exactly once; a second emulator of the
  same program reuses those handlers; and a program's table is freed
  with the program by reference counting alone.
"""

import gc
import weakref

import pytest

from repro.isa import emulator as emulator_mod
from repro.isa.emulator import Emulator
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import generate_program

EQUIVALENCE_STEPS = 20_000
LAZY_STEPS = 2_000


def _fields(record):
    return (record.seq, record.pc, record.instr, record.next_pc,
            record.taken, record.eff_addr)


def _records(step, n):
    return [_fields(step()) for _ in range(n)]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_compiled_matches_interpreter(name, seed):
    program = generate_program(PROFILES[name], seed=seed)
    compiled = Emulator(program)
    reference = Emulator(program)

    got = _records(compiled.step, EQUIVALENCE_STEPS)
    want = _records(reference._step_interpreted, EQUIVALENCE_STEPS)

    diverged = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), None
    )
    assert diverged is None, (
        f"record {diverged}: compiled {got[diverged]} != "
        f"interpreted {want[diverged]}"
    )
    assert compiled.pc == reference.pc
    assert compiled.instret == reference.instret == EQUIVALENCE_STEPS
    assert compiled.int_regs == reference.int_regs
    assert compiled.fp_regs == reference.fp_regs
    assert compiled._mem == reference._mem
    assert compiled._fmem == reference._fmem
    # The comparison is only meaningful if the compiled side really ran
    # compiled handlers: no executed slot fell back to the interpreter.
    assert emulator_mod._interpret not in compiled._handlers


@pytest.fixture
def make_handler_calls(monkeypatch):
    """The PCs ``_make_handler`` is asked to compile, in call order."""
    calls = []
    real = emulator_mod._make_handler

    def counting(instr, pc, *rest):
        calls.append(pc)
        return real(instr, pc, *rest)

    monkeypatch.setattr(emulator_mod, "_make_handler", counting)
    return calls


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_handlers_compile_on_first_execution(name, make_handler_calls):
    program = generate_program(PROFILES[name], seed=0)

    first = Emulator(program)
    assert make_handler_calls == []

    path = [first.step().pc for _ in range(LAZY_STEPS)]
    assert len(make_handler_calls) == len(set(make_handler_calls))
    assert set(make_handler_calls) == set(path)
    assert len(make_handler_calls) < len(program)

    compiled = len(make_handler_calls)
    second = Emulator(program)
    assert [second.step().pc for _ in range(LAZY_STEPS)] == path
    assert len(make_handler_calls) == compiled


def test_handler_table_freed_with_its_program():
    program = generate_program(PROFILES["espresso"], seed=0)
    emulator = Emulator(program)
    for _ in range(LAZY_STEPS):
        emulator.step()
    tables = len(emulator_mod._HANDLER_CACHE)
    program_ref = weakref.ref(program)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del emulator, program
        assert program_ref() is None
        assert len(emulator_mod._HANDLER_CACHE) == tables - 1
    finally:
        if enabled:
            gc.enable()
