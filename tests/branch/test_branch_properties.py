"""Property-based tests for the branch-prediction substrate."""

from hypothesis import given, settings, strategies as st

from repro.branch.btb import BranchTargetBuffer
from repro.branch.pht import PatternHistoryTable
from repro.branch.ras import ReturnAddressStack


# ----------------------------------------------------------------------
# BTB vs a reference model with per-set LRU.
# ----------------------------------------------------------------------
@given(st.lists(
    st.tuples(st.integers(0, 1),      # thread
              st.integers(0, 15),     # pc index
              st.integers(0, 1),      # op: 0 insert, 1 lookup
              st.integers(0, 7)),     # target id
    max_size=120,
))
@settings(max_examples=60, deadline=None)
def test_btb_matches_reference_lru(ops):
    btb = BranchTargetBuffer(entries=8, assoc=2, tag_thread=True)
    # Reference: per-set ordered dict of (tid, pc) -> target.
    reference = [dict() for _ in range(btb.n_sets)]

    def ref_set(pc):
        return (pc >> 2) % btb.n_sets

    for tid, pci, op, target in ops:
        pc = 0x10000 + 4 * pci
        s = reference[ref_set(pc)]
        key = (tid, pc)
        if op == 0:
            if key in s:
                del s[key]
            elif len(s) >= 2:
                del s[next(iter(s))]  # evict LRU (insertion order)
            s[key] = target
            btb.insert(tid, pc, target)
        else:
            expected = s.get(key)
            if expected is not None:
                s[key] = s.pop(key)  # touch
            assert btb.lookup(tid, pc) == expected


# ----------------------------------------------------------------------
# PHT counters always stay saturated in [0, 3]; prediction is monotone
# in training.
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=300))
@settings(max_examples=50, deadline=None)
def test_pht_counters_bounded(updates):
    pht = PatternHistoryTable(entries=64, history_bits=4)
    history = 0
    for pci, taken in updates:
        pht.update(0x10000 + 4 * pci, history, taken)
        history = pht.push_history(history, taken)
        assert 0 <= history <= pht.history_mask
    assert all(0 <= v <= 3 for v in pht.table)


@given(st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_pht_learns_constant_direction(n_training):
    pht = PatternHistoryTable()
    for _ in range(n_training):
        pht.update(0x10000, 0, True)
    if n_training >= 2:
        assert pht.predict(0x10000, 0)


# ----------------------------------------------------------------------
# RAS checkpoint/restore is idempotent and never corrupts entries the
# speculation didn't touch.
# ----------------------------------------------------------------------
@given(st.lists(st.integers(1, 10), min_size=1, max_size=8),
       st.lists(st.integers(1, 5), max_size=6))
@settings(max_examples=60, deadline=None)
def test_ras_restore_protects_untouched_entries(real_pushes, spec_pushes):
    ras = ReturnAddressStack(depth=12)
    for value in real_pushes:
        ras.push(value * 4)
    checkpoint = ras.checkpoint()
    for value in spec_pushes:
        ras.push(1000 + value)
    ras.restore(checkpoint)
    # Popping must reproduce the real pushes in reverse, as long as the
    # speculative depth never wrapped over them.
    if len(real_pushes) + len(spec_pushes) <= 12:
        for value in reversed(real_pushes):
            assert ras.pop() == value * 4


# ----------------------------------------------------------------------
# BranchPredictor.warm is one inlined body; it must leave every table
# exactly as the component methods it replaces would.
# ----------------------------------------------------------------------
def _warm_by_components(bp, tid, pc, instr, taken, next_pc):
    hidx = 0 if bp.shared_history else tid
    if instr.is_cond_branch:
        history = bp.histories[hidx]
        bp.pht.update(pc, history, taken)
        bp.histories[hidx] = bp.pht.push_history(history, taken)
    if instr.is_call:
        bp.ras[tid].push(pc + 4)
    elif instr.is_return:
        bp.ras[tid].pop()
    if taken and not instr.is_return:
        bp.btb.insert(tid, pc, next_pc)


def _predictor_state(bp):
    return (list(bp.pht.table), list(bp.histories),
            [list(ways) for ways in bp.btb._sets],
            [(ras.top, list(ras._buf)) for ras in bp.ras])


@given(st.lists(
    st.tuples(st.integers(0, 1),      # thread
              st.integers(0, 40),     # pc index
              st.integers(0, 4),      # kind: beqz, j, jal, jr, ret
              st.booleans(),          # taken (conditional branches)
              st.integers(0, 40)),    # target index
    max_size=150,
), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_warm_matches_component_updates(events, shared, tagged):
    from repro.branch.predictor import BranchPredictor
    from repro.isa.instructions import Instruction, Opcode

    kinds = [
        Instruction(Opcode.BEQZ, rs1=1, target=0x10000),
        Instruction(Opcode.J, target=0x10000),
        Instruction(Opcode.JAL, rd=31, target=0x10000),
        Instruction(Opcode.JR, rs1=9),
        Instruction(Opcode.RET, rs1=31),
    ]
    made = [BranchPredictor(2, btb_entries=8, btb_assoc=2, pht_entries=64,
                            history_bits=4, ras_depth=3, tag_thread=tagged,
                            shared_history=shared) for _ in range(2)]
    inlined, reference = made
    for tid, pci, kind, taken, ti in events:
        instr = kinds[kind]
        taken = taken if instr.is_cond_branch else True
        pc, next_pc = 0x10000 + 4 * pci, 0x10000 + 4 * ti
        inlined.warm(tid, pc, instr, taken, next_pc)
        _warm_by_components(reference, tid, pc, instr, taken, next_pc)
        assert _predictor_state(inlined) == _predictor_state(reference)
