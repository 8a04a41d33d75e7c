"""The combined branch-prediction front end used by the fetch unit.

Pulls together the BTB, the gshare PHT, and the per-context return
stacks, and encodes the *timing* consequences of each prediction case:

``redirect_at_fetch``
    predicted-taken with a BTB/RAS-supplied target: the next fetch cycle
    can follow the target (no bubble beyond the taken-branch fetch-block
    break).
``redirect_at_decode``
    predicted-taken *direct* branch whose target missed in the BTB: the
    decoder computes the target, costing the paper's 2-cycle misfetch
    penalty.
``resolve_at_exec``
    indirect jump with no BTB entry: nothing can be predicted; the thread
    stalls until the jump executes (counted as a jump misprediction).

Direction histories are per hardware context by default (the ablation
``shared_history=True`` makes all contexts share one register, which
cross-pollutes and hurts, quantified in the ablation benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.branch.btb import BranchTargetBuffer
from repro.branch.pht import PatternHistoryTable
from repro.branch.ras import ReturnAddressStack
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import INSTR_BYTES


@dataclass(slots=True)
class Prediction:
    """The front end's decision for one control instruction."""

    taken: bool
    #: Predicted target address; None when no target source existed.
    target: Optional[int]
    #: True if the (direct) target is only available at decode (misfetch).
    redirect_at_decode: bool = False
    #: True if no prediction was possible (indirect, no BTB entry); the
    #: thread cannot fetch past this instruction until it executes.
    resolve_at_exec: bool = False
    #: PHT history in effect when the direction was predicted (for the
    #: resolution-time PHT update and squash recovery).
    history_before: int = 0
    #: RAS checkpoint taken before any speculative push/pop.
    ras_checkpoint: int = 0


class BranchPredictor:
    """BTB + gshare PHT + per-context return stacks."""

    def __init__(
        self,
        n_threads: int,
        btb_entries: int = 256,
        btb_assoc: int = 4,
        pht_entries: int = 2048,
        history_bits: int = 11,
        ras_depth: int = 12,
        tag_thread: bool = True,
        shared_history: bool = False,
        perfect: bool = False,
    ):
        self.n_threads = n_threads
        self.btb = BranchTargetBuffer(btb_entries, btb_assoc, tag_thread)
        self.pht = PatternHistoryTable(pht_entries, history_bits)
        self.ras = [ReturnAddressStack(ras_depth) for _ in range(n_threads)]
        self.histories = [0] * n_threads
        self.shared_history = shared_history
        #: Perfect prediction (a Section 7 bottleneck experiment): the
        #: fetch unit supplies the oracle outcome and the front end
        #: simply confirms it.
        self.perfect = perfect

    # ------------------------------------------------------------------
    def _hist_index(self, tid: int) -> int:
        return 0 if self.shared_history else tid

    def history_of(self, tid: int) -> int:
        return self.histories[self._hist_index(tid)]

    # ------------------------------------------------------------------
    def predict(
        self,
        tid: int,
        pc: int,
        instr: Instruction,
        oracle_taken: Optional[bool] = None,
        oracle_target: Optional[int] = None,
    ) -> Prediction:
        """Predict one control instruction at fetch time.

        Speculatively updates the direction history and the return stack;
        callers must use :meth:`recover` with the returned checkpoint
        fields when the speculation is squashed.

        ``oracle_taken``/``oracle_target`` are used only in perfect-
        prediction mode (and only for correct-path instructions).
        """
        hidx = 0 if self.shared_history else tid
        history = self.histories[hidx]
        ras = self.ras[tid]
        checkpoint = ras.top  # before any push or pop below
        taken = False
        target = None
        at_decode = at_exec = False

        if self.perfect and oracle_taken is not None:
            taken = oracle_taken
            target = oracle_target if oracle_taken else None
            if instr.is_cond_branch:
                self.histories[hidx] = self.pht.push_history(history, taken)
            if instr.is_call:
                ras.push(pc + INSTR_BYTES)
            elif instr.is_return:
                ras.pop()
        elif instr.is_cond_branch:
            # PatternHistoryTable.predict and push_history, inline.
            pht = self.pht
            taken = pht.table[((pc >> 2) ^ history) & pht.mask] >= 2
            self.histories[hidx] = (
                ((history << 1) | taken) & pht.history_mask
            )
            if taken:
                target = self.btb.lookup(tid, pc)
                if target is None:
                    # Direct target; decoder computes it next cycle.
                    target = instr.target
                    at_decode = True
        else:
            if instr.is_call:
                ras.push(pc + INSTR_BYTES)
            if instr.is_return:
                taken = True
                target = ras.pop()
                at_exec = target is None
            elif instr.is_indirect:  # jr (non-return indirect jump)
                taken = True
                target = self.btb.lookup(tid, pc)
                at_exec = target is None
            elif instr.is_jump:  # j / jal: direct, unconditional
                taken = True
                target = self.btb.lookup(tid, pc)
                if target is None:
                    target = instr.target
                    at_decode = True
            else:
                raise ValueError(
                    f"predict() called on non-control instruction {instr}"
                )
        return Prediction(taken, target, at_decode, at_exec, history,
                          checkpoint)

    # ------------------------------------------------------------------
    def warm(
        self,
        tid: int,
        pc: int,
        instr: Instruction,
        taken: bool,
        next_pc: int,
    ) -> None:
        """Functional (in-order, timing-free) training for warmup."""
        hidx = self._hist_index(tid)
        if instr.is_cond_branch:
            history = self.histories[hidx]
            self.pht.update(pc, history, taken)
            self.histories[hidx] = self.pht.push_history(history, taken)
        if instr.is_call:
            self.ras[tid].push(pc + INSTR_BYTES)
        elif instr.is_return:
            self.ras[tid].pop()
        if taken and not instr.is_return:
            self.btb.insert(tid, pc, next_pc)

    # ------------------------------------------------------------------
    def resolve(
        self,
        tid: int,
        pc: int,
        instr: Instruction,
        prediction: Prediction,
        actual_taken: bool,
        actual_target: Optional[int],
    ) -> None:
        """Train the predictor when a control instruction executes."""
        if instr.is_cond_branch:
            self.pht.update(pc, prediction.history_before, actual_taken)
        if actual_taken and actual_target is not None and not instr.is_return:
            self.btb.insert(tid, pc, actual_target)

    def recover(
        self,
        tid: int,
        pc: int,
        instr: Instruction,
        prediction: Prediction,
        actual_taken: bool,
    ) -> None:
        """Repair speculative state after this instruction mispredicted.

        Restores the return stack to its position before this instruction
        fetched, then replays the instruction's own architectural push or
        pop; rebuilds the history register with the branch's actual
        outcome (younger speculative history bits die with the squashed
        wrong-path instructions)."""
        ras = self.ras[tid]
        ras.restore(prediction.ras_checkpoint)
        if instr.is_call:
            ras.push(pc + INSTR_BYTES)
        elif instr.is_return:
            ras.pop()
        hidx = self._hist_index(tid)
        if instr.is_cond_branch:
            self.histories[hidx] = self.pht.push_history(
                prediction.history_before, actual_taken
            )
        else:
            self.histories[hidx] = prediction.history_before
