"""Tests for the synthetic benchmark generator."""

import hashlib
import json

import pytest

from repro.isa.emulator import Emulator
from repro.isa.program import DATA_BASE
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import (
    _AUX_CASETAB,
    _AUX_FLAGS,
    _N_FLAGS,
    generate_program,
)


@pytest.fixture(scope="module", params=sorted(PROFILES))
def generated(request):
    name = request.param
    return name, generate_program(PROFILES[name], seed=0)


#: SHA-256 of :func:`_canonical` over the eight seed-0 programs.  Any
#: change to the generator or the assembler that alters a program (an
#: instruction field, a data word, the data size, a symbol or the entry)
#: changes it, on every supported Python version.
SEED0_PROGRAMS_SHA256 = (
    "ea4ee47b0626d7b42550d18676b7c52f1f651db3bda7c94ca27697997f8f8c4c"
)


def _canonical(program):
    """Every value-bearing field of ``program``, as JSON-ready lists."""
    return {
        "instructions": [
            [i.opcode.name, i.rd, i.rs1, i.rs2, i.imm, i.target,
             int(i.rd_file), int(i.rs1_file), int(i.rs2_file)]
            for i in program.instructions
        ],
        "words": sorted(program.data.words.items()),
        "size": program.data.size,
        "symbols": sorted(program.symbols.items()),
        "entry": program.entry,
    }


class TestGeneration:
    def test_deterministic(self):
        a = generate_program(PROFILES["espresso"], seed=3)
        b = generate_program(PROFILES["espresso"], seed=3)
        assert a.instructions == b.instructions
        assert a.data.words == b.data.words
        assert a.data.size == b.data.size
        assert a.symbols == b.symbols

    def test_seed0_programs_pinned(self):
        doc = {name: _canonical(generate_program(PROFILES[name], seed=0))
               for name in sorted(PROFILES)}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            SEED0_PROGRAMS_SHA256

    def test_seeds_differ(self):
        a = generate_program(PROFILES["espresso"], seed=0)
        b = generate_program(PROFILES["espresso"], seed=1)
        assert any(str(x) != str(y) for x, y in
                   zip(a.instructions, b.instructions))

    def test_text_size_near_target(self, generated):
        name, program = generated
        target = PROFILES[name].text_instructions
        assert 0.8 * target <= len(program) <= 2.0 * target

    def test_runs_long_without_halting(self, generated):
        _, program = generated
        emulator = Emulator(program)
        emulator.run(max_instructions=30000)
        assert emulator.instret == 30000
        assert not emulator.halted


class TestDynamicCharacter:
    @pytest.fixture(scope="class")
    def traces(self):
        out = {}
        for name, profile in PROFILES.items():
            emulator = Emulator(generate_program(profile, seed=0))
            counts = dict(cond=0, taken=0, mem=0, fp=0, calls=0, indirect=0)
            n = 30000
            for _ in range(n):
                record = emulator.step()
                instr = record.instr
                if instr.is_cond_branch:
                    counts["cond"] += 1
                    counts["taken"] += record.taken
                if instr.is_mem:
                    counts["mem"] += 1
                if instr.is_fp:
                    counts["fp"] += 1
                if instr.is_call:
                    counts["calls"] += 1
                if instr.is_indirect:
                    counts["indirect"] += 1
            counts["n"] = n
            out[name] = counts
        return out

    def test_branch_frequencies_realistic(self, traces):
        for name, c in traces.items():
            freq = c["cond"] / c["n"]
            if name == "fpppp":
                assert freq < 0.06   # famous straight-line code
            else:
                assert 0.04 < freq < 0.30, f"{name}: {freq}"

    def test_memory_frequencies(self, traces):
        for name, c in traces.items():
            freq = c["mem"] / c["n"]
            assert 0.05 < freq < 0.45, f"{name}: {freq}"

    def test_fp_presence_matches_profile(self, traces):
        for name, c in traces.items():
            if PROFILES[name].frac_fp > 0:
                assert c["fp"] / c["n"] > 0.08, name
            else:
                assert c["fp"] == 0, name

    def test_calls_and_returns_present(self, traces):
        for name, c in traces.items():
            assert c["calls"] > 0, name

    def test_taken_fraction_realistic(self, traces):
        for name, c in traces.items():
            if c["cond"]:
                taken = c["taken"] / c["cond"]
                assert 0.35 < taken < 0.99, f"{name}: {taken}"


class TestDataInitialisation:
    def test_flags_bias(self):
        profile = PROFILES["espresso"]
        program = generate_program(profile, seed=0)
        aux = DATA_BASE + profile.working_set
        bits = [
            program.data.words[aux + _AUX_FLAGS + 8 * i] & 1
            for i in range(_N_FLAGS)
        ]
        observed = sum(bits) / len(bits)
        # 128 samples of a persistent Markov chain have high
        # variance; the check is a coarse sanity bound.
        assert abs(observed - profile.data_branch_bias) < 0.2

    def test_flags_persistence(self):
        profile = PROFILES["alvinn"]  # persistence 0.92
        program = generate_program(profile, seed=0)
        aux = DATA_BASE + profile.working_set
        bits = [
            program.data.words[aux + _AUX_FLAGS + 8 * i] & 1
            for i in range(_N_FLAGS)
        ]
        same = sum(a == b for a, b in zip(bits, bits[1:]))
        assert same / (len(bits) - 1) > 0.75

    def test_case_table_points_at_case_labels(self):
        profile = PROFILES["espresso"]
        program = generate_program(profile, seed=0)
        aux = DATA_BASE + profile.working_set
        target = program.data.words[aux + _AUX_CASETAB]
        assert program.symbols["case_0_0"] == target
        assert program.in_text(target)

    def test_chase_permutation_is_one_cycle(self):
        profile = PROFILES["xlisp"]
        program = generate_program(profile, seed=0)
        n_nodes = profile.working_set // 16
        seen = set()
        node = DATA_BASE
        for _ in range(n_nodes):
            assert node not in seen, "chase chain revisits a node early"
            seen.add(node)
            node = program.data.words[node]
        assert node == DATA_BASE  # full cycle
        assert len(seen) == n_nodes

    def test_cursor_phases_within_hot_region(self):
        for name, profile in PROFILES.items():
            program = generate_program(profile, seed=0)
            aux = DATA_BASE + profile.working_set
            for k in range(profile.procedures):
                phase = program.data.words.get(aux + 8 * k, 0)
                assert phase < profile.hot_region + 8
