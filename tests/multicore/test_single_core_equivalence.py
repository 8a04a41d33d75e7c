"""MultiCoreSimulator with one core == the bare Simulator, bit for bit.

The multicore layer must not perturb the validated single-core machine:
``MultiCoreSimulator.static_partition`` at N=1 with a static allocator
must produce a ``SimResult`` identical to ``Simulator.run`` on the same
config and programs — with the fast-step loop both enabled and
disabled.
"""

import dataclasses

import pytest

from repro.core.config import SMTConfig
from repro.core.simulator import Simulator
from repro.multicore.machine import MultiCoreSimulator, build_core
from repro.workloads.mixes import standard_mix

RUN = dict(warmup_cycles=500, measure_cycles=3000,
           functional_warmup_instructions=8000)


def reference_result(config, programs, fast_step):
    sim = Simulator(config, programs)
    sim.use_fast_step = fast_step
    return sim.run(**RUN)


@pytest.mark.parametrize("fast_step", [True, False],
                         ids=["fast-step", "reference-step"])
@pytest.mark.parametrize("n_threads", [1, 2, 4])
def test_single_core_machine_is_bit_identical(n_threads, fast_step):
    config = SMTConfig(n_threads=n_threads)
    programs = standard_mix(n_threads, 0)

    machine = MultiCoreSimulator.static_partition(
        config, programs, n_cores=1, allocator_spec="ROUND_ROBIN",
    )
    assert machine.n_cores == 1
    for core in machine.cores:
        core.use_fast_step = fast_step
    results = machine.run(**RUN)

    expected = reference_result(config, programs, fast_step)
    assert len(results) == 1
    assert results[0] == expected  # SimResult is a plain dataclass


@pytest.mark.parametrize("allocator",
                         ["RANDOM", "ROUND_ROBIN", "LOAD", "PAIRING"])
def test_every_allocator_is_equivalent_at_one_core(allocator):
    """With one core there is no choice to make: every allocator must
    yield the same machine and the same result."""
    config = SMTConfig(n_threads=2)
    programs = standard_mix(2, 1)
    machine = MultiCoreSimulator.static_partition(
        config, programs, n_cores=1, allocator_spec=allocator, seed=9,
    )
    assert machine.run(**RUN)[0] == reference_result(config, programs, True)


def test_build_core_reuses_template_when_counts_match():
    """The identity-config path: a full core runs the exact template
    object, so no with_options copy can drift the configuration."""
    config = SMTConfig(n_threads=2)
    full = build_core(config, standard_mix(2, 0))
    assert full.cfg is config
    partial = build_core(config, standard_mix(1, 0))
    assert partial.cfg is not config
    assert partial.cfg.n_threads == 1
    assert dataclasses.asdict(partial.cfg) \
        == dataclasses.asdict(config.with_options(n_threads=1))


def test_two_core_partition_matches_two_bare_simulators():
    """ROUND_ROBIN over 2 cores x 1 context deals programs alternately;
    each core must match a standalone simulator on its share."""
    template = SMTConfig(n_threads=1)
    programs = standard_mix(2, 0)
    machine = MultiCoreSimulator.static_partition(
        template, programs, n_cores=2, allocator_spec="ROUND_ROBIN",
    )
    results = machine.run(**RUN)
    expected = [
        reference_result(template, [programs[0]], True),
        reference_result(template, [programs[1]], True),
    ]
    assert results == expected
