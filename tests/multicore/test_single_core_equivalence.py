"""One core of the multicore machine == the bare Simulator, bit for bit.

The multicore layer must not perturb the validated single-core machine:
a core built by ``build_core`` (the one constructor the open-system
driver uses) must produce a ``SimResult`` identical to ``Simulator.run``
on the same config and programs — with the fast-step loop both enabled
and disabled — and at one core the allocator can make no difference.
"""

import dataclasses
import functools

import pytest

from repro.core.config import SMTConfig
from repro.core.simulator import Simulator
from repro.multicore.driver import (
    ArrivalConfig,
    MulticoreRunSpec,
    OpenSystemDriver,
)
from repro.multicore.machine import build_core
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
    core = build_core(config, programs)
    core.use_fast_step = fast_step
    # SimResult is a plain dataclass.
    assert core.run(**RUN) == reference_result(config, programs, fast_step)


@functools.lru_cache(maxsize=None)
def one_core_run(allocator):
    """A one-core open-system run, without the allocator's name."""
    spec = MulticoreRunSpec(
        n_cores=1, allocator=allocator, config=SMTConfig(n_threads=2),
        quantum=150, max_cycles=20_000, seed=9,
        arrival=ArrivalConfig(jobs=4, rate_per_kcycle=2.0,
                              service_instructions=200, seed=9),
    )
    return dict(OpenSystemDriver(spec).run().to_dict(), allocator=None)


@pytest.mark.parametrize("allocator",
                         ["RANDOM", "ROUND_ROBIN", "LOAD", "PAIRING"])
def test_every_allocator_is_equivalent_at_one_core(allocator):
    """With one core there is no choice to make: every allocator must
    yield the same run."""
    assert one_core_run(allocator) == one_core_run("LOAD")


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
