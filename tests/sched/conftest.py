"""Shared fixtures for the scheduler test suite.

Real simulations are expensive; the scheduler is not about simulation.
``tiny_results`` runs each distinct tiny spec exactly once per session
and every test's stub ``run_fn`` serves from that memo — workers and
campaigns then exercise the full journal/lease/recovery machinery with
authentic ``SimResult`` payloads at zero marginal simulation cost.
"""

import pytest

from repro.core.config import SMTConfig
from repro.experiments.parallel import RunSpec, run_spec
from repro.experiments.runner import RunBudget

TINY = RunBudget(warmup_cycles=50, measure_cycles=200,
                 functional_warmup_instructions=1000, rotations=1)


def tiny_spec(rotation: int = 0, n_threads: int = 1) -> RunSpec:
    return RunSpec(config=SMTConfig(n_threads=n_threads),
                   rotation=rotation, budget=TINY)


@pytest.fixture(scope="session")
def tiny_specs():
    return [tiny_spec(rotation=r) for r in range(3)]


@pytest.fixture(scope="session")
def tiny_results(tiny_specs):
    return {spec.key(): run_spec(spec) for spec in tiny_specs}


@pytest.fixture(scope="session")
def stub_run_fn(tiny_results):
    def run(spec, watchdog=None):
        return tiny_results[spec.key()]

    return run
