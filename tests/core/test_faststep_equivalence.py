"""Fast-step loop vs reference loop: bit-identical ``SimResult``s.

The specialized loop in :mod:`repro.core.faststep` is a transcription
of :meth:`Simulator.step`, not a re-derivation — every run here must
produce a ``SimResult`` *equal on every field* to the reference path,
across thread counts, all six static fetch policies, an adaptive
meta-policy, and with the cycle-granular observers (sanitizer,
telemetry) attached, which force the reference loop but must not change
the simulated outcome.
"""

import dataclasses

import pytest

from repro.core.config import scheme
from repro.core.simulator import Simulator
from repro.core.telemetry import TelemetrySampler
from repro.verify.sanitizer import PipelineSanitizer
from repro.workloads.mixes import standard_mix

BUDGET = dict(warmup_cycles=200, measure_cycles=1200,
              functional_warmup_instructions=6000)

STATIC_POLICIES = ["ICOUNT", "RR", "BRCOUNT", "MISSCOUNT", "IQPOSN",
                   "ICOUNT_BRCOUNT"]
META_POLICY = "HYSTERESIS"
THREAD_COUNTS = [1, 4, 8]


def _run(config, fast, observers=False):
    sim = Simulator(config, standard_mix(config.n_threads, 0))
    sim.use_fast_step = fast
    if observers:
        PipelineSanitizer(sim)
        TelemetrySampler(sim, interval=200)
    return sim.run(**BUDGET)


def _fields(result):
    return dataclasses.asdict(result)


@pytest.mark.parametrize("n_threads", THREAD_COUNTS)
@pytest.mark.parametrize("policy", STATIC_POLICIES + [META_POLICY])
def test_fast_path_bit_identical(policy, n_threads):
    config = scheme(policy, 2, 8, n_threads=n_threads)
    fast = _run(config, fast=True)
    reference = _run(config, fast=False)
    assert _fields(fast) == _fields(reference)


@pytest.mark.parametrize("n_threads", THREAD_COUNTS)
def test_observers_force_reference_without_changing_results(n_threads):
    """Sanitizer + telemetry suppress the fast loop (they need per-cycle
    hooks); the observed run must still equal both bare paths."""
    config = scheme("ICOUNT", 2, 8, n_threads=n_threads)
    observed = _run(config, fast=True, observers=True)
    bare_fast = _run(config, fast=True)
    bare_reference = _run(config, fast=False)
    assert _fields(observed) == _fields(bare_fast) == _fields(bare_reference)


@pytest.mark.parametrize("variant", ["itag", "bigq"])
def test_fast_path_bit_identical_variants(variant):
    """The queue/fetch variants exercise distinct fast-loop branches."""
    config = scheme("ICOUNT", 2, 8, n_threads=8, **{variant: True})
    assert _fields(_run(config, True)) == _fields(_run(config, False))
