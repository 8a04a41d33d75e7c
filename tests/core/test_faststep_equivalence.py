"""Fast-step loop vs reference loop: bit-identical ``SimResult``s.

The specialized loop in :mod:`repro.core.faststep` is a transcription
of :meth:`Simulator.step`, not a re-derivation — every run here must
produce a ``SimResult`` *equal on every field* to the reference path,
across thread counts, all six static fetch policies, an adaptive
meta-policy, the issue-stage axes the fast loop's readiness prefilter
must respect, and with observers attached: the sanitizer forces the
reference loop, telemetry samples on either loop, and neither may change
the simulated outcome.  Telemetry rows must match between the loops too.
"""

import dataclasses

import pytest

from repro.core.config import ISSUE_POLICIES, SPECULATION_MODES, scheme
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
    """The sanitizer suppresses the fast loop (it needs a per-cycle
    hook); the observed run, telemetry attached as well, must still
    equal both bare paths."""
    config = scheme("ICOUNT", 2, 8, n_threads=n_threads)
    observed = _run(config, fast=True, observers=True)
    bare_fast = _run(config, fast=True)
    bare_reference = _run(config, fast=False)
    assert _fields(observed) == _fields(bare_fast) == _fields(bare_reference)


@pytest.mark.parametrize("policy,n_threads,interval", [
    ("ICOUNT", 4, 200), ("RR", 8, 100), (META_POLICY, 2, 37),
])
def test_telemetry_rows_match_between_loops(policy, n_threads, interval):
    """``run_cycles`` samples at the same interval edges on both loops:
    the rows, the result and the policy's telemetry are equal."""
    config = scheme(policy, 2, 8, n_threads=n_threads)
    observed = []
    for fast in (True, False):
        sim = Simulator(config, standard_mix(n_threads, 0))
        sim.use_fast_step = fast
        sampler = TelemetrySampler(sim, interval=interval)
        result = sim.run(**BUDGET)
        sampler.finish()
        observed.append((_fields(result), sampler.to_rows(),
                         sim.policy_engine.telemetry()))
    assert len(observed[0][1]) >= 1400 // interval
    assert observed[0] == observed[1]


@pytest.mark.parametrize("variant", ["itag", "bigq"])
def test_fast_path_bit_identical_variants(variant):
    """The queue/fetch variants exercise distinct fast-loop branches."""
    config = scheme("ICOUNT", 2, 8, n_threads=8, **{variant: True})
    assert _fields(_run(config, True)) == _fields(_run(config, False))


#: Issue-stage options: the priority order the walk sorts by, the
#: speculation checks after readiness, unlimited units, and conservative
#: load wakeups (no optimistic squash).
ISSUE_AXES = (
    [{"issue_policy": policy} for policy in ISSUE_POLICIES]
    + [{"speculation": mode} for mode in SPECULATION_MODES]
    + [{"infinite_fus": True}, {"optimistic_issue": False}]
)


@pytest.mark.parametrize("n_threads", [1, 8])
@pytest.mark.parametrize(
    "options", ISSUE_AXES,
    ids=["-".join(f"{k}={v}" for k, v in o.items()) for o in ISSUE_AXES])
def test_fast_path_bit_identical_issue_axes(options, n_threads):
    """The fast loop drops a waiting uop before the priority sort unless
    each source is ready or produced by a queued latency-0 op; on every
    issue axis that must leave the issued set unchanged."""
    config = scheme("ICOUNT", 2, 8, n_threads=n_threads, **options)
    assert _fields(_run(config, True)) == _fields(_run(config, False))
