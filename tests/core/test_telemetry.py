"""Tests for the interval telemetry sampler."""

import pytest

from repro.core.config import scheme
from repro.core.simulator import Simulator
from repro.core.telemetry import TelemetrySample, TelemetrySampler
from repro.workloads.mixes import standard_mix

from tests.core.test_pipeline_timing import make_sim

LOOP = """
.text
_start:
    addi r1, r0, 1
loop:
    addi r2, r2, 1
    addi r3, r3, 1
    beqz r0, loop
"""


def stepped_sim(cycles=0, source=LOOP):
    sim = make_sim(source)
    for _ in range(cycles):
        sim.step()
    return sim


class TestSampling:
    def test_intervals_tile_the_run(self):
        sim = stepped_sim()
        sampler = TelemetrySampler(sim, interval=25)
        sim.run_cycles(100)
        assert len(sampler.samples) == 4
        assert [s.cycle_start for s in sampler.samples] == [0, 25, 50, 75]
        assert all(s.cycles == 25 for s in sampler.samples)

    def test_commit_counts_match_listener_truth(self):
        sim = stepped_sim()
        commits = []
        sim.commit_listener = commits.append
        sampler = TelemetrySampler(sim, interval=20)
        sim.run_cycles(100)
        sampler.finish()
        assert sum(s.committed for s in sampler.samples) == len(commits)
        # The chained listener still saw every commit.
        assert commits

    def test_fetched_counts_match_sequence_numbers(self):
        sim = stepped_sim()
        sampler = TelemetrySampler(sim, interval=30)
        sim.run_cycles(90)
        fetched = sum(s.fetched for s in sampler.samples)
        assert fetched == sim.threads[0].next_seq
        assert fetched > 0

    def test_icount_and_queue_population_sampled(self):
        sim = stepped_sim()
        sampler = TelemetrySampler(sim, interval=10)
        sim.run_cycles(60)
        sample = sampler.samples[-1]
        assert len(sample.icount) == 1
        assert sample.int_iq >= 0 and sample.fp_iq >= 0
        # The loop keeps the machine busy: some interval holds work.
        assert any(s.int_iq > 0 or s.icount[0] > 0 for s in sampler.samples)

    def test_fetch_share_sums_to_one_when_fetching(self):
        config = scheme("ICOUNT", 2, 8, n_threads=2)
        sim = Simulator(config, standard_mix(2, 0))
        sampler = TelemetrySampler(sim, interval=50)
        sim.run_cycles(200)
        for sample in sampler.samples:
            assert len(sample.fetched_per_thread) == 2
            if sample.fetched:
                assert sum(sample.fetch_share) == pytest.approx(1.0)

    def test_finish_closes_partial_interval(self):
        sim = stepped_sim()
        sampler = TelemetrySampler(sim, interval=1000)
        sim.run_cycles(37)
        assert sampler.samples == []
        sampler.finish()
        assert len(sampler.samples) == 1
        assert sampler.samples[0].cycle_end == 37

    def test_measuring_flag_tracks_stats_window(self):
        config = scheme("ICOUNT", 2, 8, n_threads=1)
        sim = Simulator(config, standard_mix(1, 0))
        sampler = TelemetrySampler(sim, interval=100)
        sim.run(warmup_cycles=200, measure_cycles=400,
                functional_warmup_instructions=2000)
        sampler.finish()
        flags = [s.measuring for s in sampler.samples]
        assert False in flags and True in flags
        assert sampler.measured() == [
            s for s in sampler.samples if s.measuring
        ]
        # Issued deltas survive the stats reset at the window edge.
        assert all(s.issued >= 0 for s in sampler.samples)
        assert sum(s.issued for s in sampler.measured()) > 0

    def test_step_alone_never_samples(self):
        """Sampling belongs to ``run_cycles``, on either loop."""
        sim = stepped_sim()
        sampler = TelemetrySampler(sim, interval=10)
        for _ in range(30):
            sim.step()
        assert sampler.samples == []
        sim.run_cycles(1)   # an edge already passed closes at once
        assert [(s.cycle_start, s.cycle_end)
                for s in sampler.samples] == [(0, 31)]

    def test_max_samples_cap(self):
        sim = stepped_sim()
        sampler = TelemetrySampler(sim, interval=1, max_samples=5)
        sim.run_cycles(50)
        assert len(sampler.samples) == 5

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySampler(stepped_sim(), interval=0)


class TestAttachDetach:
    def test_detached_simulator_has_no_hook(self):
        sim = stepped_sim()
        assert sim.telemetry is None
        sampler = TelemetrySampler(sim, interval=10)
        assert sim.telemetry is sampler
        sampler.detach()
        assert sim.telemetry is None

    def test_detach_restores_commit_listener(self):
        sim = stepped_sim()
        sentinel = []
        sim.commit_listener = sentinel.append
        sampler = TelemetrySampler(sim, interval=10)
        sampler.detach()
        assert sim.commit_listener is not None
        sim.run_cycles(40)
        assert sentinel  # original listener survived the round trip
        assert sampler.samples == []  # detached: no further sampling

    def test_double_attach_rejected(self):
        sim = stepped_sim()
        TelemetrySampler(sim, interval=10)
        with pytest.raises(RuntimeError):
            TelemetrySampler(sim, interval=10)

    def test_no_sampling_after_detach_mid_run(self):
        sim = stepped_sim()
        sampler = TelemetrySampler(sim, interval=10)
        sim.run_cycles(30)
        sampler.detach()
        count = len(sampler.samples)
        sim.run_cycles(30)
        assert len(sampler.samples) == count


class TestSerialisation:
    def test_to_rows_round_trip_fields(self):
        sim = stepped_sim()
        sampler = TelemetrySampler(sim, interval=20)
        sim.run_cycles(60)
        rows = sampler.to_rows()
        assert len(rows) == len(sampler.samples)
        row = rows[0]
        for key in ("cycle_start", "cycle_end", "measuring", "icount",
                    "int_iq", "fp_iq", "outstanding_misses", "fetched",
                    "fetched_per_thread", "fetch_share", "issued",
                    "committed", "committed_per_thread", "ipc"):
            assert key in row

    def test_sample_ipc(self):
        sample = TelemetrySample(
            cycle_start=0, cycle_end=100, measuring=True, icount=[3],
            int_iq=5, fp_iq=0, outstanding_misses=0, fetched=200,
            fetched_per_thread=[200], issued=150, committed=120,
            committed_per_thread=[120],
        )
        assert sample.ipc == pytest.approx(1.2)
        assert sample.fetch_share == [1.0]

    def test_report_renders(self):
        sim = stepped_sim()
        sampler = TelemetrySampler(sim, interval=20)
        sim.run_cycles(60)
        text = sampler.report()
        assert "IPC" in text and "icount" in text
        assert TelemetrySampler(stepped_sim(), interval=5,
                                autostart=False).report().endswith(
            "(no samples)")
