"""Worker idle polling: seeded jitter + capped exponential backoff."""

import random
import zlib

import pytest

from repro.sched.worker import (
    DEFAULT_POLL_INTERVAL,
    MAX_IDLE_BACKOFF,
    Worker,
    idle_delay,
)


class TestIdleDelay:
    def test_backoff_doubles_and_caps(self):
        rng = random.Random(0)
        # strip jitter by sampling many times and checking the band
        for scans, scale in [(1, 1), (2, 2), (3, 4), (4, 8), (5, 16),
                             (6, 16), (50, 16)]:
            assert scale <= MAX_IDLE_BACKOFF
            delay = idle_delay(0.5, scans, rng)
            assert 0.5 * scale * 0.75 <= delay <= 0.5 * scale * 1.25

    def test_zero_scans_behaves_like_base(self):
        delay = idle_delay(0.5, 0, random.Random(0))
        assert 0.5 * 0.75 <= delay <= 0.5 * 1.25

    def test_jitter_varies_between_draws(self):
        rng = random.Random(7)
        draws = {idle_delay(0.5, 1, rng) for _ in range(16)}
        assert len(draws) > 1


class TestWorkerIntegration:
    def test_jitter_is_seeded_per_worker_id(self, tmp_path):
        directory = str(tmp_path / "camp")

        def first_draws(worker_id):
            worker = Worker(directory, cache=object(),
                            worker_id=worker_id, poll_interval=0.5)
            return [worker._jitter.random() for _ in range(4)]

        # same id -> same jitter stream (reproducible chaos runs);
        # different ids -> different streams (no lockstep polling)
        assert first_draws("w0") == first_draws("w0")
        assert first_draws("w0") != first_draws("w1")
        expected = random.Random(zlib.crc32(b"w0")).random()
        assert first_draws("w0")[0] == pytest.approx(expected)

    def test_default_poll_interval(self, tmp_path):
        worker = Worker(str(tmp_path / "camp"), cache=object(),
                        worker_id="w0")
        assert worker.poll_interval == DEFAULT_POLL_INTERVAL

    def test_idle_scans_reset_when_work_appears(self, tmp_path,
                                                monkeypatch,
                                                stub_run_fn):
        """An idle worker that finally claims work drops back to the
        base poll interval."""
        from repro.sched.campaign import CampaignConfig, submit_specs

        from tests.sched.conftest import tiny_spec

        directory = str(tmp_path / "camp")
        submit_specs(directory, [tiny_spec(0)],
                     CampaignConfig(name="reset"))
        worker = Worker(directory, worker_id="w0", run_fn=stub_run_fn,
                        poll_interval=0.01)
        worker._idle_scans = 9  # pretend it has been idle a long time
        assert worker.serve(drain=True, install_signals=False) == 1
        assert worker._idle_scans == 0
