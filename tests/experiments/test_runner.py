"""Tests for the experiment runner."""

import pytest

from repro.core.config import SMTConfig
from repro.experiments.runner import RunBudget, run_configs

TINY = RunBudget(warmup_cycles=100, measure_cycles=600,
                 functional_warmup_instructions=3000, rotations=2)


class TestRunBudget:
    def test_defaults(self):
        budget = RunBudget()
        assert budget.rotations >= 1
        assert budget.measure_cycles > budget.warmup_cycles

    def test_environment_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        budget = RunBudget.from_environment()
        assert budget.rotations == 1
        assert budget.measure_cycles <= 10000

    def test_environment_full(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        monkeypatch.setenv("REPRO_FULL", "1")
        budget = RunBudget.from_environment()
        assert budget.rotations >= 4


def _point(config):
    (point,) = run_configs([(None, config)], budget=TINY)
    return point


class TestRunConfig:
    def test_averages_rotations(self):
        point = _point(SMTConfig(n_threads=2))
        assert len(point.results) == 2
        assert point.ipc == pytest.approx(
            sum(r.ipc for r in point.results) / 2
        )

    def test_label_defaults_to_scheme(self):
        point = _point(SMTConfig(n_threads=1))
        assert point.label == "RR.1.8"

    def test_metric_helper(self):
        point = _point(SMTConfig(n_threads=1))
        assert 0 <= point.metric("wrong_path_fetched_frac") <= 1

    def test_cache_metric_helper(self):
        point = _point(SMTConfig(n_threads=1))
        assert 0 <= point.cache_metric("dcache", "miss_rate") <= 1


class TestSweep:
    def test_sweep_threads(self):
        points = run_configs(
            [(None, SMTConfig(n_threads=t)) for t in (1, 2)], budget=TINY,
        )
        assert [p.n_threads for p in points] == [1, 2]
