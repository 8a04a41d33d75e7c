"""Uniform semantics of the ``REPRO_*`` environment knobs.

The truth table every boolean knob must obey: unset, ``""``, ``"0"``,
``"false"``, ``"no"``, ``"off"`` all behave as **unset**; ``"1"``,
``"true"``, ``"yes"`` (and any other non-false token) mean **set**.
Historically ``REPRO_NO_CACHE=0`` disabled the cache and
``REPRO_CHECK_INVARIANTS=0`` enabled checking; these tests pin the fix.
"""

import pytest

from repro.envutil import BOOLEAN_KNOBS, env_flag, env_str

UNSET_VALUES = ["", "0", "false", "False", "FALSE", "no", "off", " 0 "]
SET_VALUES = ["1", "true", "True", "yes", "on", "2", "anything"]


class TestEnvFlag:
    @pytest.mark.parametrize("name", BOOLEAN_KNOBS)
    @pytest.mark.parametrize("value", UNSET_VALUES)
    def test_false_tokens_behave_as_unset(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        assert env_flag(name) is False

    @pytest.mark.parametrize("name", BOOLEAN_KNOBS)
    @pytest.mark.parametrize("value", SET_VALUES)
    def test_truthy_tokens_set_the_flag(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        assert env_flag(name) is True

    @pytest.mark.parametrize("name", BOOLEAN_KNOBS)
    def test_missing_variable_is_unset(self, monkeypatch, name):
        monkeypatch.delenv(name, raising=False)
        assert env_flag(name) is False

    def test_default_applies_to_unset_and_false_tokens(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG", default=True) is True
        monkeypatch.setenv("REPRO_TEST_FLAG", "0")
        assert env_flag("REPRO_TEST_FLAG", default=True) is True
        monkeypatch.setenv("REPRO_TEST_FLAG", "1")
        assert env_flag("REPRO_TEST_FLAG", default=True) is True

    def test_explicit_environ_mapping(self):
        assert env_flag("X", environ={"X": "1"}) is True
        assert env_flag("X", environ={"X": "0"}) is False
        assert env_flag("X", environ={}) is False


class TestEnvStr:
    def test_unset_and_whitespace_return_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_STR", raising=False)
        assert env_str("REPRO_TEST_STR") is None
        monkeypatch.setenv("REPRO_TEST_STR", "   ")
        assert env_str("REPRO_TEST_STR", "fallback") == "fallback"

    def test_strips_surrounding_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_STR", "  secret  ")
        assert env_str("REPRO_TEST_STR") == "secret"

    def test_serve_token_knob_routes_through(self, monkeypatch):
        from repro.service.server import default_token
        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        assert default_token() is None
        monkeypatch.setenv("REPRO_SERVE_TOKEN", "hunter2")
        assert default_token() == "hunter2"


class TestKnobsRouteThroughEnvFlag:
    """End-to-end: the acceptance-criteria knobs all treat '0' as unset."""

    def test_no_cache_zero_keeps_cache_enabled(self, monkeypatch):
        from repro.experiments.cache import cache_enabled_by_default
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert cache_enabled_by_default() is True
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_enabled_by_default() is False

    def test_check_invariants_zero_stays_off(self, monkeypatch):
        from repro.experiments import parallel
        parallel.configure(check_invariants=None)
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert parallel.default_check_invariants() is False
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert parallel.default_check_invariants() is True

    def test_budget_env_zero_behaves_as_unset(self, monkeypatch):
        from repro.experiments.runner import RunBudget
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_FAST", "0")
        assert RunBudget.from_environment() == RunBudget()
        monkeypatch.setenv("REPRO_FAST", "1")
        assert RunBudget.from_environment().rotations == 1
