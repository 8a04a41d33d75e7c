"""Tests for the fetch-policy registry: spec grammar, validation and
construction."""

import pytest

from repro.core.config import SMTConfig
from repro.policy import (
    get_info,
    is_adaptive_spec,
    make_policy,
    meta_policy_names,
    parse_spec,
    policy_names,
    registry_entries,
    static_policy_names,
    validate_spec,
)


class TestRegistryContents:
    def test_all_paper_policies_registered(self):
        assert set(static_policy_names()) == {
            "RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN",
            "ICOUNT_BRCOUNT",
        }

    def test_meta_policies_registered(self):
        assert set(meta_policy_names()) == {
            "HYSTERESIS", "BANDIT", "TOURNAMENT",
        }

    def test_names_are_statics_then_metas(self):
        names = policy_names()
        kinds = [get_info(n).kind for n in names]
        assert kinds == sorted(kinds, key=lambda k: k != "static")

    def test_every_entry_has_a_summary(self):
        for info in registry_entries():
            assert info.summary
            assert info.kind in ("static", "meta")


class TestSpecParsing:
    def test_bare_name(self):
        assert parse_spec("ICOUNT") == ("ICOUNT", None, {})

    def test_options(self):
        name, arms, params = parse_spec("HYSTERESIS:interval=200,dwell=3")
        assert name == "HYSTERESIS"
        assert arms is None
        assert params == {"interval": "200", "dwell": "3"}

    def test_arms(self):
        name, arms, params = parse_spec("TOURNAMENT:ICOUNT/BRCOUNT")
        assert arms == ("ICOUNT", "BRCOUNT")
        assert params == {}

    def test_arms_and_options(self):
        name, arms, params = parse_spec("BANDIT:ICOUNT/RR:mode=ucb")
        assert arms == ("ICOUNT", "RR")
        assert params == {"mode": "ucb"}

    @pytest.mark.parametrize("bad", [
        "", "ICOUNT:", "HYSTERESIS:interval", "HYSTERESIS:=3",
        "HYSTERESIS:interval=1,interval=2",
        "BANDIT:ICOUNT/RR:MISSCOUNT/IQPOSN",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_spec(bad)


class TestConstruction:
    def test_unknown_name_lists_valid_policies(self):
        with pytest.raises(ValueError, match="valid policies"):
            make_policy("MAGIC")

    def test_unknown_option_lists_valid_options(self):
        with pytest.raises(ValueError, match="valid options"):
            make_policy("BANDIT:bogus=1")

    def test_static_policies_take_no_options(self):
        with pytest.raises(ValueError, match="takes no options"):
            make_policy("ICOUNT:interval=100")

    def test_non_numeric_option_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            make_policy("HYSTERESIS:interval=fast")

    def test_bad_arm_name_rejected(self):
        with pytest.raises(ValueError, match="valid arms"):
            make_policy("TOURNAMENT:ICOUNT/MAGIC")

    def test_hysteresis_arms_fixed(self):
        with pytest.raises(ValueError, match="fixed"):
            make_policy("HYSTERESIS:ICOUNT/RR")

    def test_spec_recorded_on_policy(self):
        policy = make_policy("BANDIT:interval=100", seed=7)
        assert policy.spec == "BANDIT:interval=100"

    def test_seed_changes_bandit_rng(self):
        a = make_policy("BANDIT", seed=1)
        b = make_policy("BANDIT", seed=2)
        assert a.rng.random() != b.rng.random()

    def test_is_adaptive_spec(self):
        assert not is_adaptive_spec("ICOUNT")
        assert is_adaptive_spec("HYSTERESIS:interval=100")


class TestConfigValidation:
    def test_valid_static_accepted(self):
        SMTConfig(fetch_policy="ICOUNT_BRCOUNT")

    def test_valid_meta_spec_accepted(self):
        SMTConfig(fetch_policy="TOURNAMENT:ICOUNT/BRCOUNT:interval=100")

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="valid policies"):
            SMTConfig(fetch_policy="FIFO")

    def test_bad_meta_option_rejected_at_construction(self):
        with pytest.raises(ValueError, match="valid options"):
            SMTConfig(fetch_policy="BANDIT:gamma=2")

