"""Adaptive fetch-policy subsystem.

Replaces the old string-dispatch fetch policies with a registry of
:class:`~repro.policy.base.FetchPolicy` objects — the paper's five
static policies plus the ICOUNT_BRCOUNT hybrid — and adds
*meta-policies* (HYSTERESIS, BANDIT, TOURNAMENT) that select among the
static policies at runtime from per-interval pipeline signals.

See ``docs/policies.md`` for the full design.
"""

from repro.policy.registry import (
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

__all__ = [
    "get_info",
    "is_adaptive_spec",
    "make_policy",
    "meta_policy_names",
    "parse_spec",
    "policy_names",
    "registry_entries",
    "static_policy_names",
    "validate_spec",
]
