"""Spec registries: one authoritative name -> policy mapping per family.

A :class:`SpecRegistry` maps names to rows that carry a one-line
summary and a typed option schema.  Two instances exist: this module's
fetch-policy table (:data:`FETCH_POLICIES` — the paper's five static
policies, the ICOUNT_BRCOUNT hybrid, and the adaptive meta-policies)
and the thread-to-core allocator table
(:data:`repro.multicore.alloc.ALLOCATORS`).  The ``repro policies`` and
``repro allocators`` listings, spec validation (``SMTConfig``,
``MulticoreRunSpec``, the CLI) and construction all read them, so
documentation and dispatch cannot drift apart.

Specs are strings (they live in configs, flow through dataclass
serialisation, and hash into result-cache keys).  Grammar::

    NAME                          e.g.  ICOUNT
    NAME:key=value,key=value      e.g.  HYSTERESIS:interval=200,dwell=3
    NAME:ARM/ARM[/ARM...]         e.g.  TOURNAMENT:ICOUNT/BRCOUNT
    NAME:ARM/ARM:key=value        e.g.  BANDIT:ICOUNT/RR:mode=ucb

Colon-separated segments after the name are either an arms list
(static policy names joined by ``/``) or comma-separated ``key=value``
options; unknown names, unknown keys, and malformed values all raise
``ValueError`` naming the valid alternatives.  A family without arms
lists (the allocators) reads every segment as options.

Seeding: :meth:`SpecRegistry.make` derives any internal randomness
(the BANDIT's exploration RNG, the RANDOM allocator) from
``crc32(seed, spec)`` — stable across processes and interpreter
versions, so a policy is a pure function of ``(seed, spec)``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.policy.base import FetchPolicy
from repro.policy.meta import Bandit, Hysteresis, Tournament
from repro.policy.static import STATIC_POLICY_CLASSES

#: Option converters a row may name, and what a bad value is not.
_CONVERTED = {int: "an integer", float: "a number"}


@dataclass(frozen=True)
class SpecInfo:
    """One registry row."""

    name: str
    kind: str            # a listing group of the registry
    summary: str
    #: Factory(arms-or-None, params, rng_seed) -> policy object.
    factory: Callable[..., Any]
    #: Allowed ``key=value`` options and their converters (int, float
    #: or str).
    params: Mapping[str, Callable[[str], Any]] = field(default_factory=dict)
    takes_arms: bool = False


@dataclass
class SpecRegistry:
    """One family of specs: its rows, grammar, messages and listing.

    ``noun`` names the family in grammar errors ("malformed policy
    option"), ``title`` in the empty-spec error, ``unknown`` in the
    unknown-name error, and ``plural`` is the listing command.  Rows of
    kind ``"static"`` take no options at all.  Without ``arms``, a
    segment that is not ``key=value`` is a malformed option.
    """

    noun: str
    title: str
    unknown: str
    plural: str
    #: ``(kind, heading)`` in listing order; names sort by group first.
    groups: Sequence[Tuple[str, str]]
    footer: Sequence[str]
    arms: bool = True
    rows: Dict[str, SpecInfo] = field(default_factory=dict)

    def register(self, info: SpecInfo) -> None:
        if info.name in self.rows:
            raise ValueError(f"duplicate {self.noun} registration "
                             f"{info.name!r}")
        self.rows[info.name] = info

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def names(self, kind: Optional[str] = None) -> Tuple[str, ...]:
        """Registered names, by listing group then name (one group's
        names when ``kind`` is given)."""
        order = [group for group, _ in self.groups]
        return tuple(sorted(
            (name for name, info in self.rows.items()
             if kind is None or info.kind == kind),
            key=lambda name: (order.index(self.rows[name].kind), name),
        ))

    def entries(self) -> Tuple[SpecInfo, ...]:
        return tuple(self.rows[name] for name in self.names())

    def get(self, name: str) -> SpecInfo:
        try:
            return self.rows[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.unknown} {name!r}; valid {self.plural}: "
                f"{', '.join(self.names())} "
                f"(run 'repro {self.plural}' for descriptions)"
            ) from None

    def listing(self) -> str:
        """What ``repro <plural>`` prints."""
        entries = self.entries()
        width = max(len(info.name) for info in entries)
        lines = []
        for kind, heading in self.groups:
            lines.append(f"{heading}:")
            for info in entries:
                if info.kind != kind:
                    continue
                lines.append(f"  {info.name:{width}s}  {info.summary}")
                if info.params:
                    options = ", ".join(sorted(info.params))
                    if info.takes_arms:
                        options = "arms (ARM/ARM list), " + options
                    lines.append(f"  {'':{width}s}  options: {options}")
            lines.append("")
        return "\n".join([*lines, *self.footer])

    # ------------------------------------------------------------------
    # Spec parsing and construction.
    # ------------------------------------------------------------------
    def parse(
        self, spec: str,
    ) -> Tuple[str, Optional[Tuple[str, ...]], Dict[str, str]]:
        """Split ``spec`` into (name, arms-or-None, raw option strings)."""
        if not spec or not isinstance(spec, str):
            raise ValueError(f"{self.title} spec must be a non-empty "
                             f"string, got {spec!r}")
        segments = spec.split(":")
        name = segments[0]
        arms: Optional[Tuple[str, ...]] = None
        params: Dict[str, str] = {}
        for segment in segments[1:]:
            if not segment:
                raise ValueError(f"empty segment in {self.noun} spec "
                                 f"{spec!r}")
            if "=" in segment or not self.arms:
                for pair in segment.split(","):
                    key, sep, value = pair.partition("=")
                    if not sep or not key or not value:
                        raise ValueError(
                            f"malformed {self.noun} option {pair!r} in "
                            f"{spec!r} (expected key=value)"
                        )
                    if key in params:
                        raise ValueError(f"duplicate {self.noun} option "
                                         f"{key!r} in {spec!r}")
                    params[key] = value
            else:
                if arms is not None:
                    raise ValueError(f"multiple arms lists in {self.noun} "
                                     f"spec {spec!r}")
                arms = tuple(segment.split("/"))
        return name, arms, params

    def make(self, spec: str, seed: int = 0) -> Any:
        """Build the object a spec describes, with ``spec`` recorded on
        it.  Raises ``ValueError`` (listing valid names/options) on any
        problem, so specs validate when a config is made."""
        name, arms, raw_params = self.parse(spec)
        info = self.get(name)
        if info.kind == "static" and (arms is not None or raw_params):
            raise ValueError(f"static {self.noun} {name!r} takes no "
                             f"options (got {spec!r})")
        params: Dict[str, Any] = {}
        for key, value in raw_params.items():
            convert = info.params.get(key)
            if convert is None:
                valid = ", ".join(sorted(info.params)) or "(none)"
                raise ValueError(
                    f"unknown option {key!r} for {self.noun} {name} "
                    f"(valid options: {valid})"
                )
            try:
                params[key] = convert(value)
            except ValueError:
                raise ValueError(f"{self.noun} option {key}={value!r} is "
                                 f"not {_CONVERTED[convert]}") from None
        rng_seed = zlib.crc32(f"{seed}|{spec}".encode("utf-8"))
        made = info.factory(arms, params, rng_seed)
        made.spec = spec
        return made

    def validate(self, spec: str) -> str:
        """Validate a spec; returns its name.  Construction is cheap (no
        simulator state), so every factory-level check (arm names,
        parameter ranges) runs at config time."""
        return self.make(spec).name


# ----------------------------------------------------------------------
# The fetch-policy table.
# ----------------------------------------------------------------------
def _static_factory(cls):
    def build(arms, params, rng_seed):
        return cls()
    return build


def _hysteresis_factory(arms, params, rng_seed):
    if arms is not None:
        raise ValueError("HYSTERESIS arms are fixed "
                         "(ICOUNT/BRCOUNT/MISSCOUNT)")
    return Hysteresis(**params)


def _bandit_factory(arms, params, rng_seed):
    kwargs = dict(params, rng_seed=rng_seed)
    if arms is not None:
        kwargs["arms"] = arms
    return Bandit(**kwargs)


def _tournament_factory(arms, params, rng_seed):
    kwargs = dict(params)
    if arms is not None:
        kwargs["arms"] = arms
    return Tournament(**kwargs)


FETCH_POLICIES = SpecRegistry(
    noun="policy", title="fetch policy", unknown="fetch policy",
    plural="policies",
    groups=(("static", "static fetch policies"),
            ("meta", "adaptive meta-policies")),
    footer=("spec grammar: NAME, NAME:key=value,...  TOURNAMENT and BANDIT "
            "accept an arm list: NAME:ARM/ARM[:opts]",
            "examples    : ICOUNT   HYSTERESIS:interval=300,dwell=2   "
            "BANDIT:mode=ucb   TOURNAMENT:ICOUNT/BRCOUNT"),
)

for _cls in STATIC_POLICY_CLASSES:
    FETCH_POLICIES.register(SpecInfo(
        name=_cls.name, kind="static", summary=_cls.description,
        factory=_static_factory(_cls),
    ))

FETCH_POLICIES.register(SpecInfo(
    name=Hysteresis.name, kind="meta", summary=Hysteresis.description,
    factory=_hysteresis_factory,
    params={"interval": int, "dwell": int, "floor": float,
            "wrong_path_weight": float, "miss_weight": float},
))
FETCH_POLICIES.register(SpecInfo(
    name=Bandit.name, kind="meta", summary=Bandit.description,
    factory=_bandit_factory, takes_arms=True,
    params={"interval": int, "epsilon": float, "mode": str,
            "ucb_c": float, "phase_threshold": float},
))
FETCH_POLICIES.register(SpecInfo(
    name=Tournament.name, kind="meta", summary=Tournament.description,
    factory=_tournament_factory, takes_arms=True,
    params={"interval": int, "exploit": int},
))

make_policy: Callable[..., FetchPolicy] = FETCH_POLICIES.make
validate_spec = FETCH_POLICIES.validate
parse_spec = FETCH_POLICIES.parse
get_info = FETCH_POLICIES.get
registry_entries = FETCH_POLICIES.entries
policy_names = FETCH_POLICIES.names


def static_policy_names() -> Tuple[str, ...]:
    return FETCH_POLICIES.names("static")


def meta_policy_names() -> Tuple[str, ...]:
    return FETCH_POLICIES.names("meta")


def is_adaptive_spec(spec: str) -> bool:
    return get_info(parse_spec(spec)[0]).kind == "meta"
