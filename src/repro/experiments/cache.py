"""Persistent on-disk cache of simulation results.

Every experiment data point is a pure function of its inputs: the
machine configuration, the workload rotation (which itself is a pure
function of the profile set and generator seed), and the run budget.
Re-running a figure after a sweep therefore need not re-simulate
anything — the :class:`ResultCache` memoises each ``SimResult`` on disk,
keyed by a content hash over everything that determines it.

Key ingredients (all serialised canonically before hashing):

* every ``SMTConfig`` field,
* the workload fingerprint — the profile fields of every program in the
  rotation plus the generator seed — so recalibrating a workload
  invalidates its entries,
* the ``RunBudget`` fields,
* any out-of-config overrides (e.g. the D-cache MSHR count used by the
  sensitivity sweeps),
* a schema version, bumped whenever the simulator's timing behaviour
  changes.

The cache directory defaults to ``$XDG_CACHE_HOME/repro-smt`` (or
``~/.cache/repro-smt``) and is overridden by ``REPRO_CACHE_DIR``.
Caching is disabled entirely by ``REPRO_NO_CACHE=1`` or the CLI's
``--no-cache``.  Entries carry a checksum of their payload; corrupted,
truncated, or stale (version-mismatched) files are detected, dropped,
and recomputed rather than served.
One store holds every job kind's results, each in its own entry
format (:data:`ENTRY_FORMATS`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

import repro
from repro.core.config import SMTConfig
from repro.envutil import env_flag
from repro.core.simulator import CacheStats, SimResult
from repro.workloads.mixes import benchmark_rotation
from repro.workloads.profiles import PROFILES

#: Bump when a change to the simulator alters results for the same
#: inputs (timing fixes, stat definitions, workload generator changes).
#: The package version is hashed into every key as well, so release
#: bumps invalidate the cache even if this is forgotten.
#: v2: SimResult gained fetch_active_frac / icache_miss_stall_events.
CACHE_SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# Key derivation.
# ----------------------------------------------------------------------
def workload_fingerprint(n_threads: int, rotation: int, seed: int) -> Dict[str, Any]:
    """Everything that determines the programs of one rotation."""
    names = benchmark_rotation(n_threads, rotation)
    return {
        "seed": seed,
        "programs": [dataclasses.asdict(PROFILES[name]) for name in names],
    }


def result_key(
    config: SMTConfig,
    rotation: int,
    budget: Any,
    seed: int = 0,
    extras: Optional[Mapping[str, Any]] = None,
) -> str:
    """Content hash identifying one ``(config, rotation, budget)`` run."""
    payload = {
        "version": CACHE_SCHEMA_VERSION,
        "package": repro.__version__,
        "config": dataclasses.asdict(config),
        "rotation": rotation,
        "budget": dataclasses.asdict(budget),
        "workload": workload_fingerprint(config.n_threads, rotation, seed),
        "extras": dict(extras or {}),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def multicore_key(spec: Any) -> str:
    """Content hash identifying one multicore driver run.

    Hashes the spec's full fingerprint — allocator spec, arrival seed
    (or trace contents), machine config, quantum, and the workload
    profile knobs — so runs that differ in any input, notably the
    allocation policy or the arrival seed, occupy distinct cache slots.
    """
    payload = {
        "version": CACHE_SCHEMA_VERSION,
        "package": repro.__version__,
        "kind": "multicore",
        "spec": spec.fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Result (de)serialisation, per job kind.
# ----------------------------------------------------------------------
_CACHE_FIELDS = ("icache", "dcache", "l2", "l3")


def result_to_dict(result: SimResult) -> Dict[str, Any]:
    return dataclasses.asdict(result)


def result_from_dict(data: Mapping[str, Any]) -> SimResult:
    fields = dict(data)
    for name in _CACHE_FIELDS:
        value = fields.get(name)
        if isinstance(value, dict):
            fields[name] = CacheStats(**value)
    # JSON object keys are strings; restore the per-thread int keys.
    per_thread = fields.get("committed_per_thread") or {}
    fields["committed_per_thread"] = {int(k): v for k, v in per_thread.items()}
    return SimResult(**fields)


def _checksum(result_dict: Mapping[str, Any]) -> str:
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _multicore_from_dict(payload: Any) -> Any:
    # Imported on first use: only a multicore entry needs the driver.
    from repro.multicore.driver import MulticoreResult

    return MulticoreResult.from_dict(payload)


@dataclass(frozen=True)
class EntryFormat:
    """How one job kind's results are stored: the entry file's
    ``suffix``, the payload ``field`` and the result codec."""

    suffix: str
    field: str
    encode: Callable[[Any], Dict[str, Any]]
    decode: Callable[[Any], Any]


#: Each job kind's entry format.  Keys are hex digests with no dot, so
#: a multicore ``<key>.doc.json`` never passes for a run's
#: ``<key>.json``.
ENTRY_FORMATS: Dict[str, EntryFormat] = {
    "run": EntryFormat(".json", "result", result_to_dict, result_from_dict),
    "multicore": EntryFormat(".doc.json", "document",
                             lambda result: result.to_dict(),
                             _multicore_from_dict),
}


# ----------------------------------------------------------------------
# Cache directory resolution / enablement.
# ----------------------------------------------------------------------
def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-smt")


def cache_enabled_by_default() -> bool:
    return not env_flag("REPRO_NO_CACHE")


# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of job results, one JSON file per key,
    written atomically so concurrent workers cannot corrupt each
    other's entries.

    An entry is ``<key><suffix>`` holding ``{"version", "key",
    "checksum", <field>: payload}``, with the suffix, field and codec
    of the job's ``kind`` (:data:`ENTRY_FORMATS`).
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _path(self, key: str, kind: str = "run") -> str:
        return os.path.join(self.directory,
                            key + ENTRY_FORMATS[kind].suffix)

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (``<name>.corrupt``) so the slot
        recomputes cleanly but the evidence survives for debugging.
        The ``.corrupt`` suffix keeps it invisible to ``get``/``len``."""
        try:
            os.replace(path, path + ".corrupt")
            self.quarantined += 1
        except OSError:
            pass

    def get(self, key: str, kind: str = "run") -> Optional[Any]:
        """The cached ``kind`` result for ``key``, or ``None`` on a miss.

        A corrupt or truncated entry (garbage JSON, e.g. a writer killed
        mid-write outside the atomic-rename path, a checksum mismatch,
        or a payload that no longer decodes) counts as a miss and is
        quarantined — never raised.  A stale entry (schema version
        mismatch: expected churn after upgrades, not damage) is simply
        deleted.
        """
        entry_format = ENTRY_FORMATS[kind]
        path = self._path(key, kind)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError):
            self._quarantine(path)
            self.misses += 1
            return None
        version = entry.get("version") if isinstance(entry, dict) else None
        if version != CACHE_SCHEMA_VERSION:
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None
        try:
            payload = entry[entry_format.field]
            if entry.get("checksum") != _checksum(payload):
                raise ValueError("checksum mismatch")
            value = entry_format.decode(payload)
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: Any, kind: str = "run") -> None:
        entry_format = ENTRY_FORMATS[kind]
        os.makedirs(self.directory, exist_ok=True)
        payload = entry_format.encode(value)
        entry = {
            "version": CACHE_SCHEMA_VERSION,
            "key": key,
            "checksum": _checksum(payload),
            entry_format.field: payload,
        }
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, separators=(",", ":"))
            os.replace(tmp_path, self._path(key, kind))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stores += 1

    # ------------------------------------------------------------------
    def _entries(self, quarantined: bool = False) -> List[str]:
        """The entry file names of every kind; with ``quarantined``,
        the ``.corrupt`` files too."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        entries = []
        for name in names:
            stem = name
            if quarantined and stem.endswith(".corrupt"):
                stem = stem[:-len(".corrupt")]
            if any(stem.endswith(f.suffix)
                   and "." not in stem[:-len(f.suffix)]
                   for f in ENTRY_FORMATS.values()):
                entries.append(name)
        return entries

    def __contains__(self, key: str) -> bool:
        return any(os.path.exists(self._path(key, kind))
                   for kind in ENTRY_FORMATS)

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        """Delete every entry, quarantined ones included; returns the
        number removed."""
        removed = 0
        for name in self._entries(quarantined=True):
            try:
                os.unlink(os.path.join(self.directory, name))
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "quarantined": self.quarantined}
