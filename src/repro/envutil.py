"""Uniform parsing of ``REPRO_*`` environment knobs.

Boolean knobs grew up independently and disagreed on semantics:
``REPRO_NO_WARM_IMAGES`` treated ``""`` and ``"0"`` as unset, while
``REPRO_NO_CACHE`` and ``REPRO_CHECK_INVARIANTS`` used bare truthiness
of the string — so ``REPRO_NO_CACHE=0`` *disabled* the cache and
``REPRO_CHECK_INVARIANTS=0`` *enabled* invariant checking.  Every
boolean knob now routes through :func:`env_flag`, which gives them all
one rule:

* unset, ``""``, ``"0"``, ``"false"``, ``"no"``, ``"off"`` (any case)
  → the flag's default (off, for every current knob);
* anything else (``"1"``, ``"true"``, ``"yes"``, ...) → on.

The boolean knobs: ``REPRO_NO_CACHE``, ``REPRO_CHECK_INVARIANTS``,
``REPRO_NO_WARM_IMAGES``, ``REPRO_FAST``, ``REPRO_FULL``,
``REPRO_JOURNAL_FSYNC`` (fsync every campaign-journal append —
durability across power loss at a per-record syscall cost),
``REPRO_FABRIC`` (route ``execute_runs`` batches through the campaign
scheduler).  (``REPRO_CACHE_DIR``, ``REPRO_JOBS``,
``REPRO_SERVE_TOKEN``, ``REPRO_SERVE_MAX_INFLIGHT``,
``REPRO_WORKER_POLL`` carry values, not truth.)

:func:`env_int` and :func:`env_float` cover the numeric knobs: an
unparsable value warns — naming the variable, the bad value, and the
fallback — instead of being silently ignored.  :func:`env_str` covers
string knobs (the service auth token), treating whitespace-only values
as unset.
"""

from __future__ import annotations

import os
import warnings
from typing import Mapping, Optional

#: Values equivalent to "this flag is unset" (case-insensitive,
#: surrounding whitespace ignored).
FALSE_TOKENS = frozenset({"", "0", "false", "no", "off"})

#: Every boolean ``REPRO_*`` knob, for documentation and truth-table
#: tests.  Add new flags here so the uniform-semantics test covers them.
BOOLEAN_KNOBS = (
    "REPRO_NO_CACHE",
    "REPRO_CHECK_INVARIANTS",
    "REPRO_NO_WARM_IMAGES",
    "REPRO_FAST",
    "REPRO_FULL",
    "REPRO_JOURNAL_FSYNC",
    "REPRO_FABRIC",
)


def env_flag(
    name: str,
    default: bool = False,
    environ: Optional[Mapping[str, str]] = None,
) -> bool:
    """The boolean value of environment flag ``name``.

    A missing variable or a :data:`FALSE_TOKENS` value returns
    ``default``; any other value means the flag is set.
    """
    source = os.environ if environ is None else environ
    raw = source.get(name)
    if raw is None or raw.strip().lower() in FALSE_TOKENS:
        return default
    return True


def env_int(
    name: str,
    fallback: int,
    minimum: Optional[int] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> int:
    """The integer value of environment variable ``name``.

    Unset or empty returns ``fallback``.  An unparsable value emits a
    :class:`RuntimeWarning` naming the variable, the offending value,
    and the fallback, then returns the fallback — a typo'd
    ``REPRO_JOBS=fourr`` must not silently serialise a campaign.
    ``minimum`` clamps the parsed value.
    """
    source = os.environ if environ is None else environ
    raw = source.get(name)
    if raw is None or not raw.strip():
        return fallback
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {name}={raw!r} (not an integer); "
            f"using {fallback}",
            RuntimeWarning,
            stacklevel=2,
        )
        return fallback
    if minimum is not None:
        value = max(minimum, value)
    return value


def env_float(
    name: str,
    fallback: float,
    minimum: Optional[float] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> float:
    """The float value of environment variable ``name``.

    Same contract as :func:`env_int`: unset/empty returns the
    fallback, garbage warns and returns the fallback, ``minimum``
    clamps.  Used by ``REPRO_WORKER_POLL`` (worker idle-poll base
    interval, seconds).
    """
    source = os.environ if environ is None else environ
    raw = source.get(name)
    if raw is None or not raw.strip():
        return fallback
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {name}={raw!r} (not a number); "
            f"using {fallback}",
            RuntimeWarning,
            stacklevel=2,
        )
        return fallback
    if minimum is not None:
        value = max(minimum, value)
    return value


def env_str(
    name: str,
    fallback: Optional[str] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[str]:
    """The stripped string value of ``name``; whitespace-only is unset.

    Used by ``REPRO_SERVE_TOKEN`` (the campaign service's shared-secret
    auth token) — an accidental ``REPRO_SERVE_TOKEN=" "`` must not
    silently require a one-space password.
    """
    source = os.environ if environ is None else environ
    raw = source.get(name)
    if raw is None or not raw.strip():
        return fallback
    return raw.strip()
