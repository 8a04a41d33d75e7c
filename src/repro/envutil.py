"""Uniform parsing of ``REPRO_*`` environment variables.

Boolean variables grew up independently and disagreed on semantics:
``REPRO_NO_CACHE`` and ``REPRO_CHECK_INVARIANTS`` used bare truthiness
of the string — so ``REPRO_NO_CACHE=0`` *disabled* the cache and
``REPRO_CHECK_INVARIANTS=0`` *enabled* invariant checking.  Every
boolean variable now routes through :func:`env_flag`, which gives them
all one rule:

* unset, ``""``, ``"0"``, ``"false"``, ``"no"``, ``"off"`` (any case)
  → the flag's default (off, for every current variable);
* anything else (``"1"``, ``"true"``, ``"yes"``, ...) → on.

The boolean variables: ``REPRO_NO_CACHE``, ``REPRO_CHECK_INVARIANTS``,
``REPRO_FAST``, ``REPRO_FULL`` (CI, ``examples/`` and ``benchmarks/``
set these), and ``REPRO_JOURNAL_FSYNC`` (fsync every campaign-journal
append — durability across power loss at a per-record syscall cost).
Two more carry values, not truth: ``REPRO_CACHE_DIR`` (the result
cache's path) and ``REPRO_SERVE_TOKEN`` (the campaign service's
shared secret; :func:`env_str` treats a whitespace-only value as
unset).  Everything else about how a batch runs is set through
:func:`repro.experiments.parallel.configure`.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

#: Values equivalent to "this flag is unset" (case-insensitive,
#: surrounding whitespace ignored).
FALSE_TOKENS = frozenset({"", "0", "false", "no", "off"})

#: Every boolean ``REPRO_*`` knob, for documentation and truth-table
#: tests.  Add new flags here so the uniform-semantics test covers them.
BOOLEAN_KNOBS = (
    "REPRO_NO_CACHE",
    "REPRO_CHECK_INVARIANTS",
    "REPRO_FAST",
    "REPRO_FULL",
    "REPRO_JOURNAL_FSYNC",
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
