"""Per-commit performance tracking (the ``repro perf`` subsystem).

Turns one-off speed measurements into a trajectory: every commit can
record a schema-versioned **performance profile** (core cycles/sec,
Figure 3 wall-clocks, parallel / warm-cache speedups, cache hit rate,
host metadata) keyed by its git SHA, and regressions are
detected against a pinned baseline or the trailing trend — with
noise-aware tolerances, so host jitter is not a build failure but a
real slowdown is.

Modules:

* :mod:`repro.perf.collect` — run the benchmark suites, assemble one
  profile document (the library behind ``repro perf record``).
* :mod:`repro.perf.store` — the validated per-SHA profile store.
* :mod:`repro.perf.diff` — noise-aware per-metric deltas.
* :mod:`repro.perf.regress` — baseline / trend / floor verdicts.
"""

from repro.perf.diff import (  # noqa: F401
    METRIC_SPECS,
    MetricDelta,
    diff_profiles,
    format_deltas,
    quick_tolerance_scale,
)
from repro.perf.regress import (  # noqa: F401
    FLOORS,
    RegressionReport,
    check_against_baseline,
    check_against_history,
)
from repro.perf.store import (  # noqa: F401
    PERF_SCHEMA,
    PERF_SCHEMA_VERSION,
    ProfileStore,
    default_profile_dir,
    validate_profile,
)

#: Benchmark collection (``repro.perf.collect``) is imported lazily by
#: callers that need it — it drags in the whole experiment engine,
#: which ``perf list``/``show``/``diff``/``check`` never touch.
