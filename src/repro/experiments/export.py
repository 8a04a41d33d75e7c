"""Result export and text charts.

Two layers:

* ``to_rows`` / ``csv_text`` flatten experiment data for external
  analysis; :func:`ascii_chart` renders figure lines as a text plot (the
  repository has no plotting dependencies by design).
* Schema-stamped documents: a ``*_document`` builder per kind (a single
  run, a whole figure/table, a multicore run or allocation study, a
  violation report, a campaign report, a fuzz-corpus entry, the service
  status and stats) defines that kind's layout and stamps it with
  ``schema`` / ``schema_version``.  One :func:`write` and one
  :func:`load` serve every kind: ``load`` rejects unknown schemas and
  versions instead of silently misreading old artifacts, and accepts
  every version since the schema's layout last changed
  (``SCHEMA_SINCE``).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.simulator import SimResult
from repro.experiments.runner import ExperimentPoint

FigureData = Dict[str, List[ExperimentPoint]]

#: Version stamped into every exported document.  Bump on any change to
#: the document layout or field meanings, and move the changed schema's
#: ``SCHEMA_SINCE`` entry to the new version.
#: v2: run documents gained an optional ``policy`` section (fetch-policy
#: telemetry: spec, per-interval choice counts, switch events).
#: v3: multicore documents (``repro.multicore`` single open-system runs,
#: ``repro.multicore_experiment`` allocation studies).
#: v4: fabric campaign reports (``repro.fabric_campaign`` — the
#: scheduler's canonical per-task terminal states + results).
#: v5: campaign service documents (``repro.service_status`` — the
#: machine-readable campaign status shared by ``repro campaign status
#: --json`` and the service ``status`` verb; ``repro.service_stats`` —
#: server counters).
SCHEMA_VERSION = 5
RUN_SCHEMA = "repro.run"
EXPERIMENT_SCHEMA = "repro.experiment"
VIOLATION_SCHEMA = "repro.violation"
MULTICORE_SCHEMA = "repro.multicore"
MULTICORE_EXPERIMENT_SCHEMA = "repro.multicore_experiment"
FABRIC_SCHEMA = "repro.fabric_campaign"
SERVICE_STATUS_SCHEMA = "repro.service_status"
SERVICE_STATS_SCHEMA = "repro.service_stats"
#: Fuzz-corpus entries (``tests/corpus/``, :mod:`repro.verify.fuzz`).
FUZZ_CASE_SCHEMA = "repro.fuzz_case"

#: The version each schema's current layout dates from.  :func:`load`
#: accepts any version from there to ``SCHEMA_VERSION``, so a bump for
#: one kind leaves older artifacts of every other kind loadable.
SCHEMA_SINCE = {
    RUN_SCHEMA: 2,
    EXPERIMENT_SCHEMA: 1,
    VIOLATION_SCHEMA: 1,
    MULTICORE_SCHEMA: 3,
    MULTICORE_EXPERIMENT_SCHEMA: 3,
    FABRIC_SCHEMA: 4,
    SERVICE_STATUS_SCHEMA: 5,
    SERVICE_STATS_SCHEMA: 5,
    FUZZ_CASE_SCHEMA: 1,
}

#: SimResult scalar attributes exported per point.
EXPORTED_METRICS = (
    "ipc",
    "useful_fetch_per_cycle",
    "wrong_path_fetched_frac",
    "wrong_path_issued_frac",
    "branch_mispredict_rate",
    "int_iq_full_frac",
    "fp_iq_full_frac",
    "avg_queue_population",
    "out_of_registers_frac",
    "fetch_active_frac",
    "icache_miss_stall_events",
)


def to_rows(data: FigureData) -> List[Dict[str, Union[str, int, float]]]:
    """Flatten figure data into one dict per (line, thread-count)."""
    rows = []
    for label, points in data.items():
        for point in points:
            row: Dict[str, Union[str, int, float]] = {
                "line": label,
                "threads": point.n_threads,
            }
            for metric in EXPORTED_METRICS:
                row[metric] = round(point.metric(metric), 6)
            for cache in ("icache", "dcache", "l2", "l3"):
                row[f"{cache}_miss_rate"] = round(
                    point.cache_metric(cache, "miss_rate"), 6
                )
            rows.append(row)
    return rows


def csv_text(rows: Sequence[Dict[str, Any]]) -> str:
    """``rows`` as CSV, columns in the first row's key order."""
    if not rows:
        raise ValueError("no data to export")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ----------------------------------------------------------------------
# Schema-versioned documents.
# ----------------------------------------------------------------------
def as_figure_data(data: Any) -> FigureData:
    """Normalise any experiment harness return shape to ``FigureData``.

    The harnesses return ``{label: [points]}`` (figures 3-6, table 5),
    ``{key: point}`` (tables 3-4, keyed by thread count or label), or a
    bare point list (figure 7); exports treat them uniformly.
    """
    if isinstance(data, list):
        grouped: FigureData = {}
        for point in data:
            grouped.setdefault(point.label, []).append(point)
        return grouped
    if isinstance(data, dict):
        out: FigureData = {}
        for key, value in data.items():
            if isinstance(value, ExperimentPoint):
                out.setdefault(value.label or str(key), []).append(value)
            else:
                out[str(key)] = list(value)
        return out
    raise TypeError(f"cannot normalise experiment data of type {type(data)!r}")


def _validate(document: Any, schema: Optional[str]) -> Dict[str, Any]:
    if not isinstance(document, dict):
        raise ValueError(f"{schema or 'export'} document must be a JSON "
                         f"object")
    found = document.get("schema")
    if found not in SCHEMA_SINCE or schema not in (None, found):
        expected = repr(schema) if schema else \
            "one of " + ", ".join(sorted(SCHEMA_SINCE))
        raise ValueError(f"expected schema {expected}, got {found!r}")
    version = document.get("schema_version")
    since = SCHEMA_SINCE[found]
    if (not isinstance(version, int) or isinstance(version, bool)
            or not since <= version <= SCHEMA_VERSION):
        raise ValueError(
            f"unsupported {found} schema version {version!r} "
            f"(expected {since} to {SCHEMA_VERSION})"
        )
    return document


def write(path: str, document: Dict[str, Any]) -> None:
    """Write a ``*_document`` to ``path`` as JSON.

    Every kind is dumped alike: two-space indent, sorted keys and a
    trailing newline.  The document must be one :func:`load` accepts.
    """
    _validate(document, None)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path: str, schema: Optional[str] = None) -> Dict[str, Any]:
    """Load and validate a schema-stamped document.

    The document must be a JSON object of a registered schema (the
    given ``schema``, when one is given) whose integer version lies in
    ``SCHEMA_SINCE[schema]..SCHEMA_VERSION``.  Anything else raises
    ``ValueError`` naming the file and what was found.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    try:
        return _validate(document, schema)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def run_document(
    result: SimResult,
    telemetry: Optional[Any] = None,
    metrics: Optional[Any] = None,
    policy: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One run as a schema-versioned document.

    ``telemetry`` is a :class:`~repro.core.telemetry.TelemetrySampler`
    and ``metrics`` a :class:`~repro.core.histograms.MetricsCollector`;
    both optional, both serialised through their ``to_rows``/``to_dict``.
    ``policy`` is a fetch-policy telemetry dict
    (:meth:`repro.policy.base.FetchPolicy.telemetry`); for adaptive
    meta-policies it carries the per-interval choice counts and switch
    events (schema v2).
    """
    document: Dict[str, Any] = {
        "schema": RUN_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "result": dataclasses.asdict(result),
    }
    if telemetry is not None:
        document["telemetry"] = {
            "interval": telemetry.interval,
            "samples": telemetry.to_rows(),
        }
    if metrics is not None:
        document["metrics"] = metrics.to_dict()
    if policy is not None:
        document["policy"] = policy
    return document


def violation_document(
    violation: Any,
    case: Optional[Dict[str, Any]] = None,
    context: str = "",
) -> Dict[str, Any]:
    """An invariant violation as a schema-versioned report.

    ``violation`` is an
    :class:`~repro.verify.sanitizer.InvariantViolation` (or its
    ``to_dict()`` form); ``case`` optionally embeds the fuzz case or
    run spec that produced it, ``context`` a free-form provenance note
    (e.g. ``"fuzz seed 17"``).
    """
    payload = violation if isinstance(violation, dict) \
        else violation.to_dict()
    return {
        "schema": VIOLATION_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "violation": payload,
        "case": case,
        "context": context,
    }


def experiment_document(name: str, data: Any) -> Dict[str, Any]:
    """A whole figure/table as a schema-versioned document."""
    return {
        "schema": EXPERIMENT_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "experiment": name,
        "rows": to_rows(as_figure_data(data)),
    }


def export_experiment(document: Dict[str, Any],
                      directory: str) -> List[str]:
    """Write ``<experiment>.json`` and ``<experiment>.csv`` under
    ``directory`` for an :func:`experiment_document` or a
    :func:`multicore_experiment_document`; the CSV holds its ``rows``.

    Returns the written paths.
    """
    text = csv_text(document["rows"])
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, document["experiment"])
    write(stem + ".json", document)
    with open(stem + ".csv", "w", newline="") as handle:
        handle.write(text)
    return [stem + ".json", stem + ".csv"]


# ----------------------------------------------------------------------
# Multicore documents (schema v3).
# ----------------------------------------------------------------------
def multicore_document(result: Any,
                       spec: Optional[Any] = None) -> Dict[str, Any]:
    """One open-system multicore run as a schema-versioned document.

    ``result`` is a :class:`~repro.multicore.driver.MulticoreResult`
    (or its ``to_dict()`` form — which embeds per-job latency records,
    per-core utilization, the completion order, and the latency
    percentile summary).  ``spec`` optionally embeds the full
    :class:`~repro.multicore.driver.MulticoreRunSpec` fingerprint for
    provenance, so an artifact is reproducible from itself.
    """
    payload = result if isinstance(result, dict) else result.to_dict()
    document: Dict[str, Any] = {
        "schema": MULTICORE_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "result": payload,
    }
    if spec is not None:
        document["spec"] = (
            spec if isinstance(spec, dict) else spec.fingerprint()
        )
    return document


def multicore_experiment_document(name: str,
                                  results: Sequence[Any]) -> Dict[str, Any]:
    """An allocation study — many multicore runs — as one document.

    Each row carries the run's identity (allocator, core count, seed)
    plus its aggregate metrics; full per-run documents are embedded
    under ``runs`` so the flat rows never go stale against the detail.
    """
    payloads = [
        r if isinstance(r, dict) else r.to_dict() for r in results
    ]
    rows = []
    for p in payloads:
        latency = p.get("latency", {})
        rows.append({
            "allocator": p["allocator"],
            "n_cores": p["n_cores"],
            "contexts_per_core": p["contexts_per_core"],
            "seed": p["seed"],
            "cycles": p["cycles"],
            "jobs_total": p["jobs_total"],
            "jobs_completed": p["jobs_completed"],
            "throughput_per_kcycle": p["throughput_per_kcycle"],
            "mean_utilization": p["mean_utilization"],
            "latency_total_p50": latency.get("total", {}).get("p50", 0.0),
            "latency_total_p90": latency.get("total", {}).get("p90", 0.0),
            "latency_total_p99": latency.get("total", {}).get("p99", 0.0),
            "latency_queue_p50": latency.get("queue", {}).get("p50", 0.0),
            "latency_queue_p99": latency.get("queue", {}).get("p99", 0.0),
        })
    return {
        "schema": MULTICORE_EXPERIMENT_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "experiment": name,
        "rows": rows,
        "runs": payloads,
    }


# ----------------------------------------------------------------------
# Fabric campaign reports (schema v4).
# ----------------------------------------------------------------------
def fabric_document(name: str, rows: Sequence[Any]) -> Dict[str, Any]:
    """A scheduler campaign's canonical report as one document.

    ``rows`` come from :func:`repro.sched.campaign.report_rows`: one per
    task in submit order, carrying identity (key, label), terminal
    state, and — for completed tasks — the full deterministic result
    payload.  Operational noise (attempts, workers, timings) is kept
    out by construction, so serialising this document with sorted keys
    yields bytes that are identical across fault-free and fault-ridden
    executions of the same campaign — the chaos suite's headline
    invariant.
    """
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["state"]] = counts.get(row["state"], 0) + 1
    return {
        "schema": FABRIC_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "counts": dict(sorted(counts.items())),
        "tasks": list(rows),
    }


def fabric_report_bytes(document: Dict[str, Any]) -> bytes:
    """The report's canonical serialisation (for bit-identity checks)."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Campaign service documents (schema v5).
# ----------------------------------------------------------------------
def service_status_document(
    name: str,
    counts: Dict[str, int],
    tasks: Sequence[Dict[str, Any]],
    workers: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """A campaign's machine-readable status as one document.

    The single builder behind both ``repro campaign status --json`` and
    the service ``status`` verb — the socket and the filesystem must
    never disagree about what a campaign looks like.  ``tasks`` rows
    come from :func:`repro.sched.campaign.status_rows`: identity,
    current (not necessarily terminal) state, lease holder, attempt and
    backoff detail — the *operational* view the canonical fabric report
    deliberately omits.
    """
    return {
        "schema": SERVICE_STATUS_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "counts": dict(sorted(counts.items())),
        "all_terminal": bool(tasks) and all(
            row.get("terminal") for row in tasks),
        "tasks": list(tasks),
        "workers": dict(sorted((workers or {}).items())),
    }


def service_stats_document(server: Dict[str, Any],
                           counters: Dict[str, int]) -> Dict[str, Any]:
    """Server observability counters as a schema-versioned document.

    ``server`` carries identity (directory, endpoints, protocol
    version, draining flag); ``counters`` the monotonic event counts
    (connections, submits, rejects, follower lag) the service ``stats``
    verb exports.
    """
    return {
        "schema": SERVICE_STATS_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "server": dict(server),
        "counters": dict(sorted(counters.items())),
    }


def ascii_chart(
    data: FigureData,
    metric: str = "ipc",
    height: int = 12,
    width_per_point: int = 8,
    title: str = "",
) -> str:
    """Plot one metric of several figure lines as a text chart.

    The x axis is thread count; each line gets a letter marker.
    """
    labels = list(data)
    if not labels:
        raise ValueError("no lines to chart")
    threads = sorted({p.n_threads for pts in data.values() for p in pts})
    series = {
        label: {p.n_threads: p.metric(metric) for p in points}
        for label, points in data.items()
    }
    peak = max(v for s in series.values() for v in s.values())
    peak = peak or 1.0

    markers = "ABCDEFGHJKLMNP"
    grid = [[" "] * (len(threads) * width_per_point) for _ in range(height)]
    for li, label in enumerate(labels):
        marker = markers[li % len(markers)]
        for xi, t in enumerate(threads):
            value = series[label].get(t)
            if value is None:
                continue
            row = height - 1 - min(
                height - 1, int(value / peak * (height - 1) + 0.5)
            )
            col = xi * width_per_point + width_per_point // 2
            # Nudge right when two lines land on the same cell.
            while grid[row][col] != " " and col < len(grid[row]) - 1:
                col += 1
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    for ri, row in enumerate(grid):
        yval = peak * (height - 1 - ri) / (height - 1)
        lines.append(f"{yval:6.2f} |" + "".join(row))
    axis = "-" * (len(threads) * width_per_point)
    lines.append("       +" + axis)
    xlabels = "".join(
        f"{t:^{width_per_point}d}" for t in threads
    )
    lines.append("        " + xlabels + "  (threads)")
    for li, label in enumerate(labels):
        lines.append(f"        {markers[li % len(markers)]} = {label}")
    return "\n".join(lines)
