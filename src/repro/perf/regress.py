"""Regression verdicts over performance profiles.

Three detectors compose into one :class:`RegressionReport` (the exit
status of ``repro perf check``):

* **Baseline compare** — pairwise noise-aware diff against one pinned
  profile (``--baseline SHA``); any metric classified ``regressed``
  fails.
* **Trend check** — against the trailing-N history: a metric fails the
  *median test* when the current value is worse than the history
  median by more than its tolerance (a step regression against a noisy
  background), and the *slope test* when a least-squares fit over the
  normalised series (history + current, >= 4 points) degrades faster
  than :data:`SLOPE_THRESHOLD` per sample (a slow leak no single
  pairwise diff would flag).
* **Floors** — absolute invariants that hold regardless of history,
  e.g. the pooled Figure 3 sweep must never be slower than serial
  (``parallel_speedup >= 1``).  Floors make ``repro perf check``
  meaningful even on a fresh checkout with no stored history (the CI
  case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.perf.diff import (
    HIGHER,
    REGRESSED,
    SPECS_BY_NAME,
    MetricSpec,
    diff_profiles,
    profile_metrics,
)

#: Absolute floors: metric -> minimum acceptable value.
FLOORS: Dict[str, float] = {
    "parallel_speedup": 1.0,
}

#: Normalised degradation per sample beyond which the slope test fails.
SLOPE_THRESHOLD = 0.03
#: Minimum points (history + current) for the slope test to engage.
SLOPE_MIN_POINTS = 4


@dataclass(frozen=True)
class MetricVerdict:
    """One detector's judgement of one metric."""

    metric: str
    kind: str  # "baseline" | "median" | "slope" | "floor"
    ok: bool
    value: Optional[float]
    reference: Optional[float]
    detail: str

    def describe(self) -> str:
        status = "ok" if self.ok else "REGRESSION"
        return f"[{status}] {self.metric} ({self.kind}): {self.detail}"


@dataclass
class RegressionReport:
    """Every verdict for one checked profile."""

    sha: Optional[str]
    mode: str  # "baseline" | "trend"
    verdicts: List[MetricVerdict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def failures(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def describe(self) -> str:
        sha = (self.sha or "?")[:12]
        lines = [f"perf check ({self.mode}) for {sha}:"]
        lines += [f"  {note}" for note in self.notes]
        lines += [f"  {v.describe()}" for v in self.verdicts]
        verdict = "OK" if self.ok else \
            f"FAIL ({len(self.failures)} regression(s))"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def _slope(values: Sequence[float]) -> float:
    """Least-squares slope of ``values`` over x = 0..n-1."""
    n = len(values)
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    num = sum((i - mean_x) * (y - mean_y) for i, y in enumerate(values))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return num / den if den else 0.0


def floor_verdicts(current: Mapping[str, Any]) -> List[MetricVerdict]:
    metrics = profile_metrics(current)
    verdicts = []
    for name, minimum in FLOORS.items():
        value = metrics.get(name)
        if value is None:
            continue
        ok = value >= minimum
        verdicts.append(MetricVerdict(
            name, "floor", ok, value, minimum,
            f"{value} {'>=' if ok else '<'} floor {minimum}",
        ))
    return verdicts


def check_against_baseline(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance_scale: float = 1.0,
) -> RegressionReport:
    """Pairwise noise-aware compare against one pinned profile."""
    report = RegressionReport(current.get("git_sha"), "baseline")
    base_sha = (baseline.get("git_sha") or "?")[:12]
    report.notes.append(f"baseline: {base_sha} "
                        f"(tolerance scale {tolerance_scale}x)")
    for delta in diff_profiles(baseline, current, tolerance_scale):
        if delta.before is None or delta.after is None:
            continue
        ok = delta.classification != REGRESSED
        pct = f"{delta.rel_change:+.1%}" if delta.rel_change is not None \
            else "n/a"
        report.verdicts.append(MetricVerdict(
            delta.metric, "baseline", ok, delta.after, delta.before,
            f"{delta.before} -> {delta.after} ({pct}) "
            f"{delta.classification}",
        ))
    report.verdicts.extend(floor_verdicts(current))
    return report


def check_against_history(
    current: Mapping[str, Any],
    history: Sequence[Mapping[str, Any]],
    window: int = 5,
    tolerance_scale: float = 1.0,
) -> RegressionReport:
    """Median + slope trend check over the trailing ``window`` profiles.

    With no usable history, only the absolute floors apply (and the
    report says so) — a fresh checkout is never an automatic failure.
    """
    report = RegressionReport(current.get("git_sha"), "trend")
    trailing = list(history)[-window:] if window else list(history)
    if not trailing:
        report.notes.append("no history: floor checks only")
        report.verdicts.extend(floor_verdicts(current))
        return report
    report.notes.append(
        f"history: {len(trailing)} profile(s), "
        f"tolerance scale {tolerance_scale}x"
    )

    metrics = profile_metrics(current)
    for name, value in metrics.items():
        spec = SPECS_BY_NAME.get(name, MetricSpec(name, HIGHER, 0.10))
        series = [
            profile_metrics(p)[name] for p in trailing
            if name in profile_metrics(p)
        ]
        if not series:
            continue
        ref = median(series)
        tolerance = spec.rel_tolerance * tolerance_scale
        if ref == 0:
            worse_than_median = False
            rel = 0.0
        else:
            rel = (value - ref) / abs(ref)
            better = rel if spec.direction == HIGHER else -rel
            worse_than_median = better < -tolerance
        report.verdicts.append(MetricVerdict(
            name, "median", not worse_than_median, value, ref,
            f"{value} vs median {round(ref, 4)} of {len(series)} "
            f"({rel:+.1%}, tol {tolerance:.0%})",
        ))

        full = series + [value]
        if len(full) >= SLOPE_MIN_POINTS and ref != 0:
            slope = _slope([v / abs(ref) for v in full])
            degrade = -slope if spec.direction == HIGHER else slope
            ok = degrade <= SLOPE_THRESHOLD
            report.verdicts.append(MetricVerdict(
                name, "slope", ok, value, ref,
                f"normalised slope {slope:+.3f}/sample over "
                f"{len(full)} points (threshold "
                f"{'-' if spec.direction == HIGHER else '+'}"
                f"{SLOPE_THRESHOLD})",
            ))

    report.verdicts.extend(floor_verdicts(current))
    return report
