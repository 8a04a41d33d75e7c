"""Compare two benchmark result files metric by metric.

    python3 bench/compare.py BASE.json NEW.json

``BASE`` is the parent (or the first set of runs), ``NEW`` the change;
both are ``bench/run.py --out`` files.  For every end-to-end metric and
workload it prints both sides' median and quartiles and a verdict:

* ``within bound``: NEW's median is no worse than BASE's by more than
  the metric's bound.  When BASE's own interquartile range is wider
  than the bound the pair is ``unresolved`` instead, unless every NEW
  rep reads better than every BASE rep.
* ``worse``: NEW's median is worse by more than the bound, NEW loses at
  least nine tenths of the rep pairs (ties count for neither), and the
  medians differ by more than BASE's interquartile range.
* ``unresolved``: worse by more than the bound, but not by that rule.

Per-layer metrics are listed with both values for reading, without a
verdict; model metrics and output digests must match exactly and are
flagged when they do not.  The exit code is 1 when any pair is
``worse``.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import argparse  # noqa: E402
import json  # noqa: E402
from typing import Any, Dict, List, Sequence, Tuple  # noqa: E402

from bench import catalog, stats  # noqa: E402

WITHIN, WORSE, UNRESOLVED = "within bound", "worse", "unresolved"


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float, absolute: bool = False) -> Tuple[str, float]:
    """The verdict for one (metric, workload) pair and how much worse
    NEW's median is (relative, or in the metric's unit if
    ``absolute``)."""
    b, n = stats.summary(base), stats.summary(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n["median"] - b["median"])
    if not absolute:
        worse_by = worse_by / abs(b["median"]) if b["median"] else (
            0.0 if worse_by <= 0 else float("inf"))
    iqr = b["q3"] - b["q1"]
    if worse_by <= bound:
        spread = iqr / abs(b["median"]) if b["median"] else 0.0
        all_better = all(sign * (x - y) < 0 for x in new for y in base)
        if not absolute and spread > bound and not all_better:
            return UNRESOLVED, worse_by
        return WITHIN, worse_by
    pairs = list(zip(base, new))
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    resolved = (losses >= 0.9 * len(pairs)
                and abs(n["median"] - b["median"]) > iqr)
    return (WORSE if resolved else UNRESOLVED), worse_by


def rep_values(result: Dict[str, Any], name: str) -> List[float]:
    return [r[name] for r in result["reps"] if "error" not in r and name in r]


def compare(base: Dict[str, Any], new: Dict[str, Any],
            benchmark: Dict[str, Any]) -> Tuple[List[str], int]:
    """Report lines and the number of ``worse`` verdicts."""
    lines: List[str] = []
    worse = 0
    if base.get("seed") != new.get("seed") or \
            base.get("smoke") != new.get("smoke"):
        lines.append(f"warning: seed/size differ (base seed "
                     f"{base.get('seed')} smoke {base.get('smoke')}, new "
                     f"seed {new.get('seed')} smoke {new.get('smoke')})")
    header = (f"{'workload':16} {'metric':24} {'base median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'worse by':>9}  verdict")
    lines.append(header)
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            lines.append(f"{workload:16} missing from the new results")
            continue
        for metric in catalog.end_to_end(benchmark):
            name = metric["name"]
            bv, nv = rep_values(b, name), rep_values(n, name)
            if not bv or not nv:
                continue
            absolute = metric.get("absolute", False)
            result, by = verdict(bv, nv, metric["better"], metric["bound"],
                                 absolute)
            worse += result == WORSE
            bs, ns = stats.summary(bv), stats.summary(nv)
            shown = f"{by:+9.4f}" if absolute else f"{by:+8.1%}"
            lines.append(
                f"{workload:16} {name:24} {_fmt(bs):>32} {_fmt(ns):>32} "
                f"{shown:>9}  {result}")
        if b.get("digest") and n.get("digest") and \
                b["digest"] != n["digest"]:
            lines.append(f"{workload:16} output digest differs: model "
                         f"changed")
        for name, bm in b.get("per_layer", {}).items():
            nm = n.get("per_layer", {}).get(name)
            if nm is None:
                continue
            note = ""
            if name.startswith("model.") and bm["value"] != nm["value"]:
                note = "  model changed"
            lines.append(f"{workload:16} {name:32} base {_num(bm['value'])} "
                         f"new {_num(nm['value'])} {bm['unit']}{note}")
    return lines, worse


def _fmt(s: Dict[str, float]) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"


def _num(value: Any) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two bench/run.py --out files.")
    parser.add_argument("base", help="parent / first set of runs")
    parser.add_argument("new", help="change / second set of runs")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.base, args.new):
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, worse = compare(documents[0], documents[1],
                           catalog.load_benchmark())
    print("\n".join(lines))
    print(f"{worse} pair(s) worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
