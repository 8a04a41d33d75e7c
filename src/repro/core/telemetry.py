"""Time-series telemetry: periodic interval samples from a live simulator.

The paper's analysis (Sections 4-7) is read off internal, per-interval
state — how many instructions each thread holds in the pre-issue stages
(the quantity ICOUNT acts on), how full the instruction queues are, how
fetch bandwidth is shared between threads — not just end-of-run
averages.  :class:`TelemetrySampler` captures exactly that stream:
attach one to a :class:`~repro.core.simulator.Simulator` and every
``interval`` cycles it appends a :class:`TelemetrySample` carrying

* per-thread ICOUNT (instructions fetched but not yet issued) and the
  int/fp instruction-queue populations, sampled at the interval edge;
* outstanding D-cache misses summed over threads (MISSCOUNT's input);
* instructions fetched in the interval, total and per thread (and the
  per-thread fetch *share* derived from them);
* instructions issued and committed in the interval (commits also per
  thread, counted via the commit-listener chain so they are exact even
  outside the measurement window).

Overhead: sampling runs on whichever cycle loop applies, the fast one
included: :meth:`Simulator.run_cycles` runs it in chunks that end at
the sampler's interval edges and calls :meth:`TelemetrySampler.sample`
there, so the per-cycle cost is nil and real work happens only at
interval boundaries.  :meth:`Simulator.step` alone never samples.

Issued counts are deltas of ``Stats.issued_total`` and therefore only
advance while ``sim.measuring`` is true; each sample records the
``measuring`` flag so consumers can tell warmup intervals apart.

Samples serialise via :meth:`TelemetrySample.to_dict` /
:meth:`TelemetrySampler.to_rows`; the structured exporters in
:mod:`repro.experiments.export` embed them in schema-versioned run
documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.simulator import Simulator
from repro.core.uop import Uop


@dataclass
class TelemetrySample:
    """Counters for one sampling interval ``[cycle_start, cycle_end)``."""

    cycle_start: int
    cycle_end: int
    measuring: bool
    #: Per-thread instructions fetched but not yet issued, at the
    #: interval's closing edge (the ICOUNT policy input).
    icount: List[int]
    #: Instruction-queue populations at the closing edge.
    int_iq: int
    fp_iq: int
    #: Outstanding D-cache misses over all threads at the closing edge.
    outstanding_misses: int
    #: Interval deltas.
    fetched: int
    fetched_per_thread: List[int]
    issued: int
    committed: int
    committed_per_thread: List[int]

    @property
    def cycles(self) -> int:
        return self.cycle_end - self.cycle_start

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def fetch_share(self) -> List[float]:
        """Each thread's fraction of the interval's fetched instructions."""
        total = self.fetched
        if not total:
            return [0.0] * len(self.fetched_per_thread)
        return [n / total for n in self.fetched_per_thread]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cycle_start": self.cycle_start,
            "cycle_end": self.cycle_end,
            "measuring": self.measuring,
            "icount": list(self.icount),
            "int_iq": self.int_iq,
            "fp_iq": self.fp_iq,
            "outstanding_misses": self.outstanding_misses,
            "fetched": self.fetched,
            "fetched_per_thread": list(self.fetched_per_thread),
            "fetch_share": [round(s, 6) for s in self.fetch_share],
            "issued": self.issued,
            "committed": self.committed,
            "committed_per_thread": list(self.committed_per_thread),
            "ipc": round(self.ipc, 6),
        }


class TelemetrySampler:
    """Collects :class:`TelemetrySample` s from a live simulator.

    The sampler installs itself as ``sim.telemetry`` (read by
    :meth:`Simulator.run_cycles`) and registers a commit listener (for
    exact commit counts);
    :meth:`detach` removes both.  Listener registration composes with
    the tracer, metrics collector, and sanitizer, in any attach/detach
    order.
    """

    def __init__(self, sim: Simulator, interval: int = 100,
                 max_samples: int = 100_000, autostart: bool = True):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = interval
        self.max_samples = max_samples
        self.samples: List[TelemetrySample] = []
        self._attached = False
        #: The open interval's last cycle (read by
        #: ``Simulator.run_cycles``; ``None`` means never).
        self.next_sample_cycle: Optional[int] = None
        if autostart:
            self.attach()

    # ------------------------------------------------------------------
    def attach(self) -> None:
        if self._attached:
            return
        sim = self.sim
        if sim.telemetry is not None:
            raise RuntimeError("simulator already has a telemetry sampler")
        sim.add_commit_listener(self._on_commit)
        sim.telemetry = self
        self._attached = True
        self._open_interval(sim.cycle)

    def detach(self) -> None:
        """Close any partial interval and unhook from the simulator."""
        if not self._attached:
            return
        self.finish()
        sim = self.sim
        sim.telemetry = None
        sim.remove_commit_listener(self._on_commit)
        self._attached = False
        self.next_sample_cycle = None

    def finish(self) -> None:
        """Close the open interval early (e.g. at end of run).

        ``sim.cycle`` is the next *unexecuted* cycle, so the last
        executed one is ``sim.cycle - 1``.
        """
        if self._attached and self.sim.cycle > self._start:
            self._close_interval(self.sim.cycle - 1)

    # ------------------------------------------------------------------
    def _open_interval(self, cycle: int) -> None:
        sim = self.sim
        self._start = cycle
        # ``run_cycles`` samples once cycle ``c`` has run, so closing
        # at c covers [start, c + 1).
        self.next_sample_cycle = cycle + self.interval - 1
        self._seq_base = [t.next_seq for t in sim.threads]
        self._issued_base = sim.stats.issued_total
        self._stats_id = id(sim.stats)
        self._commits = 0
        self._commits_per_thread = [0] * len(sim.threads)

    def _close_interval(self, last_cycle: int) -> None:
        sim = self.sim
        end = last_cycle + 1
        stats = sim.stats
        # ``Simulator.run`` swaps in a fresh Stats object when the
        # measured window opens; a delta across the swap is meaningless,
        # so restart from zero in that case.
        issued_base = (
            self._issued_base if id(stats) == self._stats_id else 0
        )
        fetched_per_thread = [
            t.next_seq - base for t, base in zip(sim.threads, self._seq_base)
        ]
        if len(self.samples) < self.max_samples:
            self.samples.append(TelemetrySample(
                cycle_start=self._start,
                cycle_end=end,
                measuring=sim.measuring,
                icount=[t.unissued_count for t in sim.threads],
                int_iq=len(sim.int_queue.entries),
                fp_iq=len(sim.fp_queue.entries),
                outstanding_misses=sum(
                    t.misscount(last_cycle) for t in sim.threads
                ),
                fetched=sum(fetched_per_thread),
                fetched_per_thread=fetched_per_thread,
                issued=stats.issued_total - issued_base,
                committed=self._commits,
                committed_per_thread=list(self._commits_per_thread),
            ))
        self._open_interval(end)

    # ------------------------------------------------------------------
    # Hooks.
    # ------------------------------------------------------------------
    def sample(self, cycle: int) -> None:
        """Interval boundary (called from ``Simulator.run_cycles``)."""
        self._close_interval(cycle)

    def _on_commit(self, uop: Uop) -> None:
        self._commits += 1
        self._commits_per_thread[uop.tid] += 1

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    def measured(self) -> List[TelemetrySample]:
        """Only the samples taken inside the measurement window."""
        return [s for s in self.samples if s.measuring]

    def to_rows(self) -> List[Dict[str, Any]]:
        return [s.to_dict() for s in self.samples]

    def report(self, max_rows: int = 20) -> str:
        """Compact text table of the sampled stream (tail-truncated)."""
        samples = self.samples
        if not samples:
            return "telemetry: (no samples)"
        n_threads = len(samples[0].icount)
        head = (f"{'cycles':>13s} {'IPC':>5s} {'fetch':>5s} {'issue':>5s} "
                f"{'IQ int/fp':>9s} {'miss':>4s}  "
                f"icount[{n_threads}]        fetch-share")
        lines = [head]
        shown = samples[:max_rows]
        for s in shown:
            icounts = ",".join(str(c) for c in s.icount)
            share = ",".join(f"{x:.2f}" for x in s.fetch_share)
            lines.append(
                f"{s.cycle_start:>6d}-{s.cycle_end:<6d} {s.ipc:>5.2f} "
                f"{s.fetched:>5d} {s.issued:>5d} "
                f"{s.int_iq:>4d}/{s.fp_iq:<4d} {s.outstanding_misses:>4d}  "
                f"[{icounts}] [{share}]"
            )
        hidden = len(samples) - len(shown)
        if hidden > 0:
            lines.append(f"... {hidden} more interval(s)")
        return "\n".join(lines)
