"""Deterministic fault injection for the campaign scheduler.

The scheduler's crash-recovery claims (no run lost, no run
double-counted, reports bit-identical to a fault-free execution) are
only worth what the harness that attacks them is worth.  This module
supplies that harness in two forms:

* **In-process chaos** (:func:`run_chaos_campaign`): N workers drained
  on a *virtual clock* by a deterministic controller.  Each worker's
  loop is decomposed into the sub-steps :mod:`repro.sched.worker`
  exposes (claim → work ticks with heartbeats → finish), and a seeded
  :class:`FaultPlan` fires faults *between* sub-steps — the exact
  interleavings real SIGKILLs produce, replayed identically on every
  run of the same seed.  Faults: kill a worker mid-lease, stall a
  worker (heartbeats stop, the lease expires, the stalled worker later
  finishes anyway — exercising the duplicate-terminal path), drop
  individual heartbeats, tear the journal tail mid-record, and corrupt
  result-store entries.
* **Real-process faults** (:func:`install_process_faults`): hooks for
  ``repro worker --chaos plan.json`` that SIGKILL the live worker
  process at a chosen point or drop its heartbeats — used by the CI
  chaos smoke job to exercise recovery across genuine process death.
* **Network faults** (:func:`chaos_submit`,
  :func:`install_service_faults`): attacks on the campaign service
  transport — dropped and half-written request frames, clients that
  disconnect before reading their ack, and a server that dies between
  accepting a submit and flushing its journal append (leaving a torn
  tail).  Because submission is content-addressed and idempotent, a
  clean retry after any of these must converge to exactly the same
  journal — and the same byte-identical report — as a fault-free
  filesystem submission.

The chaos suite (``tests/verify/test_chaos.py``) asserts, for every
fault mix: each submitted RunSpec reaches exactly one terminal state,
nothing is lost or double-counted, and the final campaign report is
byte-identical to the fault-free baseline.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sched.campaign import (
    CampaignConfig,
    default_result_store,
    submit_specs,
)
from repro.sched.journal import journal_path
from repro.sched.state import load_state
from repro.sched.worker import Worker

#: Fault kinds the in-process controller understands.
FAULT_KINDS = (
    "kill-worker",      # SIGKILL equivalent: the worker stops, mid-lease
    "stall-worker",     # hang: no heartbeats for `ticks`, then resume
    "drop-heartbeat",   # one heartbeat silently lost
    "tear-journal",     # truncate the journal tail mid-record
    "corrupt-cache",    # scribble over a stored result entry
)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: *what* happens to *whom* at which tick."""

    kind: str
    tick: int                    # controller tick at which it fires
    worker: int = 0              # target worker slot (kill/stall/drop)
    ticks: int = 0               # stall duration, in controller ticks
    fraction: float = 0.5        # how much of the torn record survives

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "tick": self.tick,
                "worker": self.worker, "ticks": self.ticks,
                "fraction": self.fraction}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Fault":
        return cls(kind=str(data["kind"]), tick=int(data["tick"]),
                   worker=int(data.get("worker", 0)),
                   ticks=int(data.get("ticks", 0)),
                   fraction=float(data.get("fraction", 0.5)))


@dataclass
class FaultPlan:
    """A seeded, serialisable fault schedule."""

    seed: int = 0
    faults: List[Fault] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_faults: int = 6,
        horizon: int = 40,
        n_workers: int = 2,
        kinds: Sequence[str] = FAULT_KINDS,
    ) -> "FaultPlan":
        """A reproducible plan: same seed, same faults, same ticks."""
        rng = random.Random(seed)
        faults = [
            Fault(
                kind=rng.choice(list(kinds)),
                tick=rng.randrange(1, max(2, horizon)),
                worker=rng.randrange(max(1, n_workers)),
                ticks=rng.randrange(2, 6),
                fraction=rng.uniform(0.1, 0.9),
            )
            for _ in range(n_faults)
        ]
        faults.sort(key=lambda f: (f.tick, f.kind, f.worker))
        return cls(seed=seed, faults=faults)

    def at(self, tick: int) -> List[Fault]:
        return [f for f in self.faults if f.tick == tick]

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(seed=int(data.get("seed", 0)),
                   faults=[Fault.from_dict(f)
                           for f in data.get("faults", [])])

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# ----------------------------------------------------------------------
# Fault primitives (also used directly by tests).
# ----------------------------------------------------------------------
def tear_journal_tail(directory: str, fraction: float = 0.5) -> bool:
    """Truncate the journal's final record mid-line, as a crashed writer
    would leave it.  ``fraction`` of the record's bytes survive (no
    trailing newline).  Returns ``False`` when there is nothing to tear.

    Replay skips the torn fragment; the task it described re-runs from
    the last intact record — recovery must converge to the same report
    because runs are deterministic and completion is idempotent.
    """
    path = journal_path(directory)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return False
    stripped = data.rstrip(b"\n")
    if not stripped:
        return False
    cut = stripped.rfind(b"\n")
    last = stripped[cut + 1:]
    keep = max(1, int(len(last) * max(0.0, min(fraction, 0.95))))
    with open(path, "wb") as handle:
        handle.write(stripped[:cut + 1] + last[:keep])
    return True


def corrupt_cache_entry(cache_directory: str, index: int = 0) -> Optional[str]:
    """Overwrite one stored result with garbage bytes (bit-rot /
    half-written entry).  Deterministic: entries are taken in sorted
    filename order, ``index`` modulo the population.  Returns the
    corrupted key, or ``None`` when the store is empty.

    ``ResultCache.get`` must treat the damage as a miss (quarantining
    the evidence), and report generation must recompute — never serve
    or crash on — the poisoned entry.
    """
    try:
        entries = sorted(
            name for name in os.listdir(cache_directory)
            if name.endswith(".json")
        )
    except FileNotFoundError:
        return None
    if not entries:
        return None
    name = entries[index % len(entries)]
    with open(os.path.join(cache_directory, name), "r+b") as handle:
        handle.seek(0)
        handle.write(b'{"corrupted by chaos": tru')
    return name[:-len(".json")]


# ----------------------------------------------------------------------
# The in-process chaos controller.
# ----------------------------------------------------------------------
class _VirtualClock:
    """Deterministic time for chaos runs; only the controller advances it."""

    def __init__(self, start: float = 1_000.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        self._now += dt
        return self._now


class _ChaosWorker:
    """One worker's decomposed loop, advanced one sub-step per tick.

    Phases: ``idle`` (try to claim) → ``working`` (``work_ticks``
    heartbeat ticks — where kills and stalls land mid-lease) →
    finish (journal the terminal record) → ``idle``.  A *stalled*
    worker skips ticks without heartbeating — its lease expires and is
    reclaimed — then wakes and finishes anyway, producing the late
    duplicate terminal record the first-wins replay must absorb.
    """

    def __init__(self, worker: Worker, work_ticks: int):
        self.worker = worker
        self.work_ticks = work_ticks
        self.task = None
        self.outcome = None
        self.ticks_left = 0
        self.alive = True
        self.stalled_until = -1
        self.drop_next_heartbeat = False

    def tick(self, index: int) -> bool:
        """Advance one sub-step; ``True`` if any journal write happened."""
        if not self.alive or index < self.stalled_until:
            return False
        if self.task is None:
            self.task = self.worker.claim_task()
            if self.task is None:
                return False
            self.ticks_left = self.work_ticks
            return True
        if self.ticks_left > 0:
            self.ticks_left -= 1
            if self.drop_next_heartbeat:
                self.drop_next_heartbeat = False
            else:
                self.worker.send_heartbeat(self.task)
            return True
        if self.outcome is None:
            self.outcome = self.worker.execute(self.task)
        self.worker.finish_task(self.task, self.outcome)
        self.task, self.outcome = None, None
        return True

    def kill(self) -> None:
        """SIGKILL equivalent: stop forever, journal nothing more.  The
        lease (if any) dies with the worker and must be reclaimed."""
        self.alive = False
        self.task, self.outcome = None, None


@dataclass
class ChaosOutcome:
    """What a chaos campaign did, for assertions."""

    report: Dict[str, Any]
    state: Any
    killed_workers: List[str] = field(default_factory=list)
    torn: int = 0
    corrupted: List[str] = field(default_factory=list)
    ticks: int = 0

    @property
    def report_bytes(self) -> bytes:
        from repro.experiments.export import fabric_report_bytes

        return fabric_report_bytes(self.report)


def run_chaos_campaign(
    directory: str,
    specs: Sequence[Any],
    run_fn: Callable[[Any], Any],
    plan: Optional[FaultPlan] = None,
    n_workers: int = 2,
    work_ticks: int = 2,
    tick_seconds: float = 1.0,
    lease_ttl: float = 3.0,
    max_attempts: int = 10,
    poison_threshold: int = 10,
    max_ticks: int = 4_000,
    config: Optional[CampaignConfig] = None,
) -> ChaosOutcome:
    """Drain ``specs`` through ``n_workers`` chaos-driven workers.

    Entirely deterministic: virtual clock, seeded plan, no threads, no
    real signals.  Killed workers are replaced (with fresh identities —
    feeding the poison detector distinct suspects) so the campaign
    always terminates; the loop runs until every task is terminal and
    asserts progress against ``max_ticks`` as a runaway backstop.

    The default ``max_attempts``/``poison_threshold`` are deliberately
    generous: for bit-identity against a fault-free baseline, an
    *environmental* fault (a kill, a stall) must never change a task's
    terminal state — only genuinely deterministic failures may.  Tests
    probing the bounded-retry and poison paths pass tight values
    explicitly (and give up the baseline comparison for those tasks).
    """
    clock = _VirtualClock()
    store = default_result_store(directory)
    config = config or CampaignConfig(
        name="chaos", lease_ttl=lease_ttl, max_attempts=max_attempts,
        poison_threshold=poison_threshold, backoff=tick_seconds,
    )
    submit_specs(directory, specs, config)

    def spawn(slot: int, generation: int) -> _ChaosWorker:
        worker = Worker(
            directory, cache=store,
            worker_id=f"chaos-w{slot}g{generation}",
            run_fn=run_fn, clock=clock.now, heartbeats=False,
        )
        return _ChaosWorker(worker, work_ticks=work_ticks)

    slots = [spawn(i, 0) for i in range(max(1, n_workers))]
    generations = [0] * len(slots)
    outcome = ChaosOutcome(report={}, state=None)
    plan = plan or FaultPlan(seed=0)

    tick = 0
    while tick < max_ticks:
        state = load_state(directory)
        if state.tasks and state.all_terminal():
            break
        for fault in plan.at(tick):
            slot = fault.worker % len(slots)
            if fault.kind == "kill-worker":
                target = slots[slot]
                if target.alive:
                    target.kill()
                    outcome.killed_workers.append(target.worker.worker_id)
                    generations[slot] += 1
                    slots[slot] = spawn(slot, generations[slot])
                    # The replacement joins after one lease TTL (a
                    # supervisor restart is never instant).
                    slots[slot].stalled_until = tick + int(
                        lease_ttl / tick_seconds) + 1
            elif fault.kind == "stall-worker":
                slots[slot].stalled_until = tick + max(1, fault.ticks)
            elif fault.kind == "drop-heartbeat":
                slots[slot].drop_next_heartbeat = True
            elif fault.kind == "tear-journal":
                if tear_journal_tail(directory, fault.fraction):
                    outcome.torn += 1
            elif fault.kind == "corrupt-cache":
                key = corrupt_cache_entry(store.directory, fault.tick)
                if key is not None:
                    outcome.corrupted.append(key)
        for chaos_worker in slots:
            chaos_worker.tick(tick)
        clock.advance(tick_seconds)
        tick += 1
    else:
        raise AssertionError(
            f"chaos campaign made no terminal progress in {max_ticks} "
            f"ticks: {load_state(directory).counts()}"
        )

    from repro.sched.campaign import campaign_report

    outcome.ticks = tick
    outcome.state = load_state(directory)
    outcome.report = campaign_report(directory, cache=store,
                                     run_fn=run_fn)
    return outcome


# ----------------------------------------------------------------------
# Real-process faults (``repro worker --chaos plan.json``).
# ----------------------------------------------------------------------
def install_process_faults(worker: Worker, plan: Dict[str, Any]) -> None:
    """Arm a live worker with self-inflicted faults, for smoke tests
    that need genuine process death.

    Plan keys (all optional):

    * ``kill_after_claims: N`` — SIGKILL this process right after its
      N-th successful claim (mid-lease, nothing journaled beyond the
      lease record).
    * ``kill_before_finish: N`` — SIGKILL right before journaling the
      N-th terminal record (the run executed; the result may already be
      cached — completion idempotency is what recovers it).
    * ``drop_heartbeats: true`` — never renew leases (a slow worker
      whose work outlives its TTL).
    """
    import signal as _signal

    counters = {"claims": 0, "finishes": 0}
    kill_after_claims = plan.get("kill_after_claims")
    kill_before_finish = plan.get("kill_before_finish")

    def _die() -> None:  # pragma: no cover - the process really dies
        os.kill(os.getpid(), _signal.SIGKILL)

    if kill_after_claims is not None:
        def on_claim(_worker: Worker, _task: Any) -> None:
            counters["claims"] += 1
            if counters["claims"] >= int(kill_after_claims):
                _die()
        worker.on_claim = on_claim

    if kill_before_finish is not None:
        def on_finish(_worker: Worker, _task: Any) -> None:
            counters["finishes"] += 1
            if counters["finishes"] >= int(kill_before_finish):
                _die()
        worker.on_finish = on_finish

    if plan.get("drop_heartbeats"):
        worker.on_heartbeat = lambda _worker, _task: False


# ----------------------------------------------------------------------
# Network faults (the campaign service transport).
# ----------------------------------------------------------------------
#: Fault kinds :func:`chaos_submit` can inject from the client side.
NETWORK_FAULT_KINDS = (
    "drop-frame",            # connect, send nothing, vanish
    "half-frame",            # send a truncated request line, then close
    "disconnect-mid-submit",  # full request sent, ack never read
    "kill-server-mid-submit",  # server dies post-append (needs arming)
)


def chaos_submit(
    address: str,
    specs: Sequence[Any],
    config: Optional[CampaignConfig] = None,
    kinds: Sequence[str] = NETWORK_FAULT_KINDS,
    token: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Submit ``specs`` over the service while attacking the transport.

    For each kind in ``kinds`` (in order, deterministically seeded), one
    faulty submission attempt is made with a raw socket — a dropped
    frame, a half-written frame, a full submit whose ack is never read,
    or (when the server is armed via :func:`install_service_faults`) a
    submit the server dies on after appending.  Then a *clean* retry
    through :class:`~repro.service.client.ServiceClient` converges: the
    journal is content-addressed, so however many of the faulty attempts
    actually landed records, the retry adds only what is missing and the
    final acked key set equals ``specs``.

    Returns ``{"injected": [...], "ack": {...}}`` — the faults that were
    actually delivered and the clean retry's submit response.
    """
    from repro.service.client import Endpoint, ServiceClient
    from repro.service.protocol import encode_frame, request_frame

    endpoint = Endpoint.parse(address)
    payloads = [spec.to_payload() for spec in specs]
    config_payload = config.to_dict() if config is not None else None
    rng = random.Random(seed)
    injected: List[str] = []
    for kind in kinds:
        if kind not in NETWORK_FAULT_KINDS:
            raise ValueError(f"unknown network fault kind {kind!r}")
        frame = request_frame("submit", token=token, specs=payloads,
                              config=config_payload)
        data = encode_frame(frame)
        try:
            sock = endpoint.connect(5.0)
        except OSError:
            # Server already gone — itself a fault the retry absorbs.
            injected.append(kind + ":no-connect")
            continue
        try:
            if kind == "drop-frame":
                pass  # the connection itself is the only thing sent
            elif kind == "half-frame":
                cut = max(1, int(len(data) * rng.uniform(0.1, 0.9)))
                sock.sendall(data[:cut])
            else:
                # Full frame on the wire; the ack is lost either because
                # we leave (disconnect-mid-submit) or because the server
                # dies before sending it (kill-server-mid-submit).
                sock.sendall(data)
                if kind == "kill-server-mid-submit":
                    try:
                        sock.settimeout(5.0)
                        sock.recv(65536)  # EOF/reset from the abort
                    except OSError:
                        pass
        except OSError:
            pass  # an abort mid-send is exactly the point
        finally:
            sock.close()
        injected.append(kind)
    client = ServiceClient(address, token=token)
    ack = client.submit(payloads, config)
    return {"injected": injected, "ack": ack}


def install_service_faults(
    server: Any,
    kills: int = 1,
    point: str = "submit:post-journal",
    tear: bool = True,
    tear_fraction: float = 0.5,
) -> Dict[str, int]:
    """Arm a :class:`~repro.service.server.CampaignServer` to die
    mid-submit.

    The first ``kills`` times the server reaches ``point`` (default:
    after the journal append, before the ack), it optionally tears the
    journal tail mid-record — the on-disk shape of a SIGKILL between
    accept and a completed flush — and aborts the connection with
    nothing replied.  Clients see a dead socket; the journal holds a
    torn record that replay must repair; an idempotent resubmission
    must restore the lost task.

    Returns the live counter dict (``{"kills": n}``) so tests can
    assert the faults actually fired (``kills`` reaches 0).
    """
    from repro.service.server import ServiceKilled

    remaining = {"kills": int(kills)}

    def hook(reached: str) -> None:
        if reached == point and remaining["kills"] > 0:
            remaining["kills"] -= 1
            if tear:
                tear_journal_tail(server.directory, tear_fraction)
            raise ServiceKilled(reached)

    server.chaos_hook = hook
    return remaining
