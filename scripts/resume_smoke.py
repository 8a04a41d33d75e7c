#!/usr/bin/env python
"""Kill-and-resume smoke test for durable experiment campaigns.

Launches ``repro experiment --jobs 1`` in durable mode as a subprocess
with a campaign directory (``--fabric-dir``), hard-kills it (SIGKILL —
simulating a crashed or OOM-killed campaign) as soon as the journal
records at least one completed run, then reruns the same command with
``--report`` and verifies that:

* no process of the killed command survives: its forked worker
  finishes the run in flight and then stops, because its parent is
  gone (the script waits for that, then checks the process group);
* once they are gone, the journal holds no ``leased`` task, so the
  rerun has no dead lease to wait out;
* the rerun exits 0 and every task in the campaign is done;
* no run that was done before the rerun was simulated again: each such
  key has exactly one ``lease`` record in the journal.

This is the end-to-end guarantee the campaign journal exists for: an
interrupted campaign loses at most the in-flight run.  The check runs
twice, untimed and with ``--timeout 120``: every drain forks its
workers, so both must pass.  The work directory is removed when both
pass and kept for inspection otherwise.

Run:  PYTHONPATH=src python scripts/resume_smoke.py [--experiment fig7]
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.experiments import export
from repro.sched.journal import read_records
from repro.sched.state import DONE, LEASED, load_state

#: fig7 --fast: five single-rotation points at 1-5 threads — small
#: enough for CI, long enough that a kill lands mid-batch.
DEFAULT_EXPERIMENT = "fig7"

#: Seconds the killed command's worker may take to finish its run.
SURVIVOR_GRACE = 60.0


def _survivors(group: int) -> list:
    """Pids of the live (not zombie) processes in process group
    ``group``, read from /proc."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue   # exited while we looked
        if fields[0] != "Z" and int(fields[2]) == group:
            pids.append(int(name))
    return pids


def _campaign_argv(experiment: str, directory: str, timeout: str,
                   report: str = "") -> list:
    argv = [
        sys.executable, "-m", "repro", "experiment", experiment, "--fast",
        "--jobs", "1", "--fabric-dir", directory,
    ]
    if timeout:
        argv += ["--timeout", timeout]
    if report:
        argv += ["--report", report]
    return argv


def _kill_and_resume(experiment: str, workdir: str, timeout: str,
                     first_done_timeout: float) -> list:
    """One kill-and-resume round in ``workdir``; returns its failures."""
    os.makedirs(workdir)
    directory = os.path.join(workdir, "campaign")
    report = os.path.join(workdir, "report.json")
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    mode = f"--timeout {timeout}" if timeout else "untimed"

    # Phase 1: start the campaign, kill it after the first completion.
    print(f"[1/3] launching durable {experiment} campaign, {mode} "
          f"(directory: {directory})")
    victim = subprocess.Popen(
        _campaign_argv(experiment, directory, timeout),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,   # its own process group, forks included
    )
    deadline = time.monotonic() + first_done_timeout
    while load_state(directory).counts()[DONE] == 0:
        if victim.poll() is not None:
            return [f"campaign exited (code {victim.returncode}) before "
                    "completing a single run"]
        if time.monotonic() > deadline:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()
            return ["no journaled completion before timeout"]
        time.sleep(0.1)

    victim.send_signal(signal.SIGKILL)
    victim.wait()
    deadline = time.monotonic() + SURVIVOR_GRACE
    while _survivors(victim.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = _survivors(victim.pid)
    if survivors:
        return [f"processes of the killed command survive: {survivors}"]
    state = load_state(directory)
    leased = sorted(task.key[:12] for task in state.iter_tasks()
                    if task.status == LEASED)
    if leased:
        return [f"the killed command left leased tasks: {leased}"]
    done_at_kill = {task.key for task in state.iter_tasks()
                    if task.status == DONE}
    print(f"[2/3] campaign SIGKILLed mid-batch with "
          f"{len(done_at_kill)} run(s) done; no process survives and no "
          f"task is leased")

    # Phase 2: rerun the same command; it resumes the campaign.
    started = time.monotonic()
    completed = subprocess.run(
        _campaign_argv(experiment, directory, timeout, report=report),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    wall = time.monotonic() - started
    print(completed.stdout)
    if completed.returncode != 0:
        return [f"rerun exited with code {completed.returncode}"]

    # Phase 3: every task done, and none done at kill time re-simulated.
    counts = load_state(directory).counts()
    document = export.load(report, export.FABRIC_SCHEMA)
    print(f"[3/3] rerun took {wall:.1f}s; "
          f"campaign {counts['done']}/{counts['total']} done, "
          f"report counts {document['counts']}")
    failures = []
    if counts[DONE] != counts["total"] or \
            document["counts"] != {"done": counts["total"]}:
        failures.append(f"rerun left unfinished tasks: {counts}")
    leases = {}
    for record in read_records(directory):
        if record.get("event") == "lease":
            leases[record["key"]] = leases.get(record["key"], 0) + 1
    rerun = sorted(key[:12] for key in done_at_kill if leases[key] != 1)
    if rerun:
        failures.append(f"runs done at kill time were leased again: {rerun}")
    if not failures:
        print(f"resume smoke OK ({mode}): killed at {len(done_at_kill)} "
              f"done, rerun finished {counts['total'] - len(done_at_kill)} "
              f"remaining in {wall:.1f}s")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", default=DEFAULT_EXPERIMENT)
    parser.add_argument("--first-done-timeout", type=float, default=300.0,
                        help="seconds to wait for the first journaled "
                             "completion before giving up")
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="repro-resume-smoke-")
    failures = []
    for timeout in ("", "120"):
        leg = os.path.join(workdir, f"timeout-{timeout or 'none'}")
        failures += _kill_and_resume(args.experiment, leg, timeout,
                                     args.first_done_timeout)
        if failures:
            break
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        print(f"work directory kept: {workdir}", file=sys.stderr)
        return 1
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
