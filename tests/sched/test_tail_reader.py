"""The incremental journal reader behind ``load_state``, held against
the full-replay oracle (``read_records`` folded through
``CampaignState.apply``).

``load_state`` keeps, per process, the state replayed so far and the
offset past the last complete line, and parses only what was appended
since.  Whatever bytes land in the journal, and wherever the reads fall
between them, it must return exactly what a full replay returns.
"""

import json
import os
import tempfile
import threading

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sched import state as state_mod
from repro.sched.journal import JournalWriter, journal_path, read_records
from repro.sched.state import DONE, PENDING, CampaignState, load_state
from repro.verify.chaos import tear_journal_tail


def full_replay(directory):
    state = CampaignState()
    for record in read_records(directory):
        state.apply(record)
    return state


def encode(record):
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


def append_bytes(directory, data):
    with open(journal_path(directory), "ab") as handle:
        handle.write(data)


def write_journal(directory, *records):
    with JournalWriter(directory) as writer:
        for record in records:
            writer.append(record)


def submit(key):
    return {"event": "submit", "key": key, "label": key,
            "spec": {"rotation": 0}}


# ----------------------------------------------------------------------
# Random journals.
# ----------------------------------------------------------------------
KEYS = st.sampled_from(["k0", "k1", "k2"])
WORKERS = st.sampled_from(["w0", "w1"])
TIMES = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)

RECORDS = st.one_of(
    st.builds(lambda name, ttl: {"event": "campaign", "name": name,
                                 "config": {"lease_ttl": ttl}},
              st.sampled_from(["a", "b"]), TIMES),
    KEYS.map(submit),
    st.builds(lambda k, w, a, e: {"event": "lease", "key": k, "worker": w,
                                  "attempt": a, "expires": e},
              KEYS, WORKERS, st.integers(1, 3), TIMES),
    st.builds(lambda k, w, e: {"event": "heartbeat", "key": k,
                               "worker": w, "expires": e},
              KEYS, WORKERS, TIMES),
    st.builds(lambda k, w, e: {"event": "done", "key": k, "worker": w,
                               "elapsed": e},
              KEYS, WORKERS, TIMES),
    st.builds(lambda k, w: {"event": "failed", "key": k, "worker": w,
                            "failure": {"kind": "crash", "key": k,
                                        "message": "boom"}},
              KEYS, WORKERS),
    st.builds(lambda k, ws: {"event": "quarantine", "key": k,
                             "reason": "poison", "workers": ws},
              KEYS, st.lists(WORKERS, max_size=2)),
    st.builds(lambda k, r, w, t: {"event": "requeue", "key": k,
                                  "reason": r, "worker": w,
                                  "not_before": t},
              KEYS, st.sampled_from(["lease-expired", "retry:crash",
                                     "interrupted"]), WORKERS, TIMES),
    KEYS.map(lambda k: {"event": "reopen", "key": k}),
    st.builds(lambda w, s: {"event": "worker", "worker": w, "status": s},
              WORKERS, st.sampled_from(["started", "stopped"])),
    st.integers(0, 9).map(lambda n: {"event": "seed", "seed": n}),
    st.just({"event": "mystery"}),
    st.just({"schema": "repro.campaign_journal", "schema_version": 2}),
)

GARBAGE = st.one_of(
    st.binary(max_size=24).map(lambda b: b.replace(b"\n", b"") + b"\n"),
    st.sampled_from([b"[1, 2]\n", b"42\n", b'"text"\n', b"null\n", b"\n",
                     b"\xff\xfe\x00garbage\n", b'{"event": "do\n']),
)

LINES = st.lists(st.one_of(RECORDS.map(encode), GARBAGE), max_size=30)


@settings(max_examples=60, deadline=None)
@given(lines=LINES, data=st.data())
def test_incremental_state_equals_full_replay_after_every_append(lines,
                                                                 data):
    """Appends cut at arbitrary byte offsets (mid-line included), with a
    read after each one."""
    blob = b"".join(lines)
    cuts = data.draw(st.lists(st.integers(0, len(blob)), max_size=12))
    with tempfile.TemporaryDirectory() as directory:
        assert load_state(directory) == full_replay(directory)
        position = 0
        for cut in sorted(set(cuts)) + [len(blob)]:
            append_bytes(directory, blob[position:cut])
            position = cut
            assert load_state(directory) == full_replay(directory)


# ----------------------------------------------------------------------
# Damage and replacement.
# ----------------------------------------------------------------------
class TestTornTail:
    def test_torn_final_record_at_every_byte_offset(self, tmp_path):
        directory = str(tmp_path)
        write_journal(directory, submit("a"), submit("b"))
        path = journal_path(directory)
        with open(path, "rb") as handle:
            head = handle.read()
        load_state(directory)   # the reader now sits at the end of head
        last = encode({"event": "done", "key": "b", "worker": "w",
                       "elapsed": 1.0})
        for offset in range(len(last) + 1):
            with open(path, "wb") as handle:   # same file, rewritten
                handle.write(head + last[:offset])
            state = load_state(directory)
            assert state == full_replay(directory), f"offset {offset}"
            complete = offset >= len(last) - 1
            assert (state.tasks["b"].status == DONE) is complete

    def test_fragment_is_applied_to_the_returned_copy_only(self, tmp_path):
        directory = str(tmp_path)
        write_journal(directory, submit("a"))
        # A record torn just before its newline parses whole.
        append_bytes(directory, encode({"event": "done", "key": "a"})[:-1])
        assert load_state(directory).tasks["a"].status == DONE
        # The repair newline isolates it again: still the same record.
        write_journal(directory, submit("b"))
        state = load_state(directory)
        assert state == full_replay(directory)
        assert state.tasks["a"].status == DONE

    def test_tear_after_read_then_longer_appends(self, tmp_path):
        """The final record is rewritten in place *after* the reader
        consumed it, then appends grow the file past the old offset.
        A size check alone would resume mid-record."""
        directory = str(tmp_path)
        write_journal(directory, submit("a"), submit("b"),
                      {"event": "done", "key": "b", "worker": "w",
                       "elapsed": 1.0})
        assert load_state(directory).tasks["b"].status == DONE
        size = os.path.getsize(journal_path(directory))

        assert tear_journal_tail(directory, 0.5)
        write_journal(directory, submit("c"), submit("d"), submit("e"))
        assert os.path.getsize(journal_path(directory)) > size

        state = load_state(directory)
        assert state == full_replay(directory)
        assert state.tasks["b"].status == PENDING   # the torn done is gone
        assert state.order == ["a", "b", "c", "d", "e"]

    def test_shrunk_journal_replays_in_full(self, tmp_path):
        directory = str(tmp_path)
        write_journal(directory, submit("a"), submit("b"))
        load_state(directory)
        path = journal_path(directory)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:-1]))
        assert load_state(directory) == full_replay(directory)
        assert list(load_state(directory).tasks) == ["a"]

    def test_replaced_journal_replays_in_full(self, tmp_path):
        """A new file whose size and last line would pass for the old
        one: only its identity gives it away."""
        directory = str(tmp_path)
        write_journal(directory, submit("a"), submit("z"))
        assert list(load_state(directory).tasks) == ["a", "z"]
        path = journal_path(directory)
        with open(path, "rb") as handle:
            original = handle.read()
        replacement = str(tmp_path / "replacement.jsonl")
        with open(replacement, "wb") as handle:
            handle.write(original.replace(b'"a"', b'"b"')
                         + encode(submit("c")))
        os.replace(replacement, path)
        state = load_state(directory)
        assert state == full_replay(directory)
        assert list(state.tasks) == ["b", "z", "c"]

    def test_deleted_journal_is_an_empty_campaign(self, tmp_path):
        directory = str(tmp_path)
        write_journal(directory, submit("a"))
        load_state(directory)
        os.remove(journal_path(directory))
        assert load_state(directory) == CampaignState()


# ----------------------------------------------------------------------
# Copies, concurrency, bounds.
# ----------------------------------------------------------------------
class TestCache:
    def test_a_load_parses_only_what_was_appended(self, tmp_path,
                                                  monkeypatch):
        directory = str(tmp_path)
        write_journal(directory, *[submit(f"k{i}") for i in range(20)])
        load_state(directory)
        parsed = []
        real = state_mod.read_records

        def counting(*args, **kwargs):
            records = real(*args, **kwargs)
            parsed.append(len(records))
            return records

        monkeypatch.setattr(state_mod, "read_records", counting)
        assert len(load_state(directory).tasks) == 20
        assert parsed == []   # nothing new: nothing parsed
        write_journal(directory, {"event": "done", "key": "k3"})
        assert load_state(directory).tasks["k3"].status == DONE
        assert parsed == [1]

    def test_caller_mutations_do_not_reach_the_next_load(self, tmp_path):
        directory = str(tmp_path)
        write_journal(
            directory, {"event": "campaign", "name": "c",
                        "config": {"lease_ttl": 5.0}},
            submit("a"), submit("b"),
            {"event": "lease", "key": "b", "worker": "w1", "attempt": 1,
             "expires": 9.0},
            {"event": "worker", "worker": "w1", "status": "started"})
        expected = full_replay(directory)

        mine = load_state(directory)
        mine.apply({"event": "lease", "key": "a", "worker": "w2",
                    "attempt": 1, "expires": 3.0})
        mine.apply({"event": "campaign", "config": {"lease_ttl": 1.0}})
        mine.tasks["b"].lease.expires = 99.0
        mine.tasks["b"].suspects.add("w9")
        mine.tasks["b"].status = DONE
        mine.workers["w1"] = "stopped"
        mine.order.reverse()
        mine.duplicates = 7

        assert load_state(directory) == expected

    def test_readers_race_a_writer(self, tmp_path):
        directory = str(tmp_path)
        keys = [f"k{i:03d}" for i in range(150)]
        write_journal(directory)   # the schema header
        seen = []
        errors = []
        writing = threading.Event()
        writing.set()

        def reader():
            try:
                while writing.is_set():
                    seen.append(load_state(directory).order)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        with JournalWriter(directory) as writer:
            for key in keys:
                writer.append(submit(key))
        writing.clear()
        for thread in readers:
            thread.join()
        assert errors == []
        # Every read saw some prefix of the appends, never a gap.
        assert all(order == keys[:len(order)] for order in seen)
        assert load_state(directory) == full_replay(directory)
        assert load_state(directory).order == keys

    def test_cache_is_bounded(self, tmp_path):
        directories = [str(tmp_path / f"c{i}")
                       for i in range(state_mod._MAX_TAILS + 4)]
        for i, directory in enumerate(directories):
            write_journal(directory, submit(f"only-{i}"))
            load_state(directory)
        assert len(state_mod._TAILS) == state_mod._MAX_TAILS
        # Evicted journals still load correctly (in full).
        assert list(load_state(directories[0]).tasks) == ["only-0"]
