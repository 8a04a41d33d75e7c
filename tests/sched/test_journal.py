"""The durable journal: appends, locking, torn tails, fsync routing."""

import json
import os

import pytest

from repro.sched.journal import (
    JOURNAL_SCHEMA,
    JOURNAL_SCHEMA_VERSION,
    JournalWriter,
    journal_fsync_enabled,
    journal_path,
    lock_journal,
    read_records,
)


def _data_records(directory):
    """Journal records minus the schema header."""
    return [r for r in read_records(directory) if "event" in r]


class TestWriter:
    def test_fresh_journal_gets_schema_header(self, tmp_path):
        directory = str(tmp_path / "camp")
        with JournalWriter(directory) as writer:
            writer.append({"event": "submit", "key": "k1"})
        records = read_records(directory)
        assert records[0] == {"schema": JOURNAL_SCHEMA,
                              "schema_version": JOURNAL_SCHEMA_VERSION}
        assert records[1]["event"] == "submit"

    def test_reopen_does_not_rewrite_header(self, tmp_path):
        directory = str(tmp_path)
        with JournalWriter(directory) as writer:
            writer.append({"event": "a"})
        with JournalWriter(directory) as writer:
            writer.append({"event": "b"})
        headers = [r for r in read_records(directory) if "schema" in r]
        assert len(headers) == 1

    def test_append_is_one_line_compact_json(self, tmp_path):
        directory = str(tmp_path)
        with JournalWriter(directory) as writer:
            writer.append({"event": "x", "key": "k"})
        with open(journal_path(directory), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert json.loads(lines[-1]) == {"event": "x", "key": "k"}
        assert " " not in lines[-1]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_records(str(tmp_path / "nothing")) == []


class TestTornTail:
    def test_torn_tail_is_skipped_on_replay(self, tmp_path):
        directory = str(tmp_path)
        with JournalWriter(directory) as writer:
            writer.append({"event": "a"})
            writer.append({"event": "b"})
        path = journal_path(directory)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "torn", "key": "k')  # no newline, no close
        events = [r["event"] for r in _data_records(directory)]
        assert events == ["a", "b"]

    def test_writer_repairs_torn_tail_before_appending(self, tmp_path):
        directory = str(tmp_path)
        with JournalWriter(directory) as writer:
            writer.append({"event": "a"})
        path = journal_path(directory)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "torn", "key')
        # A new writer must not concatenate its record with the fragment.
        with JournalWriter(directory) as writer:
            writer.append({"event": "after-tear"})
        events = [r["event"] for r in _data_records(directory)]
        assert events == ["a", "after-tear"]

    def test_replay_at_every_byte_offset_of_final_record(self, tmp_path):
        """Satellite: a crash can tear the final record at ANY byte.

        For every prefix length of the last line, replay must keep all
        earlier records, never raise, and only admit the final record
        when it is byte-complete.
        """
        directory = str(tmp_path)
        with JournalWriter(directory) as writer:
            for i in range(3):
                writer.append({"event": "done", "key": f"key-{i}",
                               "elapsed": 1.25})
        path = journal_path(directory)
        with open(path, "rb") as fh:
            intact = fh.read()
        body = intact.rstrip(b"\n")
        cut = body.rfind(b"\n")
        head, last = body[:cut + 1], body[cut + 1:]

        for offset in range(len(last) + 1):
            with open(path, "wb") as fh:
                fh.write(head + last[:offset])
            records = _data_records(directory)
            keys = [r["key"] for r in records]
            assert keys[:2] == ["key-0", "key-1"], f"offset {offset}"
            if offset == len(last):
                # Complete JSON even without the trailing newline.
                assert keys == ["key-0", "key-1", "key-2"]
            else:
                assert len(keys) == 2, (
                    f"offset {offset}: torn prefix {last[:offset]!r} "
                    f"must not parse as a record"
                )

    def test_garbage_and_non_dict_lines_are_skipped(self, tmp_path):
        directory = str(tmp_path)
        with JournalWriter(directory) as writer:
            writer.append({"event": "a"})
        with open(journal_path(directory), "a", encoding="utf-8") as fh:
            fh.write("\x00\xff garbage\n")
            fh.write('["a", "list"]\n')
            fh.write('42\n')
            fh.write('{"event": "b"}\n')
        events = [r["event"] for r in _data_records(directory)]
        assert events == ["a", "b"]

    def test_non_utf8_line_is_skipped(self, tmp_path):
        from repro.sched.state import load_state

        directory = str(tmp_path)
        with JournalWriter(directory) as writer:
            writer.append({"event": "submit", "key": "a"})
        with open(journal_path(directory), "ab") as fh:
            fh.write(b"\xff\xfe\x00\x80 not text\n")
        with JournalWriter(directory) as writer:
            writer.append({"event": "submit", "key": "b"})
        events = [r["key"] for r in _data_records(directory)]
        assert events == ["a", "b"]
        assert list(load_state(directory).tasks) == ["a", "b"]


class TestFsyncKnob:
    def test_fsync_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL_FSYNC", raising=False)
        assert journal_fsync_enabled() is False

    def test_fsync_flag_routes_through_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_FSYNC", "0")
        assert journal_fsync_enabled() is False
        monkeypatch.setenv("REPRO_JOURNAL_FSYNC", "1")
        assert journal_fsync_enabled() is True

    def test_appends_fsync_when_enabled(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (calls.append(fd), real_fsync(fd)))
        monkeypatch.setenv("REPRO_JOURNAL_FSYNC", "1")
        with JournalWriter(str(tmp_path)) as writer:  # header syncs too
            writer.append({"event": "a"})
            writer.append({"event": "b"})
        assert len(calls) == 3

    def test_appends_do_not_fsync_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL_FSYNC", raising=False)
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        with JournalWriter(str(tmp_path)) as writer:
            writer.append({"event": "a"})
        assert calls == []


class TestLock:
    def test_lock_is_reentrant_across_contexts(self, tmp_path):
        directory = str(tmp_path)
        with lock_journal(directory):
            pass
        with lock_journal(directory):  # a released lock can be retaken
            with JournalWriter(directory) as writer:
                writer.append({"event": "locked-append"})
        assert _data_records(directory)[0]["event"] == "locked-append"

    def test_lock_released_on_error(self, tmp_path):
        directory = str(tmp_path)
        with pytest.raises(RuntimeError):
            with lock_journal(directory):
                raise RuntimeError("boom")
        with lock_journal(directory):  # not deadlocked
            pass
