"""Tests for the pipeline tracer and the histogram analytics."""

import pytest

from repro.core.config import SMTConfig
from repro.core.histograms import Histogram, MetricsCollector
from repro.core.simulator import Simulator
from repro.core.trace import PipelineTracer, TraceRecord
from repro.isa.assembler import assemble

from tests.core.test_pipeline_timing import make_sim

LOOP = """
.text
_start:
    addi r1, r0, 1
loop:
    addi r2, r2, 1
    addi r3, r3, 1
    beqz r0, loop
"""


class TestHistogram:
    def test_basic_stats(self):
        h = Histogram("x")
        for v in (1, 2, 2, 3, 10):
            h.add(v)
        assert h.count == 5
        assert h.mean == pytest.approx(3.6)
        assert h.min == 1 and h.max == 10

    def test_percentiles(self):
        h = Histogram("x")
        for v in range(100):
            h.add(v)
        assert h.percentile(50) in (49, 50)
        assert h.percentile(99) >= 95
        assert h.percentile(0) == 0

    def test_bucketing(self):
        h = Histogram("x", bucket_width=10)
        h.add(5)
        h.add(14)
        h.add(15)
        assert h.buckets == {0: 1, 1: 2}

    def test_overflow_bucket_caps(self):
        h = Histogram("x", bucket_width=1, max_buckets=4)
        h.add(1000)
        assert max(h.buckets) == 3

    def test_merge(self):
        a, b = Histogram("x"), Histogram("x")
        a.add(1)
        b.add(3)
        a.merge(b)
        assert a.count == 2 and a.min == 1 and a.max == 3

    def test_merge_rejects_mismatched_width(self):
        with pytest.raises(ValueError):
            Histogram("x", 1).merge(Histogram("y", 2))

    def test_render_empty(self):
        assert "no samples" in Histogram("empty").render()

    def test_render_contains_bars(self):
        h = Histogram("x")
        for _ in range(5):
            h.add(2)
        out = h.render()
        assert "#" in out and "n=5" in out

    def test_render_shows_densest_buckets(self):
        # A long sparse head before the mode: the mode must still be
        # rendered (regression: render used to take the first max_rows
        # buckets in key order and hid it).
        h = Histogram("x")
        for v in range(20):
            h.add(v)          # 20 singleton buckets
        for _ in range(50):
            h.add(99)         # the mode, far out in the tail
        out = h.render(max_rows=12)
        assert "99" in out
        assert "     50 " in out
        # Shown rows stay in ascending key order.
        keys = [int(line.split()[0]) for line in out.splitlines()[1:]
                if line.strip() and line.split()[0].isdigit()]
        assert keys == sorted(keys)

    def test_render_hidden_bucket_count(self):
        h = Histogram("x")
        for v in range(30):
            h.add(v)
        out = h.render(max_rows=12)
        assert "18 more buckets" in out

    def test_to_dict(self):
        h = Histogram("lat", bucket_width=2)
        for v in (1, 2, 3, 9):
            h.add(v)
        d = h.to_dict()
        assert d["count"] == 4 and d["bucket_width"] == 2
        assert d["buckets"] == {"0": 1, "1": 2, "4": 1}
        assert d["min"] == 1 and d["max"] == 9

    def test_bad_bucket_width(self):
        with pytest.raises(ValueError):
            Histogram("x", bucket_width=0)

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(150)


class TestMetricsCollector:
    def test_collects_from_simulation(self):
        sim = make_sim(LOOP)
        collector = MetricsCollector(sim)
        for _ in range(100):
            sim.step()
        assert collector.queue_wait.count > 10
        assert collector.residency.count > 10
        assert collector.residency.mean >= 4  # 6-cycle min minus slack

    def test_fairness_single_thread(self):
        sim = make_sim(LOOP)
        collector = MetricsCollector(sim)
        for _ in range(60):
            sim.step()
        assert collector.fairness() == pytest.approx(1.0)

    def test_report_renders(self):
        sim = make_sim(LOOP)
        collector = MetricsCollector(sim)
        for _ in range(60):
            sim.step()
        report = collector.report()
        assert "queue wait" in report and "fairness" in report

    def test_detach_restores_listener(self):
        sim = make_sim(LOOP)
        sentinel = []
        sim.commit_listener = lambda u: sentinel.append(u)
        collector = MetricsCollector(sim)
        collector.detach()
        for _ in range(40):
            sim.step()
        assert sentinel  # original listener still active
        assert collector.residency.count == 0

    def test_chained_listeners(self):
        sim = make_sim(LOOP)
        sentinel = []
        sim.commit_listener = lambda u: sentinel.append(u)
        collector = MetricsCollector(sim)
        for _ in range(40):
            sim.step()
        assert sentinel and collector.residency.count == len(sentinel)


class TestPipelineTracer:
    def test_records_committed_instructions(self):
        sim = make_sim(LOOP)
        tracer = PipelineTracer(sim)
        for _ in range(60):
            sim.step()
        assert tracer.records
        first = tracer.records[0]
        assert first.fetch_c >= 0
        assert first.commit_c > first.fetch_c

    def test_records_squashed_wrong_path(self):
        source = """
        .text
        _start:
            beqz r0, target
            addi r1, r1, 1
            addi r2, r2, 1
        target:
            addi r3, r3, 1
        loop:
            j loop
        """
        sim = make_sim(source)
        tracer = PipelineTracer(sim)
        for _ in range(40):
            sim.step()
        squashed = [r for r in tracer.records if r.squashed]
        assert squashed
        assert all(r.commit_c == -1 for r in squashed)

    def test_render_shows_stage_letters(self):
        sim = make_sim(LOOP)
        tracer = PipelineTracer(sim)
        for _ in range(40):
            sim.step()
        text = tracer.render(0, 30)
        for letter in ("F", "D", "n", "I", "E", "C"):
            assert letter in text

    def test_window_filters_by_thread(self):
        sim = make_sim(LOOP)
        tracer = PipelineTracer(sim)
        for _ in range(40):
            sim.step()
        assert tracer.window(0, 40, tid=5) == []
        assert tracer.window(0, 40, tid=0)

    def test_max_records_cap(self):
        sim = make_sim(LOOP)
        tracer = PipelineTracer(sim, max_records=5)
        for _ in range(80):
            sim.step()
        assert len(tracer.records) == 5

    def test_lane_width_matches_window(self):
        record = TraceRecord(
            tid=0, seq=0, pc=0x10000, text="nop", wrong_path=False,
            squashed=False, fetch_c=2, decode_c=3, dispatch_c=4,
            issue_c=5, exec_c=8, complete_c=8, commit_c=9,
        )
        assert len(record.lane(0, 20)) == 20
        assert record.lane(0, 20)[2] == "F"
        assert record.lane(0, 20)[9] == "C"

    def test_detach_restores_chained_squash_listener(self):
        # Regression: detach() used to null the squash listener instead
        # of restoring the one it displaced.
        source = """
        .text
        _start:
            beqz r0, target
            addi r1, r1, 1
            addi r2, r2, 1
        target:
            addi r3, r3, 1
        loop:
            j loop
        """
        sim = make_sim(source)
        squashed_seen = []
        on_squash = squashed_seen.append
        sim.squash_listener = on_squash
        committed_seen = []
        on_commit = committed_seen.append
        sim.commit_listener = on_commit
        tracer = PipelineTracer(sim, include_squashed=True)
        tracer.detach()
        assert sim.squash_listener is on_squash
        assert sim.commit_listener is on_commit
        for _ in range(40):
            sim.step()
        # The original listeners survived the attach/detach round trip.
        assert squashed_seen and committed_seen
        assert not tracer.records

    def test_attached_tracer_chains_both_listeners(self):
        source = """
        .text
        _start:
            beqz r0, target
            addi r1, r1, 1
        target:
        loop:
            j loop
        """
        sim = make_sim(source)
        squashed_seen = []
        sim.squash_listener = squashed_seen.append
        tracer = PipelineTracer(sim, include_squashed=True)
        for _ in range(40):
            sim.step()
        tracer_squashes = [r for r in tracer.records if r.squashed]
        assert len(squashed_seen) == len(tracer_squashes) > 0

    def test_start_cycle_skips_early_records(self):
        sim = make_sim(LOOP)
        tracer = PipelineTracer(sim, start_cycle=25)
        for _ in range(60):
            sim.step()
        assert tracer.records
        assert all(r.commit_c >= 25 for r in tracer.records
                   if not r.squashed)


def cell_string(record, end=24):
    return "".join(record._cell(c) for c in range(end))


class TestTraceRecordCell:
    """The per-cycle stage lettering state machine, probed directly."""

    def make(self, **overrides):
        fields = dict(
            tid=0, seq=0, pc=0x10000, text="nop", wrong_path=False,
            squashed=False, fetch_c=2, decode_c=3, dispatch_c=4,
            issue_c=7, exec_c=9, complete_c=12, commit_c=15,
        )
        fields.update(overrides)
        return TraceRecord(**fields)

    def test_full_lifecycle_lettering(self):
        lane = cell_string(self.make())
        #       0123456789...
        assert lane[:5] == "  FDn"
        assert lane[5:7] == ".."      # queued, waiting to issue
        assert lane[7] == "I"
        assert lane[8] == "-"         # in flight to execute
        assert lane[9] == "E"
        assert lane[10:13] == "==="   # completing (multi-cycle)
        assert lane[13:15] == "WW"    # done, waiting to commit
        assert lane[15] == "C"
        assert lane[16:] == " " * 8   # gone after commit

    def test_back_to_back_stages_have_no_queue_wait(self):
        record = self.make(issue_c=5, exec_c=6, complete_c=7, commit_c=8)
        lane = cell_string(record, 10)
        assert lane == "  FDnIE=C "

    def test_single_cycle_execute_skips_completing(self):
        record = self.make(issue_c=5, exec_c=6, complete_c=6, commit_c=8)
        lane = cell_string(record, 10)
        assert lane == "  FDnIEWC "

    def test_squashed_row_places_x_at_last_cycle(self):
        record = self.make(squashed=True, issue_c=-1, exec_c=-1,
                           complete_c=-1, commit_c=-1)
        lane = cell_string(record, 10)
        # fetch/decode/dispatch then the squash marker at the last
        # recorded stage cycle, blank afterwards.
        assert lane[2:5] == "FDn"
        assert lane[4] == "n"
        assert "x" not in lane[:4]
        assert record._cell(record.last_cycle()) in ("n", "x")

    def test_squashed_after_dispatch_shows_x_then_blank(self):
        record = self.make(squashed=True, issue_c=6, exec_c=-1,
                           complete_c=-1, commit_c=-1)
        assert record.last_cycle() == 6
        lane = cell_string(record, 12)
        assert lane[6] == "x"
        assert lane[7:] == " " * 5

    def test_wrong_path_flag_carried(self):
        record = self.make(wrong_path=True)
        assert record.wrong_path

    def test_never_fetched_cycles_blank(self):
        record = self.make()
        assert record._cell(0) == " " and record._cell(1) == " "

    def test_unissued_record_queues_forever(self):
        record = self.make(issue_c=-1, exec_c=-1, complete_c=-1,
                           commit_c=-1)
        lane = cell_string(record, 12)
        assert lane[5:] == "." * 7


class TestHybridPolicy:
    def test_icount_brcount_runs(self):
        from repro.core.config import scheme
        from repro.workloads.mixes import standard_mix
        config = scheme("ICOUNT_BRCOUNT", 2, 8, n_threads=4)
        sim = Simulator(config, standard_mix(4, 0))
        result = sim.run(warmup_cycles=200, measure_cycles=1500,
                         functional_warmup_instructions=8000)
        assert result.committed > 500

    def test_ordering_weights_branches(self):
        from repro.core.queues import InstructionQueue
        from repro.core.thread import ThreadContext
        from repro.policy import make_policy
        program = assemble(".text\nloop:\n j loop")
        threads = [ThreadContext(t, program) for t in range(2)]
        threads[0].unissued_count = 4     # no branches
        threads[1].unissued_count = 1
        threads[1].unresolved_branches = 2  # 1 + 3*2 = 7 > 4
        int_q = InstructionQueue("int", 32, 32)
        fp_q = InstructionQueue("fp", 32, 32)
        order = make_policy("ICOUNT_BRCOUNT").order(threads, 0, 0, 2,
                                                     int_q, fp_q)
        assert [t.tid for t in order] == [0, 1]
