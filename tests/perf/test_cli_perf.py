"""``repro perf`` CLI: record/list/show/diff/check wiring.

``record`` is exercised with a monkeypatched collector (the real
benchmark run is the slow-marked smoke test); everything else runs
against synthetic profiles written through the real store.  The check
tests pin the acceptance criterion: non-zero exit on an injected
regression, zero on a healthy tree.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.perf.store import ProfileStore

from tests.perf.conftest import make_profile


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture
def store(tmp_path):
    return ProfileStore(str(tmp_path / "perf"))


def seed_store(store, *profiles):
    for profile in profiles:
        store.save(profile)
    return store.directory


class TestRecord:
    def test_record_saves_and_reports(self, store, monkeypatch):
        from repro.perf import collect

        fake = make_profile("a" * 40, 1000.0)
        # summarize() reads the raw sections.
        fake["raw"]["core"] = {
            "core_cycles_per_sec": 10000.0, "reps": 3, "steps": 4000,
            "reference_cycles_per_sec": 7700.0,
            "fast_vs_reference_speedup": 1.3,
        }
        fake["raw"]["figure3"] = {
            "figure3_serial_s": 10.0, "jobs": 2, "figure3_jobs_s": 7.7,
            "parallel_speedup": 1.3, "figure3_warm_cache_s": 0.05,
            "warm_cache_speedup": 200.0, "warm_cache_hit_rate": 1.0,
        }

        def fake_collect(quick=False, jobs=None, steps=None, reps=3,
                         sha=None):
            return fake

        monkeypatch.setattr(collect, "collect_profile", fake_collect)
        code, out = run_cli("perf", "record", "--dir", store.directory)
        assert code == 0
        assert ("a" * 40) in store
        assert store.load("latest") == fake
        assert f"sha {'a' * 12}" in out
        assert "10000 cycles/sec" in out


class TestListShow:
    def test_list_empty_store(self, store):
        code, out = run_cli("perf", "list", "--dir", store.directory)
        assert code == 0
        assert "no profiles" in out

    def test_list_rows(self, store):
        seed_store(store,
                   make_profile("a" * 40, 1.0),
                   make_profile("b" * 40, 2.0, quick=True))
        code, out = run_cli("perf", "list", "--dir", store.directory)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "a" * 12 in lines[0] and "b" * 12 in lines[1]
        assert "quick" in lines[1]

    def test_show_latest_and_json(self, store):
        seed_store(store, make_profile("a" * 40, 1.0))
        code, out = run_cli("perf", "show", "--dir", store.directory)
        assert code == 0
        assert "core_cycles_per_sec" in out
        code, out = run_cli("perf", "show", "--json",
                            "--dir", store.directory)
        assert code == 0
        assert json.loads(out)["git_sha"] == "a" * 40

    def test_show_missing_ref_fails(self, store, capsys):
        code, _ = run_cli("perf", "show", "feedface",
                          "--dir", store.directory)
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestDiff:
    def test_diff_healthy_exits_zero(self, store):
        seed_store(store,
                   make_profile("a" * 40, 1.0),
                   make_profile("b" * 40, 2.0))
        code, out = run_cli("perf", "diff", "a" * 40, "b" * 40,
                            "--dir", store.directory)
        assert code == 0
        assert f"{'a' * 12} -> {'b' * 12}" in out

    def test_diff_regression_exits_nonzero(self, store):
        seed_store(store,
                   make_profile("a" * 40, 1.0),
                   make_profile("b" * 40, 2.0,
                                core_cycles_per_sec=6000.0))
        code, out = run_cli("perf", "diff", "a" * 40, "b" * 40,
                            "--dir", store.directory)
        assert code == 1
        assert "regressed" in out


class TestCheck:
    def test_healthy_tree_exits_zero(self, store):
        # The CI shape: one fresh profile, no history -> floors only.
        seed_store(store, make_profile("a" * 40, 1.0))
        code, out = run_cli("perf", "check", "--dir", store.directory)
        assert code == 0
        assert "verdict: OK" in out

    def test_injected_regression_exits_nonzero(self, store):
        history = [make_profile(f"{i:x}" * 40, float(i)) for i in range(5)]
        bad = make_profile("f" * 40, 99.0,
                           core_cycles_per_sec=6000.0)  # -40% step
        seed_store(store, *history, bad)
        code, out = run_cli("perf", "check", "--dir", store.directory)
        assert code == 1
        assert "verdict: FAIL" in out
        assert "core_cycles_per_sec" in out

    def test_floor_violation_fails_without_history(self, store):
        seed_store(store, make_profile("a" * 40, 1.0,
                                       parallel_speedup=0.8))
        code, out = run_cli("perf", "check", "--dir", store.directory)
        assert code == 1
        assert "floor" in out

    def test_baseline_mode(self, store):
        seed_store(store,
                   make_profile("a" * 40, 1.0),
                   make_profile("b" * 40, 2.0,
                                core_cycles_per_sec=6000.0))
        code, out = run_cli("perf", "check", "b" * 40,
                            "--baseline", "a" * 40,
                            "--dir", store.directory)
        assert code == 1
        assert "baseline" in out
        code, _ = run_cli("perf", "check", "a" * 40,
                          "--baseline", "a" * 40,
                          "--dir", store.directory)
        assert code == 0

    def test_quick_flag_relaxes_tolerances(self, store):
        # -15% movement: a regression at 1x tolerance, noise at 2x.
        seed_store(store,
                   make_profile("a" * 40, 1.0),
                   make_profile("b" * 40, 2.0,
                                core_cycles_per_sec=8500.0))
        args = ["perf", "check", "b" * 40, "--baseline", "a" * 40,
                "--dir", store.directory]
        assert run_cli(*args)[0] == 1
        assert run_cli(*args, "--quick")[0] == 0

    def test_quick_profile_implies_relaxed_tolerances(self, store):
        seed_store(store,
                   make_profile("a" * 40, 1.0),
                   make_profile("b" * 40, 2.0, quick=True,
                                core_cycles_per_sec=8500.0))
        code, _ = run_cli("perf", "check", "b" * 40,
                          "--baseline", "a" * 40,
                          "--dir", store.directory)
        assert code == 0

    def test_window_flag_limits_history(self, store):
        ancient = [make_profile(f"{i:x}" * 40, float(i),
                                core_cycles_per_sec=20000.0)
                   for i in range(2)]
        recent = [make_profile(f"{i:x}" * 40, float(i))
                  for i in range(2, 6)]
        seed_store(store, *ancient, *recent)
        assert run_cli("perf", "check", "--window", "3",
                       "--dir", store.directory)[0] == 0
        assert run_cli("perf", "check", "--window", "6",
                       "--dir", store.directory)[0] == 1

    def test_empty_store_check_fails_cleanly(self, store, capsys):
        code, _ = run_cli("perf", "check", "--dir", store.directory)
        assert code == 1
        assert "empty" in capsys.readouterr().err
