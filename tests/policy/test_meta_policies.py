"""Tests for the adaptive meta-policies: decision algorithms on
synthetic signal streams, end-to-end determinism on the real simulator,
and result-cache key distinctness."""

import pytest

from repro.core.config import SMTConfig
from repro.core.simulator import Simulator
from repro.experiments.cache import result_key
from repro.experiments.runner import RunBudget
from repro.policy import make_policy
from repro.policy.signals import IntervalSignals, PhaseDetector
from repro.workloads.mixes import standard_mix


def signals(ipc=4.0, iq_frac=0.3, wrong_path=0.05, misses=0,
            n_threads=4, cycles=100):
    """Synthetic interval with the given derived-metric values."""
    capacity = 64
    fetched = 1000
    return IntervalSignals(
        cycle_start=0,
        cycle_end=cycles,
        n_threads=n_threads,
        committed=int(ipc * cycles),
        control_committed=100,
        mispredicts=5,
        squashed=int(wrong_path * fetched),
        fetched=fetched,
        iq_occupancy=int(iq_frac * capacity),
        iq_capacity=capacity,
        outstanding_misses=misses,
        icache_blocked=0,
    )


# ----------------------------------------------------------------------
class TestHysteresis:
    def test_stays_on_icount_below_floor(self):
        policy = make_policy("HYSTERESIS:interval=100,dwell=2")
        for cycle in (100, 200, 300, 400):
            policy._decide(signals(iq_frac=0.05, wrong_path=0.01), cycle)
        assert policy.current == "ICOUNT"
        assert policy.switch_count == 0

    def test_dwell_defers_the_switch(self):
        policy = make_policy("HYSTERESIS:interval=100,dwell=3")
        heavy_wrong_path = signals(iq_frac=0.1, wrong_path=0.4)
        policy._decide(heavy_wrong_path, 100)
        assert policy.current == "ICOUNT"      # streak 1 of 3
        policy._decide(heavy_wrong_path, 200)
        assert policy.current == "ICOUNT"      # streak 2 of 3
        policy._decide(heavy_wrong_path, 300)
        assert policy.current == "BRCOUNT"     # streak 3: switch
        assert policy.switch_count == 1

    def test_interrupted_streak_resets(self):
        policy = make_policy("HYSTERESIS:interval=100,dwell=2")
        heavy = signals(iq_frac=0.1, wrong_path=0.4)
        calm = signals(iq_frac=0.05, wrong_path=0.01)
        policy._decide(heavy, 100)
        policy._decide(calm, 200)       # streak broken
        policy._decide(heavy, 300)      # streak 1 again
        assert policy.current == "ICOUNT"

    def test_miss_pressure_elects_misscount(self):
        policy = make_policy("HYSTERESIS:interval=100,dwell=1")
        policy._decide(signals(iq_frac=0.1, wrong_path=0.02, misses=8), 100)
        assert policy.current == "MISSCOUNT"


# ----------------------------------------------------------------------
class TestBandit:
    def test_samples_every_arm_before_exploiting(self):
        policy = make_policy("BANDIT:epsilon=0", seed=0)
        seen = []
        for i in range(len(policy.arm_names)):
            seen.append(policy.current)
            policy._decide(signals(ipc=2.0), (i + 1) * 150)
        assert sorted(seen) == sorted(policy.arm_names)

    def test_converges_on_best_arm(self):
        # phase_threshold high enough that the synthetic stream (whose
        # IPC depends on the chosen arm) stays one phase.
        policy = make_policy("BANDIT:epsilon=0,phase_threshold=4", seed=0)
        rewards = {"ICOUNT": 6.0, "BRCOUNT": 3.0, "MISSCOUNT": 2.0,
                   "RR": 1.0, "IQPOSN": 1.5}
        for i in range(30):
            policy._decide(signals(ipc=rewards[policy.current]),
                           (i + 1) * 150)
        assert policy.current == "ICOUNT"

    def test_ucb_converges_on_best_arm(self):
        policy = make_policy(
            "BANDIT:mode=ucb,ucb_c=0.1,phase_threshold=4", seed=0
        )
        rewards = {"ICOUNT": 2.0, "BRCOUNT": 6.0, "MISSCOUNT": 1.0,
                   "RR": 1.0, "IQPOSN": 1.0}
        for i in range(60):
            policy._decide(signals(ipc=rewards[policy.current]),
                           (i + 1) * 150)
        assert policy.current == "BRCOUNT"

    def test_per_phase_statistics(self):
        """Different phases learn different best arms."""
        policy = make_policy(
            "BANDIT:ICOUNT/BRCOUNT:epsilon=0,phase_threshold=0.3", seed=0
        )
        # Phase A: low IPC, empty queues; ICOUNT earns more.
        # Phase B: high IPC, clogged queues; BRCOUNT earns more.
        phase_a = {"ICOUNT": 2.0, "BRCOUNT": 0.5}
        phase_b = {"ICOUNT": 5.0, "BRCOUNT": 7.5}
        cycle = 0
        for _ in range(12):
            for _ in range(4):
                cycle += 150
                policy._decide(
                    signals(ipc=phase_a[policy.current], iq_frac=0.05),
                    cycle)
            for _ in range(4):
                cycle += 150
                policy._decide(
                    signals(ipc=phase_b[policy.current], iq_frac=0.9),
                    cycle)
        stats = policy._stats
        phases = {phase for phase, _ in stats}
        assert len(phases) >= 2
        # In at least one phase each arm dominates its rival.
        def mean(phase, arm):
            pulls, reward = stats.get((phase, arm), (0, 0.0))
            return reward / pulls if pulls else 0.0
        assert any(mean(p, "ICOUNT") > mean(p, "BRCOUNT") for p in phases)
        assert any(mean(p, "BRCOUNT") > mean(p, "ICOUNT") for p in phases)

    def test_same_seed_same_decisions(self):
        stream = [signals(ipc=float(2 + i % 3)) for i in range(40)]
        histories = []
        for _ in range(2):
            policy = make_policy("BANDIT:epsilon=0.3", seed=11)
            history = []
            for i, s in enumerate(stream):
                policy._decide(s, (i + 1) * 150)
                history.append(policy.current)
            histories.append(history)
        assert histories[0] == histories[1]

    def test_different_seed_can_differ(self):
        stream = [signals(ipc=float(2 + i % 3)) for i in range(60)]
        histories = []
        for seed in (1, 2):
            policy = make_policy("BANDIT:epsilon=0.5", seed=seed)
            history = []
            for i, s in enumerate(stream):
                policy._decide(s, (i + 1) * 150)
                history.append(policy.current)
            histories.append(history)
        assert histories[0] != histories[1]


# ----------------------------------------------------------------------
class TestTournament:
    def test_duel_cycle_and_counter(self):
        policy = make_policy("TOURNAMENT:ICOUNT/BRCOUNT:exploit=2")
        start = policy.counter
        # Sample A (ICOUNT) earns 2.0, sample B (BRCOUNT) earns 6.0:
        # the counter moves toward B and B is exploited.
        policy._decide(signals(ipc=2.0), 150)    # closes A's interval
        assert policy.current == "BRCOUNT"       # sampling challenger
        policy._decide(signals(ipc=6.0), 300)    # closes B's interval
        assert policy.counter == start - 1
        assert policy.current == "BRCOUNT"       # B leads, exploit
        # Exploit span, then back to sampling A.
        policy._decide(signals(ipc=6.0), 450)
        policy._decide(signals(ipc=6.0), 600)
        assert policy.current == "ICOUNT"

    def test_counter_saturates(self):
        policy = make_policy("TOURNAMENT:ICOUNT/BRCOUNT:exploit=1")
        for i in range(40):
            # A always wins: counter must stop at COUNTER_MAX.
            ipc = 6.0 if policy.current == "ICOUNT" else 2.0
            policy._decide(signals(ipc=ipc), (i + 1) * 150)
        assert policy.counter == policy.COUNTER_MAX
        assert policy.leader == "ICOUNT"


# ----------------------------------------------------------------------
class TestPhaseDetector:
    def test_stable_stream_is_one_phase(self):
        detector = PhaseDetector(threshold=0.25)
        for _ in range(20):
            assert detector.observe(signals(ipc=4.0, iq_frac=0.3)) == 0
        assert detector.to_dict()["phases"] == 1
        assert detector.transitions == 0

    def test_behaviour_jump_opens_new_phase(self):
        detector = PhaseDetector(threshold=0.25)
        detector.observe(signals(ipc=1.0, iq_frac=0.1))
        phase = detector.observe(signals(ipc=7.0, iq_frac=0.9))
        assert phase == 1
        assert detector.transitions == 1

    def test_recurring_phase_keeps_identity(self):
        detector = PhaseDetector(threshold=0.25)
        low = signals(ipc=1.0, iq_frac=0.1)
        high = signals(ipc=7.0, iq_frac=0.9)
        detector.observe(low)
        detector.observe(high)
        assert detector.observe(low) == 0
        assert detector.to_dict()["phases"] == 2

    def test_phase_count_bounded(self):
        detector = PhaseDetector(threshold=0.01, max_phases=4)
        for i in range(40):
            detector.observe(signals(ipc=(i % 8), iq_frac=(i % 5) / 5.0))
        assert detector.to_dict()["phases"] <= 4


# ----------------------------------------------------------------------
def _run(spec, seed=3, cycles=1500):
    cfg = SMTConfig(n_threads=4, fetch_policy=spec, fetch_threads=2,
                    seed=seed)
    sim = Simulator(cfg, standard_mix(4, seed=0))
    sim.run(warmup_cycles=200, measure_cycles=cycles,
            functional_warmup_instructions=4000)
    return sim


@pytest.mark.parametrize("spec", [
    "HYSTERESIS:interval=100,dwell=2",
    "BANDIT:interval=100",
    "BANDIT:interval=100,mode=ucb",
    "TOURNAMENT:ICOUNT/BRCOUNT:interval=100",
])
def test_meta_policies_bit_deterministic(spec):
    """Two identical runs agree on every commit and every switch."""
    a, b = _run(spec), _run(spec)
    assert a.stats.committed == b.stats.committed
    assert a.stats.ipc == b.stats.ipc
    ta, tb = a.policy_engine.telemetry(), b.policy_engine.telemetry()
    assert ta == tb
    assert ta["switch_events"] == tb["switch_events"]


def test_adaptive_run_commits_and_switches():
    sim = _run("BANDIT:interval=100", cycles=2500)
    stats = sim.policy_engine.telemetry()
    assert sim.stats.committed > 0
    assert stats["intervals"] >= 20
    assert sum(stats["choice_counts"].values()) == stats["intervals"]


def test_adaptive_results_identical_serial_vs_parallel():
    """A meta-policy run is a pure function of (config, workload): the
    worker pool must reproduce the serial path field-for-field."""
    from repro.experiments import parallel
    from repro.experiments.runner import run_configs

    budget = RunBudget(warmup_cycles=200, measure_cycles=1200,
                       functional_warmup_instructions=4000, rotations=2)
    configs = [
        (spec, SMTConfig(n_threads=2, fetch_policy=spec, fetch_threads=2))
        for spec in ("HYSTERESIS:interval=100",
                     "BANDIT:interval=100")
    ]
    try:
        parallel.configure(jobs=1, use_cache=False)
        serial = run_configs(configs, budget=budget)
        parallel.configure(jobs=2)
        parallel_ = run_configs(configs, budget=budget)
    finally:
        parallel.configure(jobs=None, use_cache=None)
    for a, b in zip(serial, parallel_):
        assert a.ipc == b.ipc
        assert [r.committed for r in a.results] \
            == [r.committed for r in b.results]


def test_adaptive_configs_have_distinct_cache_keys():
    budget = RunBudget()
    specs = ["ICOUNT", "HYSTERESIS", "HYSTERESIS:interval=100",
             "BANDIT", "BANDIT:mode=ucb", "TOURNAMENT:ICOUNT/BRCOUNT"]
    keys = {
        result_key(SMTConfig(n_threads=2, fetch_policy=spec), 0, budget)
        for spec in specs
    }
    assert len(keys) == len(specs)
