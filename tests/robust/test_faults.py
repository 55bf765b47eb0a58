"""Fault plans: matching, hit accounting, env activation."""

import math

import pytest

from repro.robust.executor import supervise
from repro.robust import faults


class TestRules:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            faults.FaultRule(action="explode")

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            faults.FaultRule(action="raise", times=0)

    def test_matching_is_and_semantics(self):
        rule = faults.FaultRule(action="raise", publisher="dwork", seed=3)
        assert rule.matches("any", "dwork", 3)
        assert not rule.matches("any", "dwork", 4)
        assert not rule.matches("any", "boost", 3)

    def test_none_fields_match_everything(self):
        rule = faults.FaultRule(action="raise")
        assert rule.matches("s", "p", 0)


class TestPlanFile:
    def test_write_load_round_trip(self, tmp_path):
        path = faults.write_plan(
            tmp_path / "plan.json",
            [{"action": "hang", "seed": 1, "times": 2, "hang_seconds": 9.0}],
        )
        plan = faults.load_plan(path)
        assert plan.rules[0].action == "hang"
        assert plan.rules[0].hang_seconds == 9.0
        assert plan.path == path

    def test_write_plan_resets_hit_ledger(self, tmp_path):
        path = tmp_path / "plan.json"
        faults.write_plan(path, [{"action": "raise", "times": 1}])
        plan = faults.load_plan(path)
        assert plan.pick("s", "p", 0, ("raise",)) is not None
        assert plan.slot_path(0, 0).read_text() == "s\tp\t0\n"
        faults.write_plan(path, [{"action": "raise", "times": 1}])
        assert not plan.slot_path(0, 0).exists()
        assert plan.pick("s", "p", 0, ("raise",)) is not None

    def test_inactive_without_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert faults.active_plan() is None
        # The hooks are no-ops.
        faults.maybe_inject("s", "p", 0)


def _pick_raise_once(path):
    """Module-level so a process pool can pickle it (cross-process race
    on one plan's hit slots)."""
    plan = faults.load_plan(path)
    return plan.pick("s", "p", 0, ("raise",)) is not None


class TestHitAccounting:
    def test_bounded_rule_fires_exactly_n_times(self, tmp_path):
        path = faults.write_plan(
            tmp_path / "plan.json", [{"action": "raise", "times": 2}]
        )
        plan = faults.load_plan(path)
        assert plan.pick("s", "p", 0, ("raise",)) is not None
        assert plan.pick("s", "p", 0, ("raise",)) is not None
        assert plan.pick("s", "p", 0, ("raise",)) is None

    def test_unbounded_rule_always_fires_without_ledger(self, tmp_path):
        path = faults.write_plan(
            tmp_path / "plan.json", [{"action": "raise"}]
        )
        plan = faults.load_plan(path)
        for _ in range(5):
            assert plan.pick("s", "p", 0, ("raise",)) is not None
        assert faults.hit_counts(path) == {}

    def test_hits_survive_reload(self, tmp_path):
        """The ledger is on disk: a respawned process sees prior firings."""
        path = faults.write_plan(
            tmp_path / "plan.json", [{"action": "kill", "times": 1}]
        )
        assert faults.load_plan(path).pick("s", "p", 0, ("kill",)) is not None
        # A fresh load (as a respawned worker would do) sees the hit.
        assert faults.load_plan(path).pick("s", "p", 0, ("kill",)) is None

    def test_claim_lost_to_another_process_does_not_fire(self, tmp_path):
        """The check-and-consume is one atomic O_EXCL slot claim: if a
        concurrent worker already owns the rule's last slot, pick() must
        come up empty rather than over-fire the bounded rule."""
        path = faults.write_plan(
            tmp_path / "plan.json", [{"action": "raise", "times": 1}]
        )
        plan = faults.load_plan(path)
        # Simulate the race being lost: the only hit slot (rule 0,
        # hit 0) was claimed between our match and our fire.
        plan.slot_path(0, 0).touch()
        assert plan.pick("s", "p", 0, ("raise",)) is None

    def test_bounded_rule_never_over_fires_across_processes(self, tmp_path):
        """Eight concurrent cross-process picks against times=3 fire
        exactly three times — 'exactly N' holds under parallel pools
        even for rules without a seed filter."""
        from concurrent.futures import ProcessPoolExecutor

        path = faults.write_plan(
            tmp_path / "plan.json", [{"action": "raise", "times": 3}]
        )
        with ProcessPoolExecutor(max_workers=4) as pool:
            fired = list(pool.map(_pick_raise_once, [path] * 8))
        assert sum(fired) == 3


class TestHitCounts:
    """``hit_counts``/``total_hits``: the parent-side view of firings."""

    def test_empty_before_any_firing(self, tmp_path):
        path = faults.write_plan(
            tmp_path / "plan.json", [{"action": "raise", "times": 2}]
        )
        assert faults.hit_counts(path) == {}
        assert faults.total_hits(path) == 0

    def test_counts_per_rule(self, tmp_path):
        path = faults.write_plan(
            tmp_path / "plan.json",
            [
                {"action": "raise", "seed": 0, "times": 2},
                {"action": "nan", "seed": 1, "times": 1},
            ],
        )
        plan = faults.load_plan(path)
        assert plan.pick("s", "p", 0, ("raise",)) is not None
        assert plan.pick("s", "p", 0, ("raise",)) is not None
        assert plan.pick("s", "p", 1, ("nan",)) is not None
        assert faults.hit_counts(path) == {0: 2, 1: 1}
        assert faults.total_hits(plan) == 3

    def test_env_active_plan_is_the_default(self, tmp_path, monkeypatch):
        path = faults.write_plan(
            tmp_path / "plan.json", [{"action": "raise", "times": 1}]
        )
        monkeypatch.setenv(faults.ENV_VAR, str(path))
        faults.load_plan(path).pick("s", "p", 0, ("raise",))
        assert faults.total_hits() == 1
        monkeypatch.delenv(faults.ENV_VAR)
        assert faults.hit_counts() == {}

    def test_injected_runs_are_counted(self, make_spec, fault_env):
        fault_env([{"action": "nan", "seed": 1, "times": 1}])
        supervise([make_spec(seeds=(0, 1))])
        assert faults.total_hits() == 1


class TestInjection:
    def test_raise_action_raises_injected_fault(self, make_spec, fault_env):
        fault_env([{"action": "raise", "seed": 0}])
        with pytest.raises(faults.InjectedFault):
            supervise([make_spec(seeds=(0,))])

    def test_raise_respects_seed_selector(self, make_spec, fault_env):
        fault_env([{"action": "raise", "seed": 99}])
        records = supervise([make_spec(seeds=(0, 1))])[0]
        assert [r.seed for r in records] == [0, 1]

    def test_nan_action_corrupts_metrics_only(self, make_spec, fault_env):
        from repro.experiments.runner import records_equal

        clean = supervise([make_spec(seeds=(0, 1))])[0]
        fault_env([{"action": "nan", "seed": 1}])
        records = supervise([make_spec(seeds=(0, 1))])[0]
        assert math.isnan(records[1].kl) and math.isnan(records[1].ks)
        assert records[1].meta["fault_injected"] == "nan"
        # Untouched seeds are bit-identical; workload errors survive.
        assert records_equal(clean[0], records[0])
        assert records[1].workload_errors == clean[1].workload_errors
