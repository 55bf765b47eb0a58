"""Span trees: nesting, serialization, analytics, worker round-trip."""

import pickle
import time

import pytest

from repro.obs import trace
from repro.obs.trace import (
    Span,
    Stopwatch,
    best_of,
    capture,
    span,
    stage_totals,
    walk,
)


class TestEnablement:
    def test_disabled_by_default(self, tracing_disabled):
        assert not trace.enabled()

    def test_env_var_enables(self, monkeypatch):
        previous = trace.set_enabled(None)
        try:
            monkeypatch.setenv(trace.ENV_VAR, "1")
            assert trace.enabled()
            monkeypatch.delenv(trace.ENV_VAR)
            assert not trace.enabled()
        finally:
            trace.set_enabled(previous)

    def test_set_enabled_overrides_env(self, monkeypatch):
        monkeypatch.setenv(trace.ENV_VAR, "1")
        previous = trace.set_enabled(False)
        try:
            assert not trace.enabled()
        finally:
            trace.set_enabled(previous)

    def test_set_enabled_returns_previous(self):
        first = trace.set_enabled(True)
        second = trace.set_enabled(first)
        assert second is True


class TestSpanTree:
    def test_span_without_capture_is_shared_noop(self, tracing_disabled):
        # Same singleton every time: no per-call allocation when off.
        assert span("a") is span("b")
        with span("a") as inner:
            assert inner is None

    def test_capture_disabled_yields_none(self, tracing_disabled):
        with capture("trial") as root:
            assert root is None

    def test_nesting_builds_the_tree(self, tracing_enabled):
        with capture("trial", publisher="p", seed=3) as root:
            with span("publish"):
                with span("partition.dp", n=32, k=8):
                    pass
                with span("noise.perbin"):
                    pass
            with span("evaluate"):
                pass
        assert root.name == "trial"
        assert root.attrs == {"publisher": "p", "seed": 3}
        assert [c.name for c in root.children] == ["publish", "evaluate"]
        publish = root.children[0]
        assert [c.name for c in publish.children] == [
            "partition.dp", "noise.perbin",
        ]
        assert publish.children[0].attrs == {"n": 32, "k": 8}

    def test_monotonic_durations(self, tracing_enabled):
        with capture("trial") as root:
            with span("publish"):
                with span("inner"):
                    time.sleep(0.002)
        publish = root.children[0]
        assert root.seconds >= publish.seconds >= publish.children[0].seconds
        assert publish.children[0].seconds > 0.0

    def test_attrs_coerced_to_scalars(self, tracing_enabled):
        with capture("trial", arr=[1, 2], flag=True, none=None) as root:
            pass
        assert root.attrs == {"arr": "[1, 2]", "flag": True, "none": None}

    def test_nested_capture_restores_outer(self, tracing_enabled):
        with capture("outer") as outer:
            with span("a"):
                pass
            with capture("inner") as inner:
                with span("b"):
                    pass
            with span("c"):
                pass
        assert [c.name for c in outer.children] == ["a", "c"]
        assert [c.name for c in inner.children] == ["b"]

    def test_exception_still_closes_spans(self, tracing_enabled):
        with pytest.raises(ValueError):
            with capture("trial") as root:
                with span("x"):
                    raise ValueError("boom")
        assert [c.name for c in root.children] == ["x"]
        assert root.seconds > 0.0


class TestSerialization:
    def test_round_trip(self, tracing_enabled):
        with capture("trial", seed=1) as root:
            with span("publish"):
                with span("partition.dp", k=4):
                    pass
        payload = root.to_dict()
        rebuilt = Span.from_dict(payload)
        assert rebuilt == root

    def test_to_dict_omits_empty_fields(self):
        payload = Span(name="leaf", seconds=0.5).to_dict()
        assert payload == {"name": "leaf", "seconds": 0.5}

    def test_dict_form_pickles(self, trace_tree):
        assert pickle.loads(pickle.dumps(trace_tree)) == trace_tree


class TestAnalytics:
    def test_walk_yields_slash_paths(self, trace_tree):
        paths = [path for path, _ in walk(trace_tree)]
        assert paths[0] == "trial"
        assert "trial/publish/partition.dp" in paths
        assert "trial/evaluate" in paths

    def test_stage_totals(self, trace_tree):
        totals = stage_totals(trace_tree)
        assert totals["trial/publish"] == (1, 0.8)
        assert totals["trial/publish/partition.dp"] == (1, 0.6)

    def test_stage_totals_merges_repeated_stages(self):
        tree = {
            "name": "trial",
            "seconds": 1.0,
            "children": [
                {"name": "noise.tree", "seconds": 0.25},
                {"name": "noise.tree", "seconds": 0.5},
            ],
        }
        assert stage_totals(tree)["trial/noise.tree"] == (2, 0.75)


class TestTimers:
    def test_stopwatch_measures(self):
        with Stopwatch() as sw:
            time.sleep(0.005)
        assert sw.seconds >= 0.003

    def test_best_of_runs_n_times_and_returns_min(self):
        calls = []

        def fn():
            calls.append(1)

        seconds = best_of(fn, 4)
        assert len(calls) == 4
        assert seconds >= 0.0

    def test_best_of_clamps_repeats(self):
        calls = []
        best_of(lambda: calls.append(1), 0)
        assert len(calls) == 1


class TestPublisherSpans:
    """Every instrumented publisher records its documented stages."""

    EXPECTED = {
        "noisefirst": "partition.dp",
        "structurefirst": "partition.em",
        "boost": "noise.tree",
        "privelet": "transform.haar",
        "ahp": "noise.scaffold",
        "dawalite": "partition.em",
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_publish_records_stage_spans(self, name, tracing_enabled):
        from repro.baselines.ahp import Ahp
        from repro.baselines.boost import Boost
        from repro.baselines.dawa import DawaLite
        from repro.baselines.privelet import Privelet
        from repro.core import NoiseFirst, StructureFirst
        from repro.datasets.generators import step_histogram

        factories = {
            "noisefirst": NoiseFirst,
            "structurefirst": StructureFirst,
            "boost": Boost,
            "privelet": Privelet,
            "ahp": Ahp,
            "dawalite": DawaLite,
        }
        hist = step_histogram(32, 4, total=10_000, rng=3)
        with capture("trial") as root:
            with span("publish"):
                factories[name]().publish(hist, budget=0.5, rng=0)
        paths = {path for path, _ in walk(root.to_dict())}
        expected = f"trial/publish/{self.EXPECTED[name]}"
        assert any(p.startswith(expected) for p in paths), sorted(paths)


class TestWorkerRoundTrip:
    """Traces built inside pool workers ride home through pickle, and
    tracing never perturbs the statistics (bit-identity contract)."""

    @pytest.fixture()
    def spec(self):
        from repro.core import NoiseFirst
        from repro.datasets.generators import step_histogram
        from repro.experiments.spec import ExperimentSpec
        from repro.workloads.builders import unit_queries

        hist = step_histogram(16, 4, total=10_000, rng=7)
        return ExperimentSpec(
            name="traced",
            histogram=hist,
            publisher_factory=NoiseFirst,
            epsilon=0.5,
            workloads=(unit_queries(hist.size),),
            seeds=(0, 1, 2),
        )

    def test_parallel_traced_records_carry_trees(self, spec, monkeypatch):
        from repro.robust.executor import supervise

        monkeypatch.setenv(trace.ENV_VAR, "1")
        records = supervise([spec], n_jobs=2)[0]
        assert len(records) == len(spec.seeds)
        for record in records:
            tree = record.meta.get("trace")
            assert isinstance(tree, dict)
            paths = {path for path, _ in walk(tree)}
            assert "trial/publish" in paths
            assert "trial/publish/partition.dp" in paths
            assert "trial/evaluate" in paths

    def test_traced_matches_untraced_bit_for_bit(self, spec, monkeypatch):
        from repro.experiments.runner import records_equal
        from repro.robust.executor import supervise

        monkeypatch.delenv(trace.ENV_VAR, raising=False)
        plain = supervise([spec], n_jobs=1)[0]
        monkeypatch.setenv(trace.ENV_VAR, "1")
        traced = supervise([spec], n_jobs=2)[0]
        for a, b in zip(plain, traced):
            assert "trace" not in a.meta
            assert "trace" in b.meta
            assert records_equal(a, b), (a.seed, b.seed)


class TestSelfSeconds:
    def test_leaf_is_its_own_time(self):
        assert trace.self_seconds({"name": "a", "seconds": 0.5}) == 0.5

    def test_children_subtracted(self):
        node = {"name": "req", "seconds": 1.0, "children": [
            {"name": "a", "seconds": 0.3},
            {"name": "b", "seconds": 0.5},
        ]}
        assert trace.self_seconds(node) == pytest.approx(0.2)

    def test_only_direct_children_count(self):
        node = {"name": "req", "seconds": 1.0, "children": [
            {"name": "a", "seconds": 0.4, "children": [
                {"name": "deep", "seconds": 0.4},
            ]},
        ]}
        assert trace.self_seconds(node) == pytest.approx(0.6)

    def test_jitter_clamped_at_zero(self):
        node = {"name": "req", "seconds": 0.1, "children": [
            {"name": "a", "seconds": 0.2},
        ]}
        assert trace.self_seconds(node) == 0.0

    def test_live_capture_self_time_nonnegative(self, tracing_enabled):
        with trace.capture("root") as root:
            with trace.span("child"):
                pass
        assert trace.self_seconds(root.to_dict()) >= 0.0
