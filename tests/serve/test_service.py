"""QueryService application-layer behavior (no sockets).

The answers-match-numpy checks here are the deterministic anchor: a
range query's value must equal the direct sum over the published (noisy)
count vector, bit for bit, because both go through the same float64
prefix array.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.artifacts import publish_artifact
from repro.serve.service import QueryService, RequestError, _parse_query

from tests.serve.conftest import tiny_spec


def publish(service, **overrides):
    status, payload = service.publish({"spec": tiny_spec(**overrides).to_payload()})
    assert status == 200
    return payload


class TestParseQuery:
    def test_point_normalizes_to_one_bin_range(self):
        assert _parse_query({"bin": 3}, 0, 16) == ("point", 3, 4)

    def test_range_passes_through(self):
        assert _parse_query({"lo": 2, "hi": 9}, 0, 16) == ("range", 2, 9)

    @pytest.mark.parametrize(
        "item",
        [
            {},                        # neither form
            {"bin": 1, "lo": 0, "hi": 2},  # both forms
            {"bin": 16},               # out of domain
            {"bin": -1},
            {"bin": 1.5},              # non-integer
            {"bin": True},             # bool is not an int here
            {"lo": 2},                 # half a range
            {"lo": 5, "hi": 2},        # inverted
            {"lo": 0, "hi": 17},       # past the domain
            "not-an-object",
        ],
    )
    def test_bad_queries_rejected(self, item):
        with pytest.raises(RequestError) as exc_info:
            _parse_query(item, 7, 16)
        assert exc_info.value.status == 400
        assert "query #7" in exc_info.value.message


class TestPublish:
    def test_publish_returns_fingerprint_and_metadata(self, service, spec):
        payload = publish(service)
        assert payload["fingerprint"] == spec.fingerprint()
        assert payload["cached"] is False
        assert payload["n_bins"] == 16
        assert payload["epsilon"] == 0.5
        assert payload["spec_name"] == spec.name

    def test_second_publish_is_cached(self, service):
        publish(service)
        assert publish(service)["cached"] is True

    def test_bare_spec_body_accepted(self, service, spec):
        status, payload = service.publish(spec.to_payload())
        assert status == 200
        assert payload["fingerprint"] == spec.fingerprint()

    def test_bad_spec_is_400(self, service):
        with pytest.raises(RequestError) as exc_info:
            service.publish({"spec": {"dataset": "age"}})
        assert exc_info.value.status == 400

    def test_non_dict_body_is_400(self, service):
        with pytest.raises(RequestError) as exc_info:
            service.publish(["spec"])
        assert exc_info.value.status == 400


class TestQuery:
    def test_answers_match_direct_numpy_sums(self, service, spec):
        fp = publish(service)["fingerprint"]
        counts = publish_artifact(spec).counts
        queries = [{"bin": 5}, {"lo": 2, "hi": 11}, {"lo": 0, "hi": 16},
                   {"lo": 7, "hi": 7}]
        status, payload = service.query(
            {"tenant": "t", "fingerprint": fp, "queries": queries}
        )
        assert status == 200
        values = [r["value"] for r in payload["results"]]
        assert values[0] == pytest.approx(float(counts[5]))
        assert values[1] == pytest.approx(float(np.sum(counts[2:11])))
        assert values[2] == pytest.approx(float(np.sum(counts)))
        assert values[3] == 0.0

    def test_inline_spec_publishes_on_demand(self, service, spec):
        status, payload = service.query({
            "tenant": "t",
            "spec": spec.to_payload(),
            "queries": [{"bin": 0}],
        })
        assert status == 200
        assert payload["fingerprint"] == spec.fingerprint()

    def test_unknown_fingerprint_is_404(self, service):
        with pytest.raises(RequestError) as exc_info:
            service.query({
                "tenant": "t", "fingerprint": "f" * 64,
                "queries": [{"bin": 0}],
            })
        assert exc_info.value.status == 404

    def test_evicted_fingerprint_republishes_transparently(self, spec):
        service = QueryService(cache_entries=1, default_tenant_budget=10.0)
        fp = publish(service)["fingerprint"]
        # Publishing a second spec evicts the first from the 1-slot cache.
        publish(service, seed=4)
        assert fp not in service.cache
        status, payload = service.query(
            {"tenant": "t", "fingerprint": fp, "queries": [{"bin": 5}]}
        )
        assert status == 200
        expected = float(publish_artifact(spec).counts[5])
        assert payload["results"][0]["value"] == pytest.approx(expected)

    @pytest.mark.parametrize(
        "payload",
        [
            {"queries": [{"bin": 0}]},                      # no tenant
            {"tenant": "", "queries": [{"bin": 0}]},        # empty tenant
            {"tenant": "t", "queries": []},                 # no queries
            {"tenant": "t", "queries": "all"},              # wrong type
            {"tenant": "t"},                                # nothing to do
        ],
    )
    def test_malformed_query_bodies_are_400(self, service, payload):
        publish(service)
        with pytest.raises(RequestError) as exc_info:
            service.query(payload)
        assert exc_info.value.status == 400

    def test_bad_query_rejected_before_any_debit(self, service):
        fp = publish(service)["fingerprint"]
        with pytest.raises(RequestError):
            service.query({
                "tenant": "t", "fingerprint": fp,
                "queries": [{"bin": 0}, {"bin": 99}],
            })
        # Validation failed, so nothing was charged for query #0 either.
        assert service.tenants.accountant("t") is None or (
            service.tenants.accountant("t").spent == 0.0
        )


class TestBudgets:
    def test_exhaustion_is_429_with_partial_answers(self, service):
        fp = publish(service)["fingerprint"]  # epsilon = 0.5
        service.tenants.register("capped", 1.6)  # quota: 3 answers
        status, payload = service.query({
            "tenant": "capped", "fingerprint": fp,
            "queries": [{"bin": i} for i in range(5)],
        })
        assert status == 429
        assert payload["answered"] == 3
        assert payload["refused"] == 2
        statuses = [r["status"] for r in payload["results"]]
        assert statuses == ["ok", "ok", "ok", "exhausted", "exhausted"]

    def test_each_answer_debits_exactly_once(self, service):
        fp = publish(service)["fingerprint"]
        service.query({
            "tenant": "t", "fingerprint": fp,
            "queries": [{"bin": 0}, {"bin": 1}],
        })
        acc = service.tenants.accountant("t")
        assert acc.spent == pytest.approx(1.0)  # 2 × 0.5
        assert len(acc.ledger) == 2

    def test_refused_query_spends_nothing(self, service):
        fp = publish(service)["fingerprint"]
        service.tenants.register("capped", 0.6)
        status, _ = service.query({
            "tenant": "capped", "fingerprint": fp,
            "queries": [{"bin": 0}, {"bin": 1}],
        })
        assert status == 429
        acc = service.tenants.accountant("capped")
        assert acc.spent == pytest.approx(0.5)

    def test_remaining_decreases_monotonically(self, service):
        fp = publish(service)["fingerprint"]
        _, payload = service.query({
            "tenant": "t", "fingerprint": fp,
            "queries": [{"bin": 0}, {"bin": 1}, {"bin": 2}],
        })
        remaining = [r["remaining"] for r in payload["results"]]
        assert remaining == sorted(remaining, reverse=True)

    def test_register_tenant_conflict_is_409(self, service):
        service.register_tenant({"name": "a", "budget": 2.0})
        with pytest.raises(RequestError) as exc_info:
            service.register_tenant({"name": "a", "budget": 3.0})
        assert exc_info.value.status == 409


class TestIdempotency:
    """Keys are tenant-scoped, content-bound, and race-safe."""

    def test_replay_is_free_and_returns_original_answer(self, service):
        fp = publish(service)["fingerprint"]
        body = {"tenant": "t", "fingerprint": fp,
                "queries": [{"bin": 1}, {"lo": 0, "hi": 8}]}
        status, first = service.query(dict(body), idempotency_key="req-1")
        assert status == 200
        spent = service.tenants.accountant("t").spent
        status, second = service.query(dict(body), idempotency_key="req-1")
        assert status == 200
        assert all(r["replayed"] for r in second["results"])
        assert [r["value"] for r in second["results"]] == [
            r["value"] for r in first["results"]
        ]
        assert service.tenants.accountant("t").spent == spent

    def test_key_reuse_with_different_bounds_is_409(self, service):
        """A paid key cannot harvest fresh answers for other queries."""
        fp = publish(service)["fingerprint"]
        service.query(
            {"tenant": "t", "fingerprint": fp, "queries": [{"bin": 1}]},
            idempotency_key="req-1",
        )
        spent = service.tenants.accountant("t").spent
        with pytest.raises(RequestError) as exc_info:
            service.query(
                {"tenant": "t", "fingerprint": fp,
                 "queries": [{"lo": 0, "hi": 16}]},
                idempotency_key="req-1",
            )
        assert exc_info.value.status == 409
        assert service.tenants.accountant("t").spent == spent

    def test_key_reuse_with_different_artifact_is_409(self, service):
        fp = publish(service)["fingerprint"]
        other = publish(service, seed=4)["fingerprint"]
        service.query(
            {"tenant": "t", "fingerprint": fp, "queries": [{"bin": 1}]},
            idempotency_key="req-1",
        )
        with pytest.raises(RequestError) as exc_info:
            service.query(
                {"tenant": "t", "fingerprint": other,
                 "queries": [{"bin": 1}]},
                idempotency_key="req-1",
            )
        assert exc_info.value.status == 409

    def test_same_key_from_other_tenant_charges_independently(
        self, service
    ):
        """No cross-tenant collisions: keys are scoped per tenant."""
        fp = publish(service)["fingerprint"]
        body = {"fingerprint": fp, "queries": [{"bin": 1}]}
        service.query(dict(body, tenant="a"), idempotency_key="shared")
        status, payload = service.query(
            dict(body, tenant="b"), idempotency_key="shared"
        )
        assert status == 200
        assert not any(r.get("replayed") for r in payload["results"])
        assert service.tenants.accountant("a").spent == \
            pytest.approx(0.5)
        assert service.tenants.accountant("b").spent == \
            pytest.approx(0.5)

    def test_concurrent_same_key_charges_exactly_once(self, service):
        """Racing retries of one keyed request never double-charge."""
        import threading

        fp = publish(service)["fingerprint"]
        body = {"tenant": "t", "fingerprint": fp,
                "queries": [{"lo": 2, "hi": 9}]}
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        outcomes, errors = [], []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                status, payload = service.query(
                    dict(body), idempotency_key="raced"
                )
                with lock:
                    outcomes.append((status, payload["results"][0]))
            except Exception as exc:  # noqa: BLE001 - asserted below
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=worker) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, f"worker errors: {errors[:3]}"
        assert len(outcomes) == n_threads
        values = {result["value"] for _status, result in outcomes}
        assert len(values) == 1  # everyone sees the one answer
        fresh = [
            result for _status, result in outcomes
            if not result.get("replayed")
        ]
        assert len(fresh) == 1  # exactly one charge won the race
        acc = service.tenants.accountant("t")
        assert acc.spent == pytest.approx(0.5)
        assert len(acc.ledger) == 1

    def test_failed_charge_releases_the_key_for_retry(self, service):
        """A refused (exhausted) attempt does not settle the key — the
        retry is refused again, never answered replayed-for-free."""
        fp = publish(service)["fingerprint"]
        service.tenants.register("broke", 0.1)  # below one 0.5 query
        for _ in range(2):
            status, payload = service.query(
                {"tenant": "broke", "fingerprint": fp,
                 "queries": [{"bin": 0}]},
                idempotency_key="later",
            )
            assert status == 429
            assert payload["results"][0]["status"] == "exhausted"
            assert "replayed" not in payload["results"][0]


class TestObservability:
    def test_query_metrics_count_outcomes(self, service):
        fp = publish(service)["fingerprint"]
        service.tenants.register("capped", 1.1)
        service.query({
            "tenant": "capped", "fingerprint": fp,
            "queries": [{"bin": i} for i in range(4)],
        })
        queries = service.registry.get("repro_serve_queries_total")
        assert queries.labels(status="ok").value == 2
        assert queries.labels(status="exhausted").value == 2
        denials = service.registry.get("repro_serve_budget_denials_total")
        assert denials.labels(tenant="capped").value == 2

    def test_cache_metrics_track_hit_miss(self, service):
        publish(service)
        publish(service)
        events = service.registry.get("repro_serve_cache_events_total")
        assert events.labels(event="miss").value == 1
        assert events.labels(event="hit").value == 1

    def test_stats_snapshot_shape(self, service):
        publish(service)
        status, payload = service.stats()
        assert status == 200
        assert payload["cache"]["entries"] == 1
        assert payload["known_specs"] == 1
        assert payload["uptime_seconds"] >= 0

    def test_metrics_text_is_prometheus(self, service):
        publish(service)
        text = service.metrics_text()
        assert "# TYPE repro_serve_cache_events_total counter" in text

    def test_stats_carries_slo_and_cache_entries(self, service):
        published = publish(service)
        _status, payload = service.stats()
        assert payload["slo"]["objectives"].keys() == {
            "latency", "error", "shed"
        }
        entries = payload["cache_entries"]
        assert [e["fingerprint"] for e in entries] == [
            published["fingerprint"]
        ]

    def test_cache_hit_ratio_gauge(self, service):
        publish(service)  # miss
        publish(service)  # hit
        service.refresh_gauges()
        ratio = service.registry.get("repro_serve_cache_hit_ratio")
        assert ratio.value == pytest.approx(0.5)

    def test_admission_gauges_track_snapshot(self, service):
        class _FakeAdmission:
            def snapshot(self):
                return {"inflight": 3, "queued": 2, "draining": True}

        service.attach_admission(_FakeAdmission())
        service.refresh_gauges()
        reg = service.registry
        assert reg.get("repro_serve_admission_inflight").value == 3
        assert reg.get("repro_serve_admission_queued").value == 2
        assert reg.get("repro_serve_admission_draining").value == 1.0

    def test_rehydrate_eviction_is_counted(self, tmp_path):
        """Warm-restart pulls must tally the evictions they cause.

        A 1-slot cache with a durable store: rehydrating a spilled
        artifact evicts the resident one, and that eviction must land
        in ``repro_serve_cache_events_total`` exactly like an insert-
        or byte-bound eviction would.
        """
        service = QueryService(
            cache_entries=1, default_tenant_budget=50.0,
            state_dir=tmp_path,
        )
        first = publish(service, seed=3)["fingerprint"]
        second = publish(service, seed=4)["fingerprint"]
        assert service.cache.fingerprints() == (second,)
        events = service.registry.get("repro_serve_cache_events_total")
        before = events.labels(event="eviction").value
        # Querying the spilled artifact rehydrates it, evicting the
        # resident one from the 1-slot cache.
        status, payload = service.query({
            "tenant": "t", "fingerprint": first,
            "queries": [{"bin": 0}],
        })
        assert status == 200
        assert service.cache.fingerprints() == (first,)
        assert events.labels(event="eviction").value == before + 1
        assert events.labels(event="rehydrate").value >= 1


class TestDebugEndpoint:
    def test_debug_snapshot_shape(self, service):
        published = publish(service)
        status, payload = service.query({
            "tenant": "alpha", "fingerprint": published["fingerprint"],
            "queries": [{"bin": 0}],
        }, idempotency_key="dbg-1")
        assert status == 200
        status, debug = service.debug()
        assert status == 200
        assert debug["admission"] is None  # no transport attached
        assert debug["cache"]["stats"]["entries"] == 1
        assert debug["cache"]["entries"][0]["fingerprint"] == (
            published["fingerprint"]
        )
        assert debug["seen_keys"] == 1
        assert debug["slo"]["window_seconds"] > 0
        assert debug["trace_enabled"] in (True, False)
        assert debug["slowest_requests"] == []
        assert debug["access_log"] is None  # not configured here
        assert debug["recovery"] == {}

    def test_debug_reports_access_log_info(self, tmp_path):
        service = QueryService(
            cache_entries=2, default_tenant_budget=10.0,
            access_log=tmp_path / "access.log",
        )
        service.telemetry.begin_request("GET", "/healthz", "r1")
        service.telemetry.end_request("health", 200)
        _status, debug = service.debug()
        assert debug["access_log"]["lines"] == 1
