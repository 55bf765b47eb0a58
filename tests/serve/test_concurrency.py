"""Concurrency invariants of the serving stack.

N threaded clients hammer one live server; afterwards the books must
balance exactly: a tenant with budget ``K·ε`` gets exactly ``K``
answers no matter how its queries interleave, the ledger debits once
per answer, the metrics counters sum to the query count, and every
response is internally consistent (no torn reads of the shared
artifact).
"""

from __future__ import annotations

import threading

import pytest

from repro.serve.artifacts import publish_artifact
from repro.serve.client import ServeClient

from tests.serve.conftest import tiny_spec


def hammer(n_threads, per_thread, issue):
    """Run ``issue(thread_index, query_index)`` from N threads; collect."""
    results = []
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_threads)

    def worker(thread_index):
        barrier.wait()  # maximize interleaving
        for query_index in range(per_thread):
            try:
                out = issue(thread_index, query_index)
                with lock:
                    results.append(out)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                with lock:
                    errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not errors, f"worker errors: {errors[:3]}"
    return results


class TestBudgetUnderContention:
    def test_exactly_k_answers_for_budget_k_epsilon(self, live_server):
        """8 threads race one tenant with quota 10; exactly 10 win."""
        server, client = live_server
        _code, published = client.publish(tiny_spec().to_payload())
        fp = published["fingerprint"]
        epsilon = 0.5
        quota = 10
        client.register_tenant("contested", quota * epsilon)
        n_threads, per_thread = 8, 4  # 32 attempts for 10 slots

        def issue(thread_index, query_index):
            code, payload = ServeClient(server.url).query(
                "contested", [{"bin": (thread_index + query_index) % 16}],
                fingerprint=fp,
            )
            return code, payload["results"][0]["status"]

        results = hammer(n_threads, per_thread, issue)
        statuses = [status for _code, status in results]
        assert len(results) == n_threads * per_thread
        assert statuses.count("ok") == quota
        assert statuses.count("exhausted") == len(results) - quota
        # The ledger shows exactly one debit per answered query.
        acc = server.service.tenants.accountant("contested")
        assert len(acc.ledger) == quota
        assert acc.spent == pytest.approx(quota * epsilon)
        # And the HTTP codes agree with the per-query statuses.
        for code, status in results:
            assert code == (200 if status == "ok" else 429)

    def test_metric_counters_sum_to_query_count(self, live_server):
        server, client = live_server
        _code, published = client.publish(tiny_spec().to_payload())
        fp = published["fingerprint"]
        quota = 6
        client.register_tenant("metered", quota * 0.5)
        n_threads, per_thread = 6, 3

        def issue(thread_index, query_index):
            return ServeClient(server.url).query(
                "metered", [{"lo": 0, "hi": 8}], fingerprint=fp
            )

        results = hammer(n_threads, per_thread, issue)
        total = n_threads * per_thread
        queries = server.service.registry.get("repro_serve_queries_total")
        by_status = {
            key[0]: child.value for key, child in queries.children()
        }
        assert by_status.get("ok", 0) == quota
        assert by_status.get("exhausted", 0) == total - quota
        assert sum(by_status.values()) == total
        denials = server.service.registry.get(
            "repro_serve_budget_denials_total"
        )
        assert denials.labels(tenant="metered").value == total - quota
        assert len(results) == total


class TestSharedArtifactReads:
    def test_no_torn_reads_under_contention(self, live_server):
        """Every concurrent answer equals the single-threaded answer."""
        server, client = live_server
        spec = tiny_spec()
        _code, published = client.publish(spec.to_payload())
        fp = published["fingerprint"]
        counts = publish_artifact(spec).counts
        expected = {
            (lo, hi): float(counts[lo:hi].sum())
            for lo in range(0, 16, 3) for hi in range(lo, 17, 3)
        }
        intervals = sorted(expected)

        def issue(thread_index, query_index):
            lo, hi = intervals[
                (thread_index * 7 + query_index) % len(intervals)
            ]
            code, payload = ServeClient(server.url).query(
                f"reader-{thread_index}", [{"lo": lo, "hi": hi}],
                fingerprint=fp,
            )
            assert code == 200
            return (lo, hi), payload["results"][0]["value"]

        results = hammer(6, 5, issue)
        for (lo, hi), value in results:
            assert value == pytest.approx(expected[(lo, hi)], abs=1e-9)

    def test_concurrent_publishes_share_one_artifact(self, live_server):
        """Racing publishes of one spec converge on one cache entry."""
        server, _client = live_server
        payload = tiny_spec().to_payload()

        def issue(thread_index, query_index):
            code, body = ServeClient(server.url).publish(payload)
            assert code == 200
            return body["fingerprint"]

        fingerprints = set(hammer(6, 2, issue))
        assert len(fingerprints) == 1
        assert server.service.cache.stats()["entries"] == 1
