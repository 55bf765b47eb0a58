"""Admission control: unit tests plus live overload / drain e2e."""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.obs.trace import Stopwatch
from repro.serve.admission import AdmissionController
from repro.serve.client import ServeClient
from repro.serve.server import make_server
from repro.serve.service import QueryService

from tests.serve.conftest import tiny_spec


# -- controller unit tests ---------------------------------------------


def test_admit_then_release_roundtrip():
    ctl = AdmissionController(max_inflight=2, max_queue=0)
    first = ctl.try_admit()
    second = ctl.try_admit()
    assert first.admitted and second.admitted
    snap = ctl.snapshot()
    assert snap["inflight"] == 2
    assert snap["admitted"] == 2
    ctl.release()
    ctl.release()
    assert ctl.snapshot()["inflight"] == 0


def test_queue_full_sheds_immediately():
    ctl = AdmissionController(max_inflight=1, max_queue=0)
    assert ctl.try_admit().admitted
    decision = ctl.try_admit()
    assert not decision.admitted
    assert decision.reason == "queue_full"
    assert ctl.snapshot()["shed"]["queue_full"] == 1
    ctl.release()


def test_queue_timeout_sheds_after_deadline():
    ctl = AdmissionController(max_inflight=1, max_queue=4,
                              queue_timeout=0.05)
    assert ctl.try_admit().admitted
    with Stopwatch() as sw:
        decision = ctl.try_admit()
    assert not decision.admitted
    assert decision.reason == "queue_timeout"
    assert sw.seconds >= 0.04
    assert ctl.snapshot()["shed"]["queue_timeout"] == 1
    ctl.release()


def test_queued_waiter_gets_slot_on_release():
    ctl = AdmissionController(max_inflight=1, max_queue=4,
                              queue_timeout=5.0)
    assert ctl.try_admit().admitted
    outcome = {}

    def _wait() -> None:
        outcome["decision"] = ctl.try_admit()

    waiter = threading.Thread(target=_wait)
    waiter.start()
    # Give the waiter time to enqueue, then free the slot.
    for _ in range(100):
        if ctl.snapshot()["queued"] == 1:
            break
        threading.Event().wait(0.01)
    ctl.release()
    waiter.join(timeout=5.0)
    assert outcome["decision"].admitted
    ctl.release()


def test_draining_refuses_and_wakes_queued_waiters():
    ctl = AdmissionController(max_inflight=1, max_queue=4,
                              queue_timeout=30.0)
    assert ctl.try_admit().admitted
    outcome = {}

    def _wait() -> None:
        outcome["decision"] = ctl.try_admit()

    waiter = threading.Thread(target=_wait)
    waiter.start()
    for _ in range(100):
        if ctl.snapshot()["queued"] == 1:
            break
        threading.Event().wait(0.01)
    ctl.begin_drain()
    waiter.join(timeout=5.0)
    assert not outcome["decision"].admitted
    assert outcome["decision"].reason == "draining"
    # New attempts shed immediately while draining.
    assert ctl.try_admit().reason == "draining"
    assert ctl.snapshot()["shed"]["draining"] == 2
    ctl.release()


def test_wait_drained_deadline():
    ctl = AdmissionController(max_inflight=1)
    assert ctl.try_admit().admitted
    assert ctl.wait_drained(deadline_seconds=0.05) is False
    releaser = threading.Timer(0.05, ctl.release)
    releaser.start()
    try:
        assert ctl.wait_drained(deadline_seconds=5.0) is True
    finally:
        releaser.cancel()


@pytest.mark.parametrize("kwargs", [
    {"max_inflight": 0},
    {"max_queue": -1},
    {"queue_timeout": -0.1},
])
def test_constructor_validation(kwargs):
    with pytest.raises(ValueError):
        AdmissionController(**kwargs)


# -- live-server overload / drain e2e ----------------------------------


@contextlib.contextmanager
def _live_server(service, admission, drain_seconds=2.0):
    server = make_server(
        "127.0.0.1", 0, service, admission=admission,
        drain_seconds=drain_seconds, retry_after=0.25,
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield server, thread
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _warm_service():
    service = QueryService(cache_entries=4, default_tenant_budget=10.0)
    _status, published = service.publish({"spec": tiny_spec().to_payload()})
    service.register_tenant({"name": "alice", "budget": 10.0})
    return service, published["fingerprint"]


def test_overload_sheds_503_with_retry_after_never_500():
    """Saturated server → 503 + Retry-After for every extra request."""
    service, fp = _warm_service()
    admission = AdmissionController(max_inflight=1, max_queue=0)
    with _live_server(service, admission) as (server, _thread):
        client = ServeClient(server.url, timeout=5.0, max_retries=0)
        # Occupy the only slot out-of-band: every real request sheds.
        assert admission.try_admit().admitted
        try:
            shed = 0
            for _ in range(5):
                status, payload, headers = client._request_once(
                    "POST", "/v1/query",
                    {"tenant": "alice", "fingerprint": fp,
                     "queries": [{"bin": 0}]},
                )
                assert status == 503
                assert payload["reason"] == "queue_full"
                assert "Retry-After" in headers
                assert int(headers["Retry-After"]) >= 1
                assert payload["retry_after"] == pytest.approx(0.25)
                shed += 1
            # Probes stay exempt even while saturated.
            assert client.health()["_status"] == 200
        finally:
            admission.release()
        # Every shed is accounted, both sides of the fence.
        assert admission.snapshot()["shed"]["queue_full"] == shed
        assert service.resilience()["shed"]["queue_full"] == shed
        stats = client.stats()
        assert stats["resilience"]["shed"]["queue_full"] == shed
        # And once the slot frees up, the same request succeeds.  The
        # stats request holds the slot until just after its response is
        # written, so the client can be back before the server has let
        # go of it: wait for the release rather than race it.
        assert admission.wait_drained(deadline_seconds=5.0)
        status, payload = client.query(
            "alice", [{"bin": 0}], fingerprint=fp
        )
        assert status == 200
        assert payload["results"][0]["status"] == "ok"


def test_graceful_drain_regression():
    """Shutdown drains: in-flight finishes, new work sheds, probe says so."""
    service, fp = _warm_service()
    admission = AdmissionController(max_inflight=2, max_queue=0)
    with _live_server(service, admission) as (server, _thread):
        client = ServeClient(server.url, timeout=5.0, max_retries=0)
        # Hold one admission slot to model an in-flight request.
        assert admission.try_admit().admitted
        server.request_shutdown()
        for _ in range(100):
            if admission.draining:
                break
            threading.Event().wait(0.01)
        assert admission.draining
        # The liveness probe reports draining with 503.
        health = client.health()
        assert health["_status"] == 503
        assert health["status"] == "draining"
        # New application requests are shed with the draining reason.
        status, payload, headers = client._request_once(
            "POST", "/v1/query",
            {"tenant": "alice", "fingerprint": fp,
             "queries": [{"bin": 0}]},
        )
        assert status == 503
        assert payload["reason"] == "draining"
        assert "Retry-After" in headers
        assert service.resilience()["shed"]["draining"] >= 1
        # The in-flight request completes; the serve loop then stops
        # within the drain deadline.
        admission.release()


def test_drain_deadline_bounds_shutdown():
    """A stuck in-flight request cannot hold shutdown past the deadline."""
    service, _fp = _warm_service()
    admission = AdmissionController(max_inflight=1, max_queue=0)
    with _live_server(service, admission, drain_seconds=0.2) as (
        server, thread,
    ):
        assert admission.try_admit().admitted  # never released: "stuck"
        server.request_shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        admission.release()
