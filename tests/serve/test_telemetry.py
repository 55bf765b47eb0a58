"""Serving-path telemetry: request IDs, stages, access logs, SLOs.

Covers the observability substrate end to end: correlation-id echo and
minting over real sockets, stage latency attribution (per-request
consistency with the end-to-end duration, histogram export), the
structured access log (schema validation, sorted keys, rotation,
crash-proof writes), SLO burn-rate math under an injected clock, the
``/v1/debug`` introspection endpoint, and the two hard guarantees:
traced and untraced servers produce byte-identical success bodies, and
the stage spans every request runs stay under 5% of a served cache-hit
query.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import best_of
from repro.serve import server as server_module
from repro.serve.admission import AdmissionController
from repro.serve.client import ServeClient
from repro.serve.server import make_server
from repro.serve.service import QueryService
from repro.serve.telemetry import (
    ACCESS_LOG_SCHEMA,
    STAGES,
    AccessLog,
    ServeTelemetry,
    SLOConfig,
    SLOMonitor,
    validate_access_log_line,
)

from tests.serve.conftest import tiny_spec

#: Stages are non-overlapping spans inside the request's root, read off
#: the same clock, so their sum may exceed the end-to-end duration only
#: by float-sum rounding.
STAGE_SUM_TOLERANCE = 1.0 + 1e-9


@pytest.fixture
def traced():
    """Force tracing on for one test, restoring the prior state."""
    previous = trace.set_enabled(True)
    yield
    trace.set_enabled(previous)


@pytest.fixture
def untraced():
    """Force tracing off (immune to an inherited REPRO_TRACE env)."""
    previous = trace.set_enabled(False)
    yield
    trace.set_enabled(previous)


@pytest.fixture
def telemetry_server(tmp_path):
    """A live server whose service logs to ``tmp_path/access.log``."""
    service = QueryService(
        cache_entries=4,
        default_tenant_budget=50.0,
        access_log=tmp_path / "access.log",
        slo=SLOConfig(window_seconds=300.0),
    )
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    client = ServeClient(server.url)
    client.wait_ready()
    try:
        yield server, client, tmp_path / "access.log"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def read_log_lines(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines() if line
    ]


def wait_for_log(path, predicate, timeout=5.0):
    """Poll the access log until ``predicate(lines)`` holds.

    The log line is written after the response goes out, so a client
    that just got its answer can beat the server to the file.
    """
    deadline = time.monotonic() + timeout
    while True:
        lines = read_log_lines(path) if path.exists() else []
        if predicate(lines):
            return lines
        if time.monotonic() > deadline:
            raise AssertionError(
                f"access log never satisfied predicate; lines={lines}"
            )
        time.sleep(0.02)


def sample_line(**overrides):
    line = {
        "code": 200,
        "degraded": False,
        "duration_seconds": 0.01,
        "endpoint": "query",
        "method": "POST",
        "path": "/v1/query",
        "replayed": False,
        "request_id": "abc123",
        "shed": None,
        "stages": {"serve.answer": 0.002},
        "tenant": "alpha",
        "ts": 1700000000.0,
    }
    line.update(overrides)
    return line


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

class TestAccessLogSchema:
    def test_valid_line_has_no_problems(self):
        assert validate_access_log_line(sample_line()) == []
        assert validate_access_log_line(json.dumps(sample_line())) == []

    def test_schema_required_covers_all_properties(self):
        assert set(ACCESS_LOG_SCHEMA["required"]) == set(
            ACCESS_LOG_SCHEMA["properties"]
        )

    def test_missing_field_flagged(self):
        line = sample_line()
        del line["request_id"]
        problems = validate_access_log_line(line)
        assert any("missing field: request_id" in p for p in problems)

    def test_unexpected_field_flagged(self):
        problems = validate_access_log_line(sample_line(surprise=1))
        assert any("unexpected field: surprise" in p for p in problems)

    def test_wrong_types_flagged(self):
        problems = validate_access_log_line(
            sample_line(code="200", degraded="no")
        )
        assert len(problems) == 2

    def test_method_enum_enforced(self):
        problems = validate_access_log_line(sample_line(method="PUT"))
        assert any("method" in p for p in problems)

    def test_negative_stage_timing_flagged(self):
        problems = validate_access_log_line(
            sample_line(stages={"serve.answer": -0.5})
        )
        assert any("serve.answer" in p for p in problems)

    def test_bounds_and_empty_strings_flagged(self):
        assert validate_access_log_line(sample_line(code=700))
        assert validate_access_log_line(sample_line(endpoint=""))
        assert validate_access_log_line(sample_line(duration_seconds=-1))

    def test_garbage_input_reports_not_crashes(self):
        assert validate_access_log_line("{not json")
        assert validate_access_log_line('["array"]')


# ---------------------------------------------------------------------------
# AccessLog file behavior
# ---------------------------------------------------------------------------

class TestAccessLog:
    def test_lines_are_sorted_key_json(self, tmp_path):
        log = AccessLog(tmp_path / "a.log")
        log.write(sample_line())
        raw = (tmp_path / "a.log").read_text().splitlines()[0]
        assert raw == json.dumps(json.loads(raw), sort_keys=True)
        keys = list(json.loads(raw))
        assert keys == sorted(keys)

    def test_rotation_chain_keeps_backups(self, tmp_path):
        log = AccessLog(tmp_path / "a.log", max_bytes=300, backups=2)
        for i in range(12):
            log.write(sample_line(request_id=f"req-{i:04d}"))
        assert log.rotations > 0
        assert (tmp_path / "a.log").exists()
        assert (tmp_path / "a.log.1").exists()
        assert not (tmp_path / "a.log.3").exists()
        # No line was torn across the rotation boundary.
        for name in ("a.log", "a.log.1"):
            for line in read_log_lines(tmp_path / name):
                assert validate_access_log_line(line) == []

    def test_zero_backups_truncates(self, tmp_path):
        log = AccessLog(tmp_path / "a.log", max_bytes=300, backups=0)
        for i in range(12):
            log.write(sample_line(request_id=f"req-{i:04d}"))
        assert not (tmp_path / "a.log.1").exists()
        assert log.lines == 12

    def test_write_failure_is_swallowed_and_counted(self, tmp_path):
        log = AccessLog(tmp_path / "dir-in-the-way")
        (tmp_path / "dir-in-the-way").mkdir()
        log.write(sample_line())  # must not raise
        assert log.errors == 1
        assert log.lines == 0

    def test_unserializable_record_counted_not_raised(self, tmp_path):
        log = AccessLog(tmp_path / "a.log")
        log.write({"bad": object()})
        assert log.errors == 1

    def test_info_snapshot(self, tmp_path):
        log = AccessLog(tmp_path / "a.log")
        log.write(sample_line())
        info = log.info()
        assert info["lines"] == 1
        assert info["errors"] == 0
        assert info["path"].endswith("a.log")

    def test_bad_limits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            AccessLog(tmp_path / "a.log", max_bytes=0)
        with pytest.raises(ValueError):
            AccessLog(tmp_path / "a.log", backups=-1)


# ---------------------------------------------------------------------------
# SLO monitors
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestSLOMonitor:
    def test_burn_rate_math(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            SLOConfig(latency_threshold=0.1, latency_target=0.9),
            clock=clock,
        )
        for _ in range(9):
            monitor.record(0.01, 200, shed=False)
        monitor.record(0.5, 200, shed=False)  # 1 of 10 slow
        snap = monitor.snapshot()
        latency = snap["objectives"]["latency"]
        # bad_fraction 0.1 against a 0.1 budget: burning at exactly 1x.
        assert latency["bad_fraction"] == pytest.approx(0.1)
        assert latency["burn_rate"] == pytest.approx(1.0)
        assert snap["window_requests"] == 10

    def test_shed_is_not_an_error(self):
        clock = FakeClock()
        monitor = SLOMonitor(SLOConfig(), clock=clock)
        monitor.record(0.01, 503, shed=True)
        monitor.record(0.01, 500, shed=False)
        objectives = monitor.snapshot()["objectives"]
        assert objectives["shed"]["bad"] == 1.0
        assert objectives["error"]["bad"] == 1.0  # only the true 500

    def test_client_errors_never_burn(self):
        clock = FakeClock()
        monitor = SLOMonitor(SLOConfig(), clock=clock)
        monitor.record(0.01, 404, shed=False)
        monitor.record(0.01, 429, shed=False)
        objectives = monitor.snapshot()["objectives"]
        assert objectives["error"]["bad"] == 0.0

    def test_window_prunes_old_requests(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            SLOConfig(window_seconds=60.0), clock=clock
        )
        monitor.record(0.5, 500, shed=False)
        clock.now += 61.0
        monitor.record(0.01, 200, shed=False)
        snap = monitor.snapshot()
        assert snap["window_requests"] == 1
        assert snap["objectives"]["error"]["burn_rate"] == 0.0

    def test_empty_window_burns_nothing(self):
        snap = SLOMonitor(SLOConfig(), clock=FakeClock()).snapshot()
        for values in snap["objectives"].values():
            assert values["burn_rate"] == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(window_seconds=0)
        with pytest.raises(ValueError):
            SLOConfig(latency_threshold=0)
        with pytest.raises(ValueError):
            SLOConfig(latency_target=1.0)
        with pytest.raises(ValueError):
            SLOConfig(error_target=0.0)


# ---------------------------------------------------------------------------
# ServeTelemetry unit behavior
# ---------------------------------------------------------------------------

class TestServeTelemetry:
    def make(self, **kwargs):
        return ServeTelemetry(registry=MetricsRegistry(), **kwargs)

    def test_mints_request_id_when_absent(self, untraced):
        telemetry = self.make()
        rid = telemetry.begin_request("GET", "/healthz", None)
        assert rid and telemetry.current_request_id() == rid
        telemetry.end_request("health", 200)
        blank = telemetry.begin_request("GET", "/healthz", "   ")
        assert blank.strip() == blank and blank
        telemetry.end_request("health", 200)

    def test_echoes_client_request_id(self, untraced):
        telemetry = self.make()
        rid = telemetry.begin_request("POST", "/v1/query", "client-42")
        assert rid == "client-42"
        telemetry.end_request("query", 200)
        assert telemetry.current_request_id() is None

    def test_stages_accumulate_and_export(self, untraced, tmp_path):
        telemetry = self.make(access_log=tmp_path / "a.log")
        telemetry.begin_request("POST", "/v1/query", "r1")
        for _ in range(3):
            with trace.span("serve.answer"):
                pass
        with trace.span("serve.admission_wait"):
            time.sleep(0.01)
        telemetry.annotate(tenant="alpha")
        telemetry.end_request("query", 200)
        line = read_log_lines(tmp_path / "a.log")[0]
        assert validate_access_log_line(line) == []
        assert set(line["stages"]) == {
            "serve.answer", "serve.admission_wait",
        }
        assert line["stages"]["serve.admission_wait"] >= 0.01
        assert sum(line["stages"].values()) <= line["duration_seconds"]
        assert line["tenant"] == "alpha"
        family = telemetry.registry.get("repro_serve_stage_seconds")
        child = family.labels(endpoint="query", stage="serve.answer")
        assert child.count == 1  # one observation per request, not 3
        requests = telemetry.registry.get("repro_serve_request_seconds")
        assert requests.labels(endpoint="query").count == 1

    def test_stage_without_request_is_shared_noop(self, untraced):
        self.make()  # a telemetry alone opens no root
        assert trace.span("serve.answer") is trace.span("serve.publish")

    def test_annotate_without_request_is_noop(self, untraced):
        self.make().annotate(tenant="ghost")  # must not raise

    def test_end_without_begin_is_noop(self, untraced):
        self.make().end_request("query", 200)  # must not raise

    def test_slowest_ring_requires_tracing(self, untraced):
        telemetry = self.make()
        telemetry.begin_request("POST", "/v1/query", "r1")
        telemetry.end_request("query", 200)
        assert telemetry.slowest() == []

    def test_slowest_ring_sorted_by_duration(self, traced):
        telemetry = self.make(slow_traces=2)
        for i in range(4):
            telemetry.begin_request("POST", "/v1/query", f"r{i}")
            with trace.span("serve.answer"):
                pass
            telemetry.end_request("query", 200)
        slowest = telemetry.slowest()
        assert len(slowest) == 2
        assert slowest[0]["seconds"] >= slowest[1]["seconds"]
        tree = slowest[0]["trace"]
        assert tree["name"] == "serve.request"
        assert [c["name"] for c in tree["children"]] == ["serve.answer"]
        assert slowest[0]["unattributed_seconds"] >= 0.0

    def test_refresh_gauges_exports_slo_state(self, untraced):
        telemetry = self.make()
        telemetry.begin_request("POST", "/v1/query", "r1")
        telemetry.end_request("query", 500)
        snap = telemetry.refresh_gauges()
        assert snap["window_requests"] == 1
        burn = telemetry.registry.get("repro_serve_slo_burn_rate")
        assert burn.labels(objective="error").value > 0


# ---------------------------------------------------------------------------
# Wire path: correlation IDs, access log, /v1/debug
# ---------------------------------------------------------------------------

class TestWirePath:
    def test_request_id_echoed_in_header(self, telemetry_server):
        _server, client, _log = telemetry_server
        status, _payload, headers = client._request_once(
            "GET", "/healthz", headers={"X-Request-Id": "my-rid-1"}
        )
        assert status == 200
        assert headers.get("X-Request-Id") == "my-rid-1"

    def test_request_id_minted_when_absent(self, telemetry_server):
        _server, client, _log = telemetry_server
        _status, _payload, headers = client._request_once(
            "GET", "/healthz"
        )
        minted = headers.get("X-Request-Id")
        assert minted
        _status, _payload, headers2 = client._request_once(
            "GET", "/healthz"
        )
        assert headers2.get("X-Request-Id") != minted

    def test_success_bodies_never_carry_request_id(
        self, telemetry_server
    ):
        _server, client, _log = telemetry_server
        code, published = client.publish(tiny_spec().to_payload())
        assert code == 200 and "request_id" not in published
        code, answered = client.query(
            "alpha", [{"bin": 1}], fingerprint=published["fingerprint"]
        )
        assert code == 200 and "request_id" not in answered

    def test_error_bodies_carry_request_id(self, telemetry_server):
        _server, client, _log = telemetry_server
        status, payload, _headers = client._request_once(
            "POST", "/v1/query", {"tenant": "a"},
            headers={"X-Request-Id": "broken-7"},
        )
        assert status == 400
        assert payload["request_id"] == "broken-7"

    def test_client_surfaces_request_id_on_failure(
        self, telemetry_server
    ):
        _server, client, _log = telemetry_server
        code, published = client.publish(tiny_spec().to_payload())
        code, payload = client.query(
            "alpha", [{"bin": 99}],  # outside the 16-bin domain
            fingerprint=published["fingerprint"],
            idempotency_key="replay-key-3",
        )
        assert code == 400
        # request_id defaults to the idempotency key: joinable records.
        assert payload["request_id"] == "replay-key-3"

    def test_access_log_lines_valid_and_joinable(
        self, telemetry_server
    ):
        _server, client, log_path = telemetry_server
        code, published = client.publish(tiny_spec().to_payload())
        client.query(
            "alpha", [{"bin": 2}], fingerprint=published["fingerprint"],
            request_id="join-me-1",
        )
        # Each handler writes its line after its response goes out, so
        # wait for the publish line as well as the query line.
        lines = wait_for_log(
            log_path,
            lambda ls: len(ls) >= 3
            and {"publish", "query"} <= {l["endpoint"] for l in ls},
        )
        assert len(lines) >= 3  # healthz poll(s) + publish + query
        for line in lines:
            assert validate_access_log_line(line) == []
        query_lines = [l for l in lines if l["endpoint"] == "query"]
        assert query_lines[-1]["request_id"] == "join-me-1"
        assert query_lines[-1]["tenant"] == "alpha"
        assert query_lines[-1]["code"] == 200

    def test_stage_sum_consistent_with_duration(
        self, telemetry_server
    ):
        _server, client, log_path = telemetry_server
        code, published = client.publish(tiny_spec().to_payload())
        for i in range(5):
            client.query(
                "alpha", [{"lo": 0, "hi": 8}],
                fingerprint=published["fingerprint"],
            )
        lines = wait_for_log(
            log_path,
            lambda ls: sum(
                l["endpoint"] == "query" for l in ls
            ) >= 5,
        )
        for line in lines:
            stage_sum = sum(line["stages"].values())
            assert stage_sum <= (
                line["duration_seconds"] * STAGE_SUM_TOLERANCE
            ), line
            assert set(line["stages"]) <= set(STAGES)

    def test_access_log_reads_the_debug_tree(
        self, traced, telemetry_server
    ):
        """One clock: the log line and the ring entry are one tree."""
        _server, client, log_path = telemetry_server
        code, published = client.publish(tiny_spec().to_payload())
        assert code == 200
        code, _payload = client.query(
            "alpha", [{"bin": 1}, {"lo": 0, "hi": 8}],
            fingerprint=published["fingerprint"], request_id="one-clock",
        )
        assert code == 200
        lines = wait_for_log(
            log_path,
            lambda ls: any(l["request_id"] == "one-clock" for l in ls),
        )
        by_id = {line["request_id"]: line for line in lines}
        # The ring entry lands just after the log line; poll for it.
        deadline = time.monotonic() + 5.0
        while True:
            _status, debug, _headers = client._request_once(
                "GET", "/v1/debug"
            )
            ring = {
                entry["request_id"]: entry
                for entry in debug["slowest_requests"]
            }
            if "one-clock" in ring or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        entry = ring["one-clock"]
        line = by_id["one-clock"]
        assert line["duration_seconds"] == entry["seconds"]
        assert entry["seconds"] == entry["trace"]["seconds"]
        names = {child["name"] for child in entry["trace"]["children"]}
        assert set(line["stages"]) == names
        for name, seconds in line["stages"].items():
            assert seconds == sum(
                child["seconds"] for child in entry["trace"]["children"]
                if child["name"] == name
            ), name
        answers = [
            child for child in entry["trace"]["children"]
            if child["name"] == "serve.answer"
        ]
        assert len(answers) == 2  # two queries, one summed stage

    def test_request_whose_client_left_is_not_counted(
        self, telemetry_server, monkeypatch
    ):
        server, client, log_path = telemetry_server

        def client_gone(_payload):
            raise BrokenPipeError("client went away")

        with monkeypatch.context() as patch:
            patch.setattr(server_module, "_encode", client_gone)
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.sendall(
                    b"GET /v1/stats HTTP/1.1\r\nHost: test\r\n"
                    b"Connection: close\r\n\r\n"
                )
                assert sock.recv(1024) == b""  # no reply was written
            lines = wait_for_log(
                log_path,
                lambda ls: any(l["endpoint"] == "stats" for l in ls),
            )
        line = next(l for l in lines if l["endpoint"] == "stats")
        assert line["code"] == 0
        assert set(line["stages"]) == {"serve.serialize"}
        text = client.metrics_text()
        counted = [
            row for row in text.splitlines()
            if row.startswith(("repro_serve_requests_total",
                               "repro_serve_request_seconds"))
            and 'endpoint="stats"' in row
        ]
        assert counted == []

    def test_replayed_flag_lands_in_access_log(self, telemetry_server):
        _server, client, log_path = telemetry_server
        code, published = client.publish(tiny_spec().to_payload())
        for _ in range(2):  # second call replays the idempotency key
            client.query(
                "alpha", [{"bin": 5}],
                fingerprint=published["fingerprint"],
                idempotency_key="dup-1",
            )
        lines = wait_for_log(
            log_path,
            lambda ls: sum(
                l["endpoint"] == "query" for l in ls
            ) >= 2,
        )
        assert sum(l["replayed"] for l in lines) == 1

    def test_debug_endpoint_snapshot(self, telemetry_server):
        _server, client, _log = telemetry_server
        code, published = client.publish(tiny_spec().to_payload())
        client.query(
            "alpha", [{"bin": 0}], fingerprint=published["fingerprint"],
            idempotency_key="seen-1",
        )
        status, payload, _headers = client._request_once(
            "GET", "/v1/debug"
        )
        assert status == 200
        assert payload["cache"]["stats"]["entries"] == 1
        assert len(payload["cache"]["entries"]) == 1
        entry = payload["cache"]["entries"][0]
        assert entry["fingerprint"] == published["fingerprint"]
        assert entry["bytes"] > 0 and entry["age_seconds"] >= 0
        assert payload["seen_keys"] == 1
        assert payload["slo"]["window_requests"] > 0
        assert payload["access_log"]["lines"] > 0
        assert payload["slowest_requests"] == []  # tracing off

    def test_stats_carries_slo_and_cache_entries(
        self, telemetry_server
    ):
        _server, client, _log = telemetry_server
        client.publish(tiny_spec().to_payload())
        stats = client.stats()
        assert "objectives" in stats["slo"]
        assert len(stats["cache_entries"]) == 1


# ---------------------------------------------------------------------------
# The hard guarantees: bit-identity and overhead
# ---------------------------------------------------------------------------

class TestTracedIdentity:
    def _drive(self, client):
        """A fixed request sequence; returns canonical success bodies."""
        bodies = []
        code, published = client.publish(tiny_spec().to_payload())
        assert code == 200
        published.pop("publish_seconds", None)  # wall clock, not data
        bodies.append(json.dumps(published, sort_keys=True))
        for i in range(4):
            code, payload = client.query(
                "alpha", [{"bin": i}, {"lo": 0, "hi": 8}],
                fingerprint=published["fingerprint"],
                idempotency_key=f"ident-{i}",
            )
            assert code == 200
            bodies.append(json.dumps(payload, sort_keys=True))
        return bodies

    def test_traced_and_untraced_success_bodies_identical(
        self, tmp_path
    ):
        outputs = {}
        for label, flag in (("untraced", False), ("traced", True)):
            previous = trace.set_enabled(flag)
            try:
                service = QueryService(
                    cache_entries=4, default_tenant_budget=50.0,
                    access_log=tmp_path / f"{label}.log",
                )
                server = make_server("127.0.0.1", 0, service)
                thread = threading.Thread(
                    target=server.serve_forever,
                    kwargs={"poll_interval": 0.05}, daemon=True,
                )
                thread.start()
                client = ServeClient(server.url)
                client.wait_ready()
                try:
                    outputs[label] = self._drive(client)
                finally:
                    server.shutdown()
                    server.server_close()
                    thread.join(timeout=5.0)
            finally:
                trace.set_enabled(previous)
        assert outputs["traced"] == outputs["untraced"]

    def test_traced_server_populates_slow_traces(
        self, traced, telemetry_server
    ):
        _server, client, _log = telemetry_server
        code, published = client.publish(tiny_spec().to_payload())
        client.query(
            "alpha", [{"bin": 1}], fingerprint=published["fingerprint"]
        )
        status, payload, _headers = client._request_once(
            "GET", "/v1/debug"
        )
        assert payload["trace_enabled"] is True
        slowest = payload["slowest_requests"]
        assert slowest
        names = {entry["trace"]["name"] for entry in slowest}
        assert names == {"serve.request"}
        stage_names = {
            child["name"]
            for entry in slowest
            for child in entry["trace"].get("children", ())
        }
        assert stage_names <= set(STAGES)


class TestRequestAccounting:
    """Per-request metric observations for a mix of outcomes.

    200, 429, 404 and both admission sheds (queue full, queue timeout),
    one request at a time: each log line is written after its metrics,
    so waiting for N lines orders every step after the one before.
    """

    def test_observation_counts_pinned(self, untraced, tmp_path):
        log_path = tmp_path / "access.log"
        admission = AdmissionController(
            max_inflight=1, max_queue=1, queue_timeout=5.0
        )
        service = QueryService(
            cache_entries=4, default_tenant_budget=1.0,
            access_log=log_path,
        )
        server = make_server("127.0.0.1", 0, service, admission=admission)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        client = ServeClient(server.url, max_retries=0)

        def settle(count):
            wait_for_log(log_path, lambda ls: len(ls) >= count)

        try:
            code, published = client.publish(tiny_spec().to_payload())
            assert code == 200
            fingerprint = published["fingerprint"]
            settle(1)

            def ask():
                return client.query(
                    "alpha", [{"bin": 1}], fingerprint=fingerprint
                )[0]

            assert ask() == 200
            settle(2)
            # Hold the one slot: the next request queues, a second one
            # finds the queue full; releasing admits the queued one.
            assert admission.try_admit().admitted
            queued = {}
            waiter = threading.Thread(
                target=lambda: queued.setdefault("code", ask())
            )
            waiter.start()
            deadline = time.monotonic() + 5.0
            while admission.snapshot()["queued"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert ask() == 503  # queue_full
            settle(3)
            admission.release()
            waiter.join(timeout=5.0)
            assert queued["code"] == 200
            settle(4)
            assert ask() == 429  # alpha's two answers are spent
            settle(5)
            assert client.query(
                "alpha", [{"bin": 1}], fingerprint="f" * 64
            )[0] == 404
            settle(6)
            assert admission.try_admit().admitted
            admission.queue_timeout = 0.05
            assert ask() == 503  # queue_timeout
            settle(7)
            admission.release()
            lines = read_log_lines(log_path)
            text = client.metrics_text()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

        stage_keys = [
            (line["code"], line["shed"], sorted(line["stages"]))
            for line in lines
        ]
        answered = [
            "serve.answer", "serve.cache_lookup", "serve.ledger_charge",
            "serve.serialize",
        ]
        assert stage_keys == [
            (200, None, ["serve.publish", "serve.serialize"]),
            (200, None, answered),
            (503, "queue_full", ["serve.serialize"]),
            (200, None, ["serve.admission_wait"] + answered),
            (429, None, answered),
            (404, None, ["serve.cache_lookup", "serve.serialize"]),
            (503, "queue_timeout",
             ["serve.admission_wait", "serve.serialize"]),
        ]
        samples = {}
        for row in text.splitlines():
            if row.startswith((
                "repro_serve_requests_total",
                "repro_serve_request_seconds_count",
                "repro_serve_stage_seconds_count",
                "repro_serve_shed_total",
            )):
                series, value = row.rsplit(" ", 1)
                samples[series] = float(value)
        assert samples == {
            'repro_serve_requests_total{endpoint="publish",code="200"}': 1,
            'repro_serve_requests_total{endpoint="query",code="200"}': 2,
            'repro_serve_requests_total{endpoint="query",code="404"}': 1,
            'repro_serve_requests_total{endpoint="query",code="429"}': 1,
            'repro_serve_requests_total{endpoint="query",code="503"}': 2,
            'repro_serve_request_seconds_count{endpoint="publish"}': 1,
            'repro_serve_request_seconds_count{endpoint="query"}': 6,
            'repro_serve_stage_seconds_count'
            '{endpoint="publish",stage="serve.publish"}': 1,
            'repro_serve_stage_seconds_count'
            '{endpoint="publish",stage="serve.serialize"}': 1,
            'repro_serve_stage_seconds_count'
            '{endpoint="query",stage="serve.admission_wait"}': 2,
            'repro_serve_stage_seconds_count'
            '{endpoint="query",stage="serve.answer"}': 3,
            'repro_serve_stage_seconds_count'
            '{endpoint="query",stage="serve.cache_lookup"}': 4,
            'repro_serve_stage_seconds_count'
            '{endpoint="query",stage="serve.ledger_charge"}': 3,
            'repro_serve_stage_seconds_count'
            '{endpoint="query",stage="serve.serialize"}': 6,
            'repro_serve_shed_total{reason="queue_full"}': 1,
            'repro_serve_shed_total{reason="queue_timeout"}': 1,
        }


class TestTelemetryOverhead:
    def test_disabled_stage_overhead_under_five_percent(
        self, untraced, telemetry_server
    ):
        """Stage spans under a live request root, tracing off.

        Every served request opens a root, so its stages are live spans
        even with tracing off.  Budget: all documented stages at that
        per-stage cost (closing the root included) must stay under 5%
        of one served cache-hit query round trip.
        """
        _server, client, _log = telemetry_server
        code, published = client.publish(tiny_spec().to_payload())
        fingerprint = published["fingerprint"]

        def one_query():
            status, _payload = client.query(
                "alpha", [{"bin": 1}], fingerprint=fingerprint
            )
            assert status == 200

        one_query()  # warm: artifact cached, tenant registered
        query_seconds = best_of(one_query, 5)

        telemetry = _server.service.telemetry
        calls = 2000

        def spam_stages():
            telemetry.begin_request("POST", "/v1/query", "overhead")
            try:
                for _ in range(calls):
                    with trace.span("serve.answer"):
                        pass
            finally:
                telemetry.end_request("query", 200)

        per_stage = best_of(spam_stages, 5) / calls
        overhead = per_stage * len(STAGES)
        assert overhead < 0.05 * query_seconds, (
            f"stage overhead {overhead:.3e}s vs cache-hit "
            f"query {query_seconds:.3e}s"
        )
