"""Zero-dependency HTTP/JSON transport for the query service.

A :class:`ThreadingHTTPServer` (stdlib) hosting :class:`QueryService`.
One thread per in-flight request; the service layer is fully
thread-safe (locked cache, locked accountants, locked metric children),
so there is no global request lock and cache hits stay microseconds
under concurrency.

Admission control sits in front of every application route (liveness
and metrics stay exempt so probes work under load): a
:class:`~repro.serve.admission.AdmissionController` bounds concurrency
and queueing, and anything it refuses gets ``503`` + ``Retry-After``
— never a hang, never a 500.  Graceful shutdown drains: the controller
refuses new admissions (``503``, ``/healthz`` reports ``draining``)
while in-flight requests get a bounded deadline to finish.

Response bytes are deterministic: JSON is rendered with sorted keys and
stdlib ``repr`` floats, so two servers publishing the same spec return
byte-identical bodies — a property the replay transcript hashing and
the e2e determinism tests rely on.

Routes
------
==========  ====================  ========================================
method      path                  handler
==========  ====================  ========================================
``GET``     ``/healthz``          liveness probe (admission-exempt)
``GET``     ``/metrics``          Prometheus exposition (admission-exempt)
``GET``     ``/v1/debug``         introspection snapshot (admission-exempt)
``GET``     ``/v1/stats``         cache / tenant / uptime snapshot
``POST``    ``/v1/publish``       materialize an artifact from a spec
``POST``    ``/v1/tenants``       register a tenant with an ε budget
``POST``    ``/v1/query``         answer point/range count queries
``POST``    ``/v1/shutdown``      graceful stop (drain, then exit)
==========  ====================  ========================================
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.obs import trace
from repro.robust import faults
from repro.serve.admission import AdmissionController
from repro.serve.service import QueryService, RequestError

__all__ = ["HistogramHTTPServer", "make_server", "run_server"]

#: Request bodies above this size are refused (413) before parsing.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Routes that bypass admission control (probes and introspection must
#: answer under load — overload is exactly when you need ``/v1/debug``).
EXEMPT_PATHS = ("/healthz", "/metrics", "/v1/debug")


def _encode(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the service; never raises to the socket."""

    protocol_version = "HTTP/1.1"
    server: "HistogramHTTPServer"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            sys.stderr.write(
                "serve: %s - %s\n" % (self.address_string(), format % args)
            )

    def _request_id(self) -> Optional[str]:
        return self.server.service.telemetry.current_request_id()

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        telemetry = self.server.service.telemetry
        with trace.span("serve.serialize"):
            body = _encode(payload)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            rid = telemetry.current_request_id()
            if rid:
                self.send_header("X-Request-Id", rid)
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; version=0.0.4") -> None:
        telemetry = self.server.service.telemetry
        with trace.span("serve.serialize"):
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            rid = telemetry.current_request_id()
            if rid:
                self.send_header("X-Request-Id", rid)
            self.end_headers()
            self.wfile.write(body)

    def _send_shed(self, reason: str, retry_after: float) -> None:
        """503 + ``Retry-After``: integer header, float payload field."""
        payload = {
            "error": f"overloaded: {reason}",
            "reason": reason,
            "retry_after": retry_after,
        }
        rid = self._request_id()
        if rid:
            payload["request_id"] = rid
        self._send_json(
            503, payload,
            headers={"Retry-After": str(max(1, int(round(retry_after))))},
        )

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise RequestError(413, f"body larger than {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError(400, "empty request body")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(400, f"bad JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise RequestError(400, "body must be a JSON object")
        return payload

    # -- dispatch ------------------------------------------------------
    def _path(self) -> str:
        return self.path.split("?", 1)[0].rstrip("/") or "/"

    def _dispatch(self, method: str, path: str) -> Tuple[str, int]:
        """Route one request; returns ``(endpoint, status)``."""
        service = self.server.service
        try:
            faults.maybe_inject_site("serve.handler", f"{method} {path}")
            if method == "GET":
                if path == "/healthz":
                    status, payload = service.health()
                    if self.server.draining:
                        status, payload = 503, {"status": "draining"}
                    self._send_json(status, payload)
                    return "healthz", status
                if path == "/metrics":
                    self._send_text(200, service.metrics_text())
                    return "metrics", 200
                if path == "/v1/debug":
                    status, payload = service.debug()
                    self._send_json(status, payload)
                    return "debug", status
                if path == "/v1/stats":
                    status, payload = service.stats()
                    self._send_json(status, payload)
                    return "stats", status
                raise RequestError(404, f"no such endpoint: GET {path}")
            if method == "POST":
                if path == "/v1/shutdown":
                    # Drain any body so the keep-alive stream stays sane.
                    length = int(self.headers.get("Content-Length", 0) or 0)
                    if 0 < length <= MAX_BODY_BYTES:
                        self.rfile.read(length)
                    self._send_json(200, {"status": "shutting down"})
                    self.server.request_shutdown()
                    return "shutdown", 200
                body = self._read_body()
                if path == "/v1/publish":
                    status, payload = service.publish(body)
                elif path == "/v1/tenants":
                    status, payload = service.register_tenant(body)
                elif path == "/v1/query":
                    status, payload = service.query(
                        body,
                        idempotency_key=self.headers.get("Idempotency-Key"),
                    )
                else:
                    raise RequestError(
                        404, f"no such endpoint: POST {path}"
                    )
                self._send_json(status, payload)
                return path.rsplit("/", 1)[-1], status
            raise RequestError(405, f"method {method} not allowed")
        except RequestError as exc:
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                reason = getattr(exc, "reason", "overloaded")
                service.telemetry.annotate(shed=reason)
                self._send_shed(reason, retry_after)
            else:
                self._send_json(
                    exc.status, self._error_body(exc.message)
                )
            return path.rsplit("/", 1)[-1] or "root", exc.status
        except BrokenPipeError:
            raise
        except Exception as exc:  # noqa: BLE001 - last-ditch 500 firewall
            self._send_json(
                500, self._error_body(f"{type(exc).__name__}: {exc}")
            )
            return path.rsplit("/", 1)[-1] or "root", 500

    def _error_body(self, message: str) -> Dict[str, Any]:
        """Error payloads carry the correlation id; 200 bodies never do
        (success bodies are part of the byte-identity contract)."""
        body: Dict[str, Any] = {"error": message}
        rid = self._request_id()
        if rid:
            body["request_id"] = rid
        return body

    def _handle(self, method: str) -> None:
        path = self._path()
        service = self.server.service
        telemetry = service.telemetry
        telemetry.begin_request(
            method, path, self.headers.get("X-Request-Id")
        )
        endpoint = path.rsplit("/", 1)[-1] or "root"
        status = 0  # 0 = aborted before a response was written
        try:
            admission = self.server.admission
            admitted = False
            if admission is not None and path not in EXEMPT_PATHS:
                decision = admission.try_admit()
                if not decision.admitted:
                    reason = decision.reason or "overloaded"
                    service.note_shed(reason)
                    telemetry.annotate(shed=reason)
                    try:
                        self._send_shed(reason, self.server.retry_after)
                    except BrokenPipeError:
                        return
                    status = 503
                    return
                admitted = True
            try:
                endpoint, status = self._dispatch(method, path)
            except BrokenPipeError:  # client went away mid-response
                return
            finally:
                if admitted:
                    admission.release()
        finally:
            telemetry.end_request(endpoint, status)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")


class HistogramHTTPServer(ThreadingHTTPServer):
    """The serving socket: one daemon thread per request."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: QueryService,
        verbose: bool = False,
        admission: Optional[AdmissionController] = None,
        drain_seconds: float = 5.0,
        retry_after: float = 1.0,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.admission = admission
        self.drain_seconds = float(drain_seconds)
        self.retry_after = float(retry_after)
        self._shutdown_once = threading.Lock()
        self._shutdown_started = False

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self.admission is not None and self.admission.draining

    def request_shutdown(self) -> None:
        """Drain, then stop the serve loop (idempotent, non-blocking).

        New application requests are refused with 503 from the instant
        drain begins; in-flight requests get ``drain_seconds`` to
        finish before the socket loop stops regardless.
        """
        with self._shutdown_once:
            if self._shutdown_started:
                return
            self._shutdown_started = True

        def _drain_and_stop() -> None:
            if self.admission is not None:
                self.admission.begin_drain()
                self.admission.wait_drained(self.drain_seconds)
            self.shutdown()

        threading.Thread(target=_drain_and_stop, daemon=True).start()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    service: Optional[QueryService] = None,
    verbose: bool = False,
    admission: Optional[AdmissionController] = None,
    drain_seconds: float = 5.0,
    retry_after: float = 1.0,
) -> HistogramHTTPServer:
    """Bind a server (``port=0`` picks an ephemeral port)."""
    if service is None:
        service = QueryService()
    if admission is not None:
        service.attach_admission(admission)
    return HistogramHTTPServer(
        (host, port), service, verbose=verbose, admission=admission,
        drain_seconds=drain_seconds, retry_after=retry_after,
    )


def run_server(server: HistogramHTTPServer) -> int:
    """Serve until SIGINT/SIGTERM or ``POST /v1/shutdown``; returns 0.

    Signal handlers are installed only on the main thread (the CLI
    path); embedded servers should call ``server.shutdown()`` directly.
    """
    if threading.current_thread() is threading.main_thread():
        def _stop(_signum: int, _frame: Any) -> None:
            server.request_shutdown()

        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, _stop)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0
