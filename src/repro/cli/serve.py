"""The query service (``serve``) and its load harness (``replay``)."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.cli.common import at_least, error, existing, write_metrics


def add_commands(commands) -> None:
    serve = commands.add_parser(
        "serve",
        help="the DP histogram query service",
        description="Long-lived DP histogram query service: publish once "
                    "per (dataset, publisher, epsilon, k) spec, cache "
                    "artifacts in a fingerprint-keyed LRU, and answer "
                    "point/range count queries under per-tenant "
                    "epsilon-budget ledgers (docs/serving.md).",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=at_least(int, 0), default=8377,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8377)")
    serve.add_argument("--cache-entries", dest="cache_entries", type=int,
                       default=8, metavar="N",
                       help="max cached artifacts before LRU eviction "
                            "(default 8)")
    serve.add_argument("--cache-bytes", dest="cache_bytes", type=int,
                       default=None, metavar="B",
                       help="optional byte bound on cached artifact arrays "
                            "(evicts LRU-first)")
    serve.add_argument("--tenant-budget", dest="tenant_budget", type=float,
                       default=100.0, metavar="EPS",
                       help="default epsilon budget for tenants that were "
                            "never explicitly registered (default 100)")
    serve.add_argument("--state-dir", dest="state_dir", default=None,
                       metavar="DIR",
                       help="durable state directory: write-ahead epsilon "
                            "ledger + on-disk artifact store; a restart "
                            "replays the ledger to exact spent totals and "
                            "rehydrates artifacts byte-identically "
                            "(docs/serving.md)")
    serve.add_argument("--publish-slots", dest="publish_slots", type=int,
                       default=None, metavar="N",
                       help="bound concurrent cold publishes; when "
                            "saturated, queries degrade to a stale "
                            "compatible artifact or shed with 503 + "
                            "Retry-After (default: unbounded)")
    serve.add_argument("--max-inflight", dest="max_inflight", type=int,
                       default=8, metavar="N",
                       help="admission control: max concurrently executing "
                            "requests (default 8)")
    serve.add_argument("--max-queue", dest="max_queue", type=int,
                       default=16, metavar="N",
                       help="admission control: max requests waiting for a "
                            "slot before shedding (default 16)")
    serve.add_argument("--queue-timeout", dest="queue_timeout", type=float,
                       default=1.0, metavar="S",
                       help="admission control: max seconds a request may "
                            "queue before shedding (default 1.0)")
    serve.add_argument("--retry-after", dest="retry_after", type=float,
                       default=1.0, metavar="S",
                       help="Retry-After hint sent with 503 sheds "
                            "(default 1.0)")
    serve.add_argument("--drain-seconds", dest="drain_seconds", type=float,
                       default=5.0, metavar="S",
                       help="graceful-shutdown deadline for in-flight "
                            "requests (default 5.0)")
    serve.add_argument("--trace", action="store_true",
                       help="enable per-request span capture (stage trees "
                            "on /v1/debug); equivalent to exporting "
                            "REPRO_TRACE=1")
    serve.add_argument("--access-log", dest="access_log", default=None,
                       metavar="PATH",
                       help="structured JSONL access log (one sorted-key "
                            "line per request; rotated); defaults to "
                            "STATE_DIR/access.log when --state-dir is set")
    serve.add_argument("--slo-window", dest="slo_window", type=float,
                       default=60.0, metavar="S",
                       help="SLO sliding-window length in seconds "
                            "(default 60)")
    serve.add_argument("--slo-latency-ms", dest="slo_latency_ms", type=float,
                       default=250.0, metavar="MS",
                       help="latency objective threshold: a request slower "
                            "than this is SLO-bad (default 250)")
    serve.add_argument("--slo-latency-target", dest="slo_latency_target",
                       type=float, default=0.99, metavar="F",
                       help="good fraction target for the latency objective "
                            "(default 0.99)")
    serve.add_argument("--slo-error-target", dest="slo_error_target",
                       type=float, default=0.999, metavar="F",
                       help="good fraction target for the 5xx error "
                            "objective (default 0.999)")
    serve.add_argument("--slo-shed-target", dest="slo_shed_target",
                       type=float, default=0.99, metavar="F",
                       help="good fraction target for the shed objective "
                            "(default 0.99)")
    serve.add_argument("--debug-traces", dest="debug_traces", type=int,
                       default=8, metavar="N",
                       help="slowest-N traced requests kept for /v1/debug "
                            "(default 8)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per request to stderr")
    serve.set_defaults(func=_serve)

    replay = commands.add_parser(
        "replay",
        help="deterministic workload-trace replay against the service",
        description="Deterministic workload-trace replay against the query "
                    "service: same manifest + seed => identical "
                    "query-answer transcript; p50/p99 latency and "
                    "throughput land in the metrics registry and the "
                    "run-history store (docs/serving.md).",
    )
    replay.add_argument("manifest", metavar="MANIFEST",
                        type=existing("manifest"),
                        help="replay manifest (JSON; see "
                             "examples/manifests/)")
    replay.add_argument("--server", default=None, metavar="URL",
                        help="replay against a running server instead of "
                             "self-hosting a fresh in-process one "
                             "(self-hosting is what the determinism "
                             "guarantee is stated against)")
    replay.add_argument("--time-scale", dest="time_scale", type=float,
                        default=None, metavar="F",
                        help="scale the manifest's arrival gaps (0 = issue "
                             "as fast as the slots allow; default: the "
                             "manifest's time_scale)")
    replay.add_argument("--retries", type=at_least(int, 0), default=2,
                        metavar="K",
                        help="transport retries per query before the tenant "
                             "worker quarantines its trace (default 2)")
    replay.add_argument("--transcript", default=None, metavar="PATH",
                        help="write the deterministic transcript JSON to "
                             "PATH")
    replay.add_argument("--metrics-out", dest="metrics_out", default=None,
                        metavar="PATH",
                        help="write the replay metrics registry: Prometheus "
                             "text, or JSON when PATH ends in .json")
    replay.add_argument("--history", default=None, metavar="DB",
                        help="ingest replay latency/throughput into the "
                             "run-history store (rendered by 'repro "
                             "history dash')")
    replay.add_argument("--cache-entries", dest="cache_entries", type=int,
                        default=8, metavar="N",
                        help="artifact cache size of the self-hosted server "
                             "(ignored with --server)")
    replay.add_argument("--trace", action="store_true",
                        help="enable span capture on the self-hosted server "
                             "(per-request stage trees; the transcript "
                             "stays bit-identical to an untraced run); with "
                             "--server, start the remote server with "
                             "'repro serve --trace' instead")
    replay.add_argument("--chaos", action="store_true",
                        help="kill-and-restart drill: run the server as a "
                             "subprocess with injected crashes at the "
                             "ledger/spill boundaries, restart it every "
                             "time it dies, and assert no-overdraft, "
                             "no-double-spend, byte-identical artifacts and "
                             "a deterministic transcript (requires "
                             "--state-dir)")
    replay.add_argument("--state-dir", dest="state_dir", default=None,
                        metavar="DIR",
                        help="durable state directory for --chaos (the "
                             "ledger, artifact store, fault plan, and chaos "
                             "report/transcript live here)")
    replay.add_argument("--tenant-budget", dest="tenant_budget", type=float,
                        default=100.0, metavar="EPS",
                        help="default tenant budget for the chaos server "
                             "and baseline (default 100)")
    replay.set_defaults(func=_replay)


def _serve(args: argparse.Namespace) -> int:
    from repro.obs import trace
    from repro.serve.admission import AdmissionController
    from repro.serve.server import make_server, run_server
    from repro.serve.service import QueryService
    from repro.serve.telemetry import SLOConfig

    if args.trace:
        os.environ[trace.ENV_VAR] = "1"
    access_log = args.access_log
    if access_log is None and args.state_dir is not None:
        access_log = Path(args.state_dir) / "access.log"
    try:
        service = QueryService(
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes,
            default_tenant_budget=args.tenant_budget,
            state_dir=args.state_dir,
            publish_slots=args.publish_slots,
            retry_after=args.retry_after,
            slo=SLOConfig(
                window_seconds=args.slo_window,
                latency_threshold=args.slo_latency_ms / 1000.0,
                latency_target=args.slo_latency_target,
                error_target=args.slo_error_target,
                shed_target=args.slo_shed_target,
            ),
            access_log=access_log,
            slow_traces=args.debug_traces,
        )
        admission = AdmissionController(
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            queue_timeout=args.queue_timeout,
        )
        server = make_server(args.host, args.port, service,
                             verbose=args.verbose, admission=admission,
                             drain_seconds=args.drain_seconds,
                             retry_after=args.retry_after)
    except (ValueError, OSError) as exc:
        return error(str(exc))
    # The parseable startup line the e2e tests and scripts wait for.
    print(f"serving on {server.url}", flush=True)
    if service.recovery:
        rec = service.recovery
        print(
            f"recovered state from {args.state_dir}: "
            f"{rec.get('tenants', 0)} tenant(s), "
            f"{rec.get('debits', 0)} debit(s), "
            f"{rec.get('artifacts', 0)} artifact(s), "
            f"{rec.get('torn_lines', 0)} torn line(s)",
            flush=True,
        )
    return run_server(server)


def _replay(args: argparse.Namespace) -> int:
    from repro.serve.replay import load_manifest

    if args.chaos:
        if args.state_dir is None:
            return error("--chaos requires --state-dir")
        if args.server is not None:
            return error("--chaos manages its own server; drop --server")
    try:
        manifest = load_manifest(Path(args.manifest))
    except ValueError as exc:
        return error(str(exc))
    if args.chaos:
        return _chaos(args, manifest)

    import json

    from repro.obs import trace
    from repro.obs.metrics import MetricsRegistry
    from repro.robust.atomicio import atomic_write_text
    from repro.serve.replay import record_replay_metrics, run_replay

    previous_trace = trace.set_enabled(True) if args.trace else None
    try:
        result = run_replay(
            manifest,
            base_url=args.server,
            time_scale=args.time_scale,
            retries=args.retries,
            cache_entries=args.cache_entries,
        )
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"error: replay failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.trace:
            trace.set_enabled(previous_trace)
    registry = MetricsRegistry()
    record_replay_metrics(result, registry)
    for line in result.summary_lines():
        print(line)
    if args.transcript:
        atomic_write_text(
            Path(args.transcript),
            json.dumps(result.transcript(), indent=2, sort_keys=True) + "\n",
        )
        print(f"wrote {args.transcript}")
    if args.metrics_out:
        write_metrics(registry, args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if args.history:
        from repro.obs.history import HistoryStore, default_commit

        try:
            with HistoryStore(args.history) as store:
                outcome = store.ingest_metrics_payload(
                    registry.render_json(),
                    source=f"replay:{manifest.name}",
                    commit=default_commit(),
                )
            print(f"history: {args.history}: {outcome.describe()}")
        except Exception as exc:  # pragma: no cover - defensive firewall
            print(f"warning: history ingest failed: {exc}", file=sys.stderr)
    return 1 if result.had_server_errors() else 0


def _chaos(args: argparse.Namespace, manifest) -> int:
    """The ``repro replay --chaos`` drill (see repro.serve.chaos)."""
    from repro.serve.chaos import run_chaos_replay

    try:
        report = run_chaos_replay(
            manifest, args.state_dir,
            tenant_budget=args.tenant_budget,
            retries=max(args.retries, 6),
        )
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"error: chaos replay failed: {exc}", file=sys.stderr)
        return 1
    for line in report.summary_lines():
        print(line)
    print(f"wrote {Path(args.state_dir) / 'chaos_report.json'}")
    print(f"wrote {Path(args.state_dir) / 'chaos_transcript.json'}")
    return 0 if report.ok else 1
