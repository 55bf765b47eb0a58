"""The ``/metrics`` contract of a real ``repro serve`` subprocess.

Scrapes the Prometheus exposition of a server started exactly as a
user would start it and pins the documented ``repro_serve_*`` catalog:
every family is present with the right ``# TYPE``, counters only move
up between scrapes, histograms stay internally consistent
(``_count`` equals the ``+Inf`` bucket), and the per-stage latency
attribution agrees with the end-to-end request histogram.
"""

from __future__ import annotations

import re
import urllib.request

import pytest

from tests.serve.conftest import tiny_spec
from tests.serve.test_e2e import ServerProcess

#: The documented metric family catalog (docs/observability.md).
SERVE_FAMILIES = {
    "repro_serve_requests_total": "counter",
    "repro_serve_queries_total": "counter",
    "repro_serve_cache_events_total": "counter",
    "repro_serve_budget_denials_total": "counter",
    "repro_serve_shed_total": "counter",
    "repro_serve_degraded_total": "counter",
    "repro_serve_recovered_total": "counter",
    "repro_serve_request_seconds": "histogram",
    "repro_serve_publish_seconds": "histogram",
    "repro_serve_stage_seconds": "histogram",
    "repro_serve_cache_hit_ratio": "gauge",
    "repro_serve_admission_inflight": "gauge",
    "repro_serve_admission_queued": "gauge",
    "repro_serve_admission_draining": "gauge",
    "repro_serve_slo_burn_rate": "gauge",
    "repro_serve_slo_bad_fraction": "gauge",
    "repro_serve_slo_target": "gauge",
    "repro_serve_slo_window_requests": "gauge",
}

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$"
)


def scrape(url):
    """Parse one exposition: (types, samples keyed by full series)."""
    with urllib.request.urlopen(url + "/metrics", timeout=10.0) as resp:
        text = resp.read().decode("utf-8")
    types = {}
    samples = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _prefix, name, kind = line.rsplit(" ", 2)
            types[name] = kind
            continue
        if not line or line.startswith("#"):
            continue
        match = SAMPLE_RE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        key = match.group("name") + (match.group("labels") or "")
        samples[key] = float(match.group("value"))
    return types, samples


def family_samples(samples, family):
    """Samples belonging to one family (histograms: its _bucket etc.)."""
    out = {}
    for key, value in samples.items():
        bare = key.split("{", 1)[0]
        if bare == family or bare in (
            f"{family}_bucket", f"{family}_sum", f"{family}_count"
        ):
            out[key] = value
    return out


@pytest.mark.slow
class TestMetricsExposition:
    def test_documented_families_present_typed_and_monotone(self):
        with ServerProcess() as server:
            code, published = server.client.publish(
                tiny_spec().to_payload()
            )
            assert code == 200
            fingerprint = published["fingerprint"]
            server.client.query(
                "alpha", [{"bin": 1}, {"lo": 0, "hi": 8}],
                fingerprint=fingerprint,
            )
            # A capped tenant exercises the budget-denial counter.
            server.client.register_tenant("capped", budget=0.4)
            server.client.query(
                "capped", [{"bin": 0}], fingerprint=fingerprint
            )
            types, first = scrape(server.url)

            # Every documented family is declared with its kind; the
            # ones this traffic exercised must also carry samples
            # (shed/degraded/recovered stay sample-free on a healthy
            # un-throttled server — their lane is the chaos drill).
            unexercised = {
                "repro_serve_shed_total",
                "repro_serve_degraded_total",
                "repro_serve_recovered_total",
            }
            for family, kind in SERVE_FAMILIES.items():
                assert types.get(family) == kind, (
                    f"{family}: expected TYPE {kind}, got "
                    f"{types.get(family)!r}"
                )
                if family in unexercised:
                    continue
                assert family_samples(first, family), (
                    f"{family}: no samples exposed"
                )

            # Histogram self-consistency: _count equals the +Inf bucket.
            for family in (
                "repro_serve_request_seconds",
                "repro_serve_stage_seconds",
            ):
                rows = family_samples(first, family)
                counts = {
                    k: v for k, v in rows.items()
                    if k.startswith(f"{family}_count")
                }
                assert counts
                for count_key, count in counts.items():
                    labels = count_key[len(f"{family}_count"):]
                    inf_key = (
                        f"{family}_bucket"
                        + labels[:-1].rstrip(",")
                        + (',le="+Inf"}' if labels else '{le="+Inf"}')
                    )
                    assert first[inf_key] == count

            # Stage attribution exists for the served endpoints.
            stage_rows = [
                key for key in first
                if key.startswith("repro_serve_stage_seconds_count")
            ]
            assert any('stage="serve.answer"' in k for k in stage_rows)
            assert any('stage="serve.publish"' in k for k in stage_rows)

            # Counters are monotone across scrapes under more traffic.
            for _ in range(3):
                server.client.query(
                    "alpha", [{"bin": 2}], fingerprint=fingerprint
                )
            _types, second = scrape(server.url)
            for family, kind in SERVE_FAMILIES.items():
                if kind != "counter":
                    continue
                for key, value in family_samples(first, family).items():
                    assert second.get(key, 0.0) >= value, (
                        f"counter went backwards: {key}"
                    )
            count_key = 'repro_serve_queries_total'
            first_total = sum(
                v for k, v in family_samples(first, count_key).items()
            )
            second_total = sum(
                v for k, v in family_samples(second, count_key).items()
            )
            assert second_total >= first_total + 3

    def test_slo_gauges_cover_all_objectives(self):
        with ServerProcess() as server:
            server.client.publish(tiny_spec().to_payload())
            _types, samples = scrape(server.url)
            for objective in ("latency", "error", "shed"):
                key = (
                    'repro_serve_slo_burn_rate{objective="'
                    + objective + '"}'
                )
                assert key in samples
                target_key = (
                    'repro_serve_slo_target{objective="'
                    + objective + '"}'
                )
                assert 0.0 < samples[target_key] < 1.0
            assert samples["repro_serve_slo_window_requests"] >= 1

    def test_stage_sums_bounded_by_request_seconds(self):
        """Attribution consistency at the histogram level.

        Stages are non-overlapping spans inside each request's root,
        read off the same clock, so total stage seconds can exceed total
        request seconds only by float-sum rounding.
        """
        with ServerProcess() as server:
            code, published = server.client.publish(
                tiny_spec().to_payload()
            )
            for i in range(8):
                server.client.query(
                    "alpha", [{"bin": i}, {"lo": 0, "hi": 16}],
                    fingerprint=published["fingerprint"],
                )
            _types, samples = scrape(server.url)
            stage_sum = sum(
                v for k, v in samples.items()
                if k.startswith("repro_serve_stage_seconds_sum")
            )
            request_sum = sum(
                v for k, v in samples.items()
                if k.startswith("repro_serve_request_seconds_sum")
            )
            assert stage_sum <= request_sum * (1.0 + 1e-9)
