"""Crash-safety properties: warm restart, torn files, degraded answers.

The hypothesis tests implement the ISSUE's truncation property: cutting
the ε-ledger journal or the artifact spill at *any* byte offset yields
either full recovery of the intact prefix or a clean quarantine — never
a corrupted ledger total, never a half-read artifact.  Companion
exhaustive loops literally sweep every offset (the files are small) so
the property holds with no sampling gap.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.serve.ledgerlog import LedgerDebit, LedgerLog
from repro.serve.service import QueryService
from repro.serve.store import ArtifactStore
from repro.serve.artifacts import publish_artifact

from tests.serve.conftest import tiny_spec

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


EPSILON = 0.5  # tiny_spec's per-query charge


def _durable_service(state_dir, **kwargs):
    return QueryService(
        cache_entries=4, default_tenant_budget=10.0,
        state_dir=state_dir, **kwargs,
    )


# -- warm restart --------------------------------------------------------


def test_warm_restart_preserves_spend_and_artifact(tmp_path):
    first = _durable_service(tmp_path)
    spec = tiny_spec()
    _s, published = first.publish({"spec": spec.to_payload()})
    fp = published["fingerprint"]
    first.register_tenant({"name": "alice", "budget": 10.0})
    status, answer = first.query(
        {"tenant": "alice", "fingerprint": fp,
         "queries": [{"bin": 0}, {"lo": 2, "hi": 9}]},
        idempotency_key="warm-1",
    )
    assert status == 200
    spent_before = first.tenants.snapshot()["alice"]["spent"]
    assert spent_before == pytest.approx(2 * EPSILON)
    original = first.cache.get(fp)

    second = _durable_service(tmp_path)
    assert second.recovery["tenants"] == 1
    assert second.recovery["debits"] == 2
    assert second.recovery["artifacts"] == 1
    assert second.recovery["torn_lines"] == 0
    snap = second.tenants.snapshot()["alice"]
    assert snap["spent"] == pytest.approx(spent_before)
    assert snap["budget"] == pytest.approx(10.0)

    # The same idempotency key is answered for free after restart.
    status, replayed = second.query(
        {"tenant": "alice", "fingerprint": fp,
         "queries": [{"bin": 0}, {"lo": 2, "hi": 9}]},
        idempotency_key="warm-1",
    )
    assert status == 200
    assert all(r["replayed"] for r in replayed["results"])
    assert second.tenants.snapshot()["alice"]["spent"] == pytest.approx(
        spent_before
    )
    # Answers match the original release bit for bit (rehydrated, not
    # republished): the artifact byte-identity invariant.
    rehydrated = second.cache.get(fp)
    assert rehydrated is not None
    assert rehydrated.counts.tobytes() == original.counts.tobytes()
    for orig, replay in zip(answer["results"], replayed["results"]):
        assert replay["value"] == orig["value"]


def test_restart_with_smaller_budget_never_overdrafts(tmp_path):
    first = _durable_service(tmp_path)
    spec = tiny_spec()
    _s, published = first.publish({"spec": spec.to_payload()})
    first.register_tenant({"name": "bob", "budget": 10.0})
    status, _ = first.query(
        {"tenant": "bob", "fingerprint": published["fingerprint"],
         "queries": [{"bin": i} for i in range(8)]},
        idempotency_key="k",
    )
    assert status == 200
    # Rewrite the tenant line to a tighter budget than was spent, as if
    # the journal came from a differently-configured server.
    path = tmp_path / "ledger.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    doctored = [
        line.replace('"budget": 10.0', '"budget": 1.0')
        for line in lines
    ]
    path.write_text("\n".join(doctored) + "\n", encoding="utf-8")

    second = _durable_service(tmp_path)
    snap = second.tenants.snapshot()["bob"]
    assert snap["spent"] <= snap["budget"] + 1e-9
    assert second.recovery["overdraft_skipped"] > 0


# -- truncation properties ----------------------------------------------


def _ledger_fixture(path):
    log = LedgerLog(path)
    log.append_tenant("alice", 10.0)
    for i in range(6):
        log.append_debit("alice", EPSILON, key=f"k#{i}",
                         purpose="query/fixture")
    return path.read_bytes()


def _expected_from_prefix(data: bytes) -> float:
    """Spent ε implied by the intact lines of a truncated journal.

    Mirrors replay semantics: a line counts iff it parses as a complete
    JSON debit — including a final line whose trailing newline was lost
    (the debit itself was fully written, so it is safe to honor).
    """
    spent = 0.0
    for line in data.split(b"\n"):
        if not line.strip():
            continue
        try:
            entry = json.loads(line.decode("utf-8"))
        except ValueError:
            continue
        if isinstance(entry, dict) and entry.get("kind") == "debit":
            spent += float(entry["epsilon"])
    return spent


def test_ledger_truncation_every_offset_exhaustive(tmp_path):
    """A tear at any offset keeps the intact prefix, and the next
    incarnation's appends all replay: the torn line never swallows the
    debit written after it."""
    path = tmp_path / "ledger.jsonl"
    data = _ledger_fixture(path)
    after = LedgerDebit("alice", EPSILON, key="after-tear")
    for offset in range(len(data) + 1):
        path.write_bytes(data[:offset])
        replay = LedgerLog(path).replay()
        spent = replay.spent_by_tenant().get("alice", 0.0)
        assert spent == pytest.approx(_expected_from_prefix(data[:offset]))
        assert replay.torn_lines <= 1
        LedgerLog(path).append_debit(after.tenant, after.epsilon,
                                     key=after.key)
        resumed = LedgerLog(path).replay()
        assert resumed.debits == replay.debits + [after], offset
        assert resumed.torn_lines == replay.torn_lines


@settings(max_examples=60, deadline=None)
@given(offset=st.integers(min_value=0))
def test_ledger_truncation_recovers_service_state(offset):
    with tempfile.TemporaryDirectory() as raw:
        state_dir = Path(raw)
        path = state_dir / "ledger.jsonl"
        data = _ledger_fixture(path)
        offset = offset % (len(data) + 1)
        path.write_bytes(data[:offset])
        service = _durable_service(state_dir)
        expected = _expected_from_prefix(data[:offset])
        snapshot = service.tenants.snapshot()
        spent = snapshot.get("alice", {}).get("spent", 0.0)
        assert spent == pytest.approx(expected)
        # Recovery itself never overdrafts, whatever survived the crash.
        for tenant in snapshot.values():
            assert tenant["spent"] <= tenant["budget"] + 1e-9


def _spill_fixture(root):
    store = ArtifactStore(root)
    artifact = publish_artifact(tiny_spec())
    path = store.save(artifact)
    return store, artifact, path, path.read_bytes()


def test_spill_truncation_every_offset_exhaustive(tmp_path):
    """Any load from a truncated spill is byte-identical or quarantined.

    Only the trailing-newline-lost offset still parses (the payload is
    fully intact there, so serving it is correct); every shorter prefix
    must be swept into quarantine — never a half-read artifact.
    """
    store, artifact, path, data = _spill_fixture(tmp_path)
    quarantined = 0
    for offset in range(len(data) + 1):
        path.write_bytes(data[:offset])
        loaded = store.load(artifact.fingerprint)
        if loaded is not None:
            assert offset >= len(data) - 1  # full payload, ± the newline
            assert loaded.counts.tobytes() == artifact.counts.tobytes()
        else:
            assert offset < len(data) - 1
            quarantined += 1
            marker = path.with_name(path.name + ".quarantined")
            assert marker.exists()
            marker.unlink()
    assert store.stats()["quarantined"] == quarantined


@settings(max_examples=60, deadline=None)
@given(offset=st.integers(min_value=0))
def test_spill_truncation_property(offset):
    with tempfile.TemporaryDirectory() as raw:
        store, artifact, path, data = _spill_fixture(Path(raw))
        offset = offset % (len(data) + 1)
        path.write_bytes(data[:offset])
        loaded = store.load(artifact.fingerprint)
        if loaded is not None:
            assert loaded.counts.tobytes() == artifact.counts.tobytes()
        else:
            assert offset < len(data)
            assert store.stats()["quarantined"] == 1


# -- degraded mode -------------------------------------------------------


def test_degraded_answer_is_flagged_and_numerically_valid(tmp_path):
    """A shed cold publish degrades to a stale artifact whose answers
    still equal the numpy sum over its counts (the acceptance bar)."""
    warm = _durable_service(tmp_path)
    spec_a = tiny_spec(seed=3)
    _s, published = warm.publish({"spec": spec_a.to_payload()})
    fp_a = published["fingerprint"]

    cold = _durable_service(tmp_path, publish_slots=0)
    cold.register_tenant({"name": "carol", "budget": 10.0})
    # Rehydrating the spilled artifact is not a cold publish: allowed.
    status, payload = cold.query(
        {"tenant": "carol", "fingerprint": fp_a,
         "queries": [{"bin": 0}]},
    )
    assert status == 200
    assert "degraded" not in payload

    # A *different* spec would need a cold publish → degraded fallback.
    spec_b = tiny_spec(seed=99)
    status, payload = cold.query(
        {"tenant": "carol", "spec": spec_b.to_payload(),
         "queries": [{"lo": 2, "hi": 11}, {"bin": 5}]},
    )
    assert status == 200
    assert payload["degraded"] is True
    assert payload["degraded_reason"] == "publish_saturated"
    assert payload["served_fingerprint"] == fp_a
    served = cold.cache.get(fp_a)
    counts = served.counts
    assert payload["results"][0]["value"] == pytest.approx(
        float(np.sum(counts[2:11]))
    )
    assert payload["results"][1]["value"] == pytest.approx(
        float(np.sum(counts[5:6]))
    )
    assert cold.resilience()["degraded"]["stale_cache"] == 1
    assert cold.resilience()["shed"]["publish_saturated"] == 1


def test_degraded_without_fallback_sheds(tmp_path):
    cold = _durable_service(tmp_path, publish_slots=0)
    cold.register_tenant({"name": "dave", "budget": 10.0})
    from repro.serve.service import ShedError
    with pytest.raises(ShedError) as err:
        cold.query(
            {"tenant": "dave", "spec": tiny_spec().to_payload(),
             "queries": [{"bin": 0}]},
        )
    assert err.value.status == 503
    assert err.value.reason == "publish_saturated"
    assert err.value.retry_after > 0
