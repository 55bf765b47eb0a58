"""The run-history store: schema migration, idempotent ingestion, oracles."""

import json
import sqlite3

import pytest

from repro.exceptions import HistoryError
from repro.obs.history import (
    HISTORY_SCHEMA,
    HistoryStore,
    TrialRow,
    default_commit,
    parse_sweep_spec_name,
    sniff_source,
    trial_content_sha,
    trial_row_from_record,
)
from repro.robust.journal import CheckpointJournal

FP = "a" * 64


@pytest.fixture
def store(tmp_path):
    with HistoryStore(tmp_path / "h.sqlite") as s:
        yield s


@pytest.fixture
def journal(tmp_path, make_record, make_failed):
    """A journal following the sweep naming convention (2 ok, 1 failed)."""
    j = CheckpointJournal(tmp_path / "sweep.jsonl")
    name = "sweep/age/noisefirst/eps=0.5"
    j.append(make_record(seed=0, spec_name=name), FP)
    j.append(make_record(seed=1, spec_name=name), FP)
    j.append(make_failed(seed=2, spec_name=name, publisher="noisefirst"), FP)
    return j


class TestSchema:
    def test_fresh_store_lands_on_current_schema(self, store):
        assert store.schema_version == HISTORY_SCHEMA
        assert store.counts() == {
            "batches": 0, "trials": 0, "bench_entries": 0,
            "metric_totals": 0, "alerts": 0, "utility": 0,
        }

    def test_v1_database_migrates_forward(self, tmp_path):
        """A store written before the alerts table gains it on open."""
        path = tmp_path / "old.sqlite"
        from repro.obs.history import _migrate_0_to_1

        conn = sqlite3.connect(str(path))
        _migrate_0_to_1(conn)
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', '1')"
        )
        # A v1-era trial row (no oracle_kind column yet).
        conn.execute(
            "INSERT INTO batches (kind, source, commit_sha, ingested_at) "
            "VALUES ('journal', 'old.jsonl', 'c0ffee', 0.0)"
        )
        conn.execute(
            "INSERT INTO trials (batch_id, commit_sha, fingerprint, "
            "spec_name, publisher, epsilon, seed, ok, content_sha, "
            "dedup_key) VALUES (1, 'c0ffee', ?, 'spec', 'dwork', 0.5, 0, "
            "1, 'sha', 'dk')",
            (FP,),
        )
        conn.commit()
        conn.close()

        with HistoryStore(path) as migrated:
            assert migrated.schema_version == HISTORY_SCHEMA
            # Old rows survive; the new column reads as NULL.
            cells = migrated.trial_cells()
            assert cells == [("spec", "dwork", 0.5)]
            series = migrated.trial_series("spec", "dwork", 0.5)
            assert series[0]["oracle_kind"] is None
            # And the v2 alerts table exists.
            assert migrated.alert_rows() == []

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO meta VALUES ('schema_version', ?)",
            (str(HISTORY_SCHEMA + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(HistoryError, match="newer"):
            HistoryStore(path)


class TestCommitStamp:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "feedbeef")
        assert default_commit() == "feedbeef"

    def test_unknown_outside_any_repo(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_COMMIT", raising=False)
        assert default_commit(tmp_path) == "unknown"


class TestSpecNameParsing:
    def test_sweep_convention(self):
        parsed = parse_sweep_spec_name("sweep/age/boost/eps=0.1")
        assert parsed == {
            "dataset": "age", "publisher": "boost", "eps": "0.1",
        }

    def test_non_sweep_names_return_none(self):
        assert parse_sweep_spec_name("fig_point_vs_eps/boost") is None
        assert parse_sweep_spec_name("spec") is None


class TestJournalIngestion:
    def test_rows_and_counts(self, store, journal, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        result = store.ingest_journal(journal.path)
        assert result.kind == "journal"
        assert result.new_rows == 3
        assert result.duplicate_rows == 0
        counts = store.counts()
        assert counts["trials"] == 3
        assert counts["batches"] == 1

    def test_reingest_is_a_noop(self, store, journal, monkeypatch):
        """The acceptance contract: same journal twice changes no rows."""
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal(journal.path)
        before = store.counts()
        result = store.ingest_journal(journal.path)
        assert result.new_rows == 0
        assert result.duplicate_rows == 3
        assert result.batch_id is None  # not even a batch row
        assert store.counts() == before

    def test_new_commit_is_a_new_trajectory_point(
        self, store, journal, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal(journal.path)
        monkeypatch.setenv("REPRO_COMMIT", "c2")
        result = store.ingest_journal(journal.path)
        assert result.new_rows == 3
        series = store.trial_series(
            "sweep/age/noisefirst/eps=0.5", "noisefirst", 0.5
        )
        assert len(series) == 2
        assert [p["commit_sha"] for p in series] == ["c1", "c2"]

    def test_failed_records_keep_null_metrics(
        self, store, journal, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal(journal.path)
        series = store.trial_series(
            "sweep/age/noisefirst/eps=0.5", "noisefirst", 0.5
        )
        assert series[0]["n_ok"] == 2
        assert series[0]["n_failed"] == 1
        assert series[0]["mean_mse"] == pytest.approx(2.0)

    def test_dataset_column_from_spec_name(self, store, journal,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal(journal.path)
        row = store._conn.execute(
            "SELECT dataset FROM trials WHERE ok = 1 LIMIT 1"
        ).fetchone()
        assert row["dataset"] == "age"


class TestOracleAnchoring:
    def test_dwork_row_carries_the_exact_oracle(self, make_record):
        """dwork's closed-form MSE is 2/eps^2 per bin, independent of data."""
        from repro.datasets import standard

        hist = standard.age(n_bins=64, total=50_000)
        record = make_record(
            publisher="dwork", epsilon=0.5,
            spec_name="sweep/age/dwork/eps=0.5",
        )
        row = trial_row_from_record(record, FP, "c1", histogram=hist)
        assert row.oracle_kind == "exact"
        assert row.oracle_mse == pytest.approx(2.0 / 0.5 ** 2)
        assert row.n == 64

    def test_unknown_publisher_degrades_to_null(self, make_record):
        from repro.datasets import standard

        hist = standard.age(n_bins=64, total=50_000)
        record = make_record(
            publisher="nonesuch", spec_name="sweep/age/nonesuch/eps=0.5"
        )
        row = trial_row_from_record(record, FP, "c1", histogram=hist)
        assert row.oracle_mse is None
        assert row.oracle_kind is None

    def test_offline_reconstruction_matches_in_memory(
        self, store, tmp_path, make_record, monkeypatch
    ):
        """ingest_journal rebuilds the dataset from the spec name."""
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        j = CheckpointJournal(tmp_path / "dwork.jsonl")
        j.append(
            make_record(publisher="dwork", epsilon=0.5, seed=0,
                        spec_name="sweep/age/dwork/eps=0.5"),
            FP,
        )
        store.ingest_journal(j.path, n_bins=64, total=50_000)
        series = store.trial_series(
            "sweep/age/dwork/eps=0.5", "dwork", 0.5
        )
        assert series[0]["oracle_mse"] == pytest.approx(2.0 / 0.5 ** 2)

    def test_non_sweep_spec_names_stay_unanchored(self, store, tmp_path,
                                                  make_record, monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        j = CheckpointJournal(tmp_path / "adhoc.jsonl")
        j.append(make_record(seed=0, spec_name="spec"), FP)
        store.ingest_journal(j.path)
        series = store.trial_series("spec", "noisefirst", 0.5)
        assert series[0]["oracle_mse"] is None


class TestBenchIngestion:
    PAYLOAD = {
        "profile": "quick",
        "calibration_seconds": 0.03,
        "entries": {
            "publish/dwork/n=1024": {"seconds": 0.2, "normalized": 6.5},
            "publish/boost/n=1024": {"seconds": 0.4, "normalized": 13.0},
        },
    }

    def test_appends_one_row_per_key(self, store):
        result = store.ingest_bench_payload(
            dict(self.PAYLOAD), "BENCH_publishers.json", commit="c1"
        )
        assert result.new_rows == 2
        assert store.bench_keys() == [
            "publish/boost/n=1024", "publish/dwork/n=1024",
        ]

    def test_reingest_is_a_noop(self, store):
        store.ingest_bench_payload(
            dict(self.PAYLOAD), "BENCH_publishers.json", commit="c1"
        )
        before = store.counts()
        result = store.ingest_bench_payload(
            dict(self.PAYLOAD), "BENCH_publishers.json", commit="c1"
        )
        assert result.new_rows == 0
        assert store.counts() == before

    def test_series_is_ordered_oldest_first(self, store):
        for i, commit in enumerate(("c1", "c2", "c3")):
            payload = dict(self.PAYLOAD)
            payload["entries"] = {
                "publish/dwork/n=1024": {
                    "seconds": 0.2, "normalized": 6.5 + i,
                }
            }
            store.ingest_bench_payload(payload, "BENCH.json", commit=commit)
        series = store.bench_series("publish/dwork/n=1024")
        assert [p["normalized"] for p in series] == [6.5, 7.5, 8.5]


class TestMetricsIngestion:
    PAYLOAD = {
        "repro_trials_total": {
            "kind": "counter", "help": "trials",
            "samples": [{"labels": {"status": "ok"}, "value": 12}],
        },
        "repro_trial_seconds": {
            "kind": "histogram", "help": "latency",
            "samples": [{"labels": {}, "sum": 3.5, "count": 12,
                         "buckets": {"0.1": 2}}],
        },
    }

    def test_totals_land_and_histograms_split(self, store):
        result = store.ingest_metrics_payload(
            dict(self.PAYLOAD), "m.json", commit="c1"
        )
        assert result.new_rows == 3  # counter + histogram sum/count
        assert [p["value"] for p in
                store.metric_series("repro_trials_total")] == [12.0]
        assert [p["value"] for p in
                store.metric_series("repro_trial_seconds_sum")] == [3.5]

    def test_reingest_is_a_noop(self, store):
        store.ingest_metrics_payload(dict(self.PAYLOAD), "m.json",
                                     commit="c1")
        before = store.counts()
        store.ingest_metrics_payload(dict(self.PAYLOAD), "m.json",
                                     commit="c1")
        assert store.counts() == before


class TestAlerts:
    ALERT = {
        "kind": "straggler", "spec": "sweep/age/boost/eps=0.1",
        "seed": 3, "age_seconds": 42.0, "threshold": 10.0,
    }

    def test_alerts_round_trip(self, store):
        result = store.add_alerts([dict(self.ALERT)], commit="c1")
        assert result.new_rows == 1
        rows = store.alert_rows()
        assert rows[0]["spec_name"] == "sweep/age/boost/eps=0.1"
        assert rows[0]["age_seconds"] == 42.0

    def test_duplicate_alerts_skipped(self, store):
        store.add_alerts([dict(self.ALERT)], commit="c1")
        result = store.add_alerts([dict(self.ALERT)], commit="c1")
        assert result.new_rows == 0


class TestSniffing:
    def test_journal(self, journal):
        assert sniff_source(journal.path) == "journal"

    def test_bench(self, tmp_path):
        path = tmp_path / "BENCH_publishers.json"
        path.write_text(json.dumps(TestBenchIngestion.PAYLOAD))
        assert sniff_source(path) == "bench"

    def test_metrics(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(TestMetricsIngestion.PAYLOAD))
        assert sniff_source(path) == "metrics"

    def test_garbage_raises(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not an artifact\n")
        with pytest.raises(HistoryError, match="cannot classify"):
            sniff_source(path)

    def test_dispatching_ingest(self, store, journal, tmp_path,
                                monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        bench = tmp_path / "BENCH.json"
        bench.write_text(json.dumps(TestBenchIngestion.PAYLOAD))
        assert store.ingest(journal.path).kind == "journal"
        assert store.ingest(bench).kind == "bench"


class TestContentHashing:
    def test_timing_does_not_change_the_hash(self, make_record):
        fast = make_record(seed=0, seconds=0.1)
        slow = make_record(seed=0, seconds=99.0)
        assert trial_content_sha(fast) == trial_content_sha(slow)

    def test_statistics_do(self, make_record):
        a = make_record(seed=0)
        b = make_record(seed=1)
        assert trial_content_sha(a) != trial_content_sha(b)

    def test_dedup_key_mixes_commit_and_fingerprint(self):
        row = TrialRow(commit="c1", fingerprint=FP, spec_name="s",
                       publisher="p", epsilon=0.5, seed=0, ok=True,
                       content_sha="x")
        other = TrialRow(commit="c2", fingerprint=FP, spec_name="s",
                         publisher="p", epsilon=0.5, seed=0, ok=True,
                         content_sha="x")
        assert row.dedup_key != other.dedup_key


class TestUtilityIngestion:
    """End-to-end: real scenario runs -> journal -> utility table."""

    N_WORKLOADS = 7  # unit, marginal, clustered, heavy-tail, 3x len-*

    @pytest.fixture(scope="class")
    def scenario_journal(self, tmp_path_factory):
        from repro.robust.executor import supervise
        from repro.scenarios import build_scenario_specs

        path = tmp_path_factory.mktemp("scenario") / "scenario.jsonl"
        j = CheckpointJournal(path)
        (spec,) = build_scenario_specs(
            scenarios=["smooth/gmm-64"], publishers=["dwork"],
            epsilons=(1.0,), n_seeds=2,
        )
        supervise([spec], journal=j)
        return j

    def test_one_row_per_trial_workload(self, store, scenario_journal,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        result = store.ingest_journal_utility(scenario_journal.path)
        assert result.kind == "utility"
        assert result.new_rows == 2 * self.N_WORKLOADS
        assert store.counts()["utility"] == 2 * self.N_WORKLOADS
        assert store.utility_families() == ["smooth"]

    def test_every_workload_is_oracle_anchored(self, store,
                                               scenario_journal,
                                               monkeypatch):
        """dwork: unit oracle 2/eps^2; a length-L range pays L times that."""
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal_utility(scenario_journal.path)
        cells = store.utility_cells()
        assert len(cells) == self.N_WORKLOADS
        for family, scenario, publisher, eps, workload in cells:
            (point,) = store.utility_series(
                family, scenario, publisher, eps, workload
            )
            assert point["oracle_mse"] is not None
            assert point["oracle_kind"] == "exact"
        (unit,) = store.utility_series(
            "smooth", "gmm-64", "dwork", 1.0, "unit"
        )
        assert unit["oracle_mse"] == pytest.approx(2.0)
        assert unit["eff_queries"] == 64
        (len16,) = store.utility_series(
            "smooth", "gmm-64", "dwork", 1.0, "len-16"
        )
        assert len16["oracle_mse"] == pytest.approx(32.0)
        assert len16["eff_queries"] < unit["eff_queries"]

    def test_reingest_is_a_noop(self, store, scenario_journal,
                                monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal_utility(scenario_journal.path)
        before = store.counts()
        result = store.ingest_journal_utility(scenario_journal.path)
        assert result.new_rows == 0
        assert result.batch_id is None
        assert store.counts() == before

    def test_rebuild_leaves_trial_rows_untouched(self, store,
                                                 scenario_journal,
                                                 monkeypatch):
        """The --rebuild path: utility rows derive from old journals."""
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal(scenario_journal.path)
        trials_before = store.counts()["trials"]
        result = store.ingest_journal_utility(scenario_journal.path)
        assert result.new_rows == 2 * self.N_WORKLOADS
        assert store.counts()["trials"] == trials_before

    def test_honest_history_stays_green_across_commits(
        self, store, scenario_journal, monkeypatch
    ):
        """Acceptance: >= 3 commits of honest seeded runs, zero verdicts
        worse than ok."""
        from repro.obs.drift import has_confirmed_drift, utility_verdicts

        for commit in ("c1", "c2", "c3"):
            monkeypatch.setenv("REPRO_COMMIT", commit)
            store.ingest_journal_utility(scenario_journal.path)
        verdicts = utility_verdicts(store)
        assert len(verdicts) == self.N_WORKLOADS
        assert {v.status for v in verdicts} == {"ok"}
        assert not has_confirmed_drift(verdicts)

    def test_misscaled_publisher_run_is_confirmed_drift(
        self, store, tmp_path, monkeypatch
    ):
        """Acceptance: a 2/eps mis-scaled publisher, run through the real
        pipeline under dwork's name, produces a fatal utility verdict."""
        from repro.baselines.dwork import DworkIdentity
        from repro.robust.executor import supervise
        from repro.experiments.spec import ExperimentSpec
        from repro.obs.drift import has_confirmed_drift, utility_verdicts
        from repro.scenarios import get_scenario

        class MisScaledDwork(DworkIdentity):
            def _publish(self, histogram, accountant, rng):
                epsilon = accountant.total
                accountant.spend(accountant.total, purpose="laplace")
                noisy = histogram.counts + rng.laplace(
                    0.0, 2.0 / epsilon, histogram.size
                )
                return noisy, {}

        scenario = get_scenario("smooth/gmm-64")
        spec = ExperimentSpec(
            name="scenario/smooth/gmm-64/dwork/eps=1",
            histogram=scenario.build_histogram(),
            publisher_factory=MisScaledDwork,
            epsilon=1.0,
            workloads=scenario.build_workloads(),
            seeds=(0, 1),
        )
        j = CheckpointJournal(tmp_path / "misscaled.jsonl")
        supervise([spec], journal=j)
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal_utility(j.path)
        verdicts = utility_verdicts(store)
        by_workload = {
            v.cell.rsplit(", ", 1)[-1].rstrip("]"): v for v in verdicts
        }
        unit = by_workload["unit"]
        assert unit.status == "drift"
        assert unit.ratio == pytest.approx(4.0, rel=0.4)
        assert has_confirmed_drift(verdicts)

    @pytest.mark.parametrize("sensitivity,ratio", [(2.0, 4.0), (0.5, 0.25)])
    def test_misscaled_mechanism_is_anchored_to_its_contract(
        self, store, tmp_path, monkeypatch, sensitivity, ratio
    ):
        """A Dwork whose Laplace mechanism runs at the wrong sensitivity
        records that mechanism's own noise_variance; the anchor must
        still be the unbounded contract's 2/eps^2, so over-noising
        confirms drift from above and under-noising from below."""
        from repro.baselines.dwork import DworkIdentity
        from repro.robust.executor import supervise
        from repro.obs.drift import has_confirmed_drift, utility_verdicts
        from repro.scenarios import build_scenario_specs

        class MisScaledDwork(DworkIdentity):
            def __init__(self):
                super().__init__()
                self.sensitivity = sensitivity

        (spec,) = build_scenario_specs(
            scenarios=["smooth/gmm-64"], publishers=["dwork"],
            epsilons=(1.0,), n_seeds=2,
        )
        spec = type(spec)(
            **{**spec.__dict__, "publisher_factory": MisScaledDwork}
        )
        j = CheckpointJournal(tmp_path / "misscaled-dwork.jsonl")
        supervise([spec], journal=j)
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal_utility(j.path)
        (point,) = store.utility_series(
            "smooth", "gmm-64", "dwork", 1.0, "unit"
        )
        assert point["oracle_kind"] == "exact"
        assert point["oracle_mse"] == pytest.approx(2.0)  # 2/eps^2
        verdicts = utility_verdicts(store)
        unit = [v for v in verdicts if v.cell.endswith("unit]")][0]
        assert unit.status == "drift"
        assert unit.ratio == pytest.approx(ratio, rel=0.4)
        assert has_confirmed_drift(verdicts)


class TestNoiseFirstAnchoring:
    """Adaptive NoiseFirst picks its partition from the same noisy draw
    it averages, so the partition-conditional oracle is selection-biased
    low (~3x on step data).  The radar anchors merged-NF rows to the
    Section-4 identity bound instead — honest runs on NF's best-case
    scenario must stay green, and a mis-scaled NF must still confirm."""

    @pytest.fixture(scope="class")
    def step_journal(self, tmp_path_factory):
        from repro.robust.executor import supervise
        from repro.scenarios import build_scenario_specs

        path = tmp_path_factory.mktemp("nf") / "step.jsonl"
        j = CheckpointJournal(path)
        (spec,) = build_scenario_specs(
            scenarios=["step/step-64"], publishers=["noisefirst"],
            epsilons=(1.0,), n_seeds=2,
        )
        supervise([spec], journal=j)
        return j

    def test_merged_nf_anchors_to_identity_upper_bound(
        self, store, step_journal, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal_utility(step_journal.path)
        (point,) = store.utility_series(
            "step", "step-64", "noisefirst", 1.0, "unit"
        )
        assert point["oracle_kind"] == "upper_bound"
        assert point["oracle_mse"] == pytest.approx(2.0)  # identity 2/eps^2
        # Merging genuinely helps on step data — well below the bound.
        assert point["mean_mse"] < point["oracle_mse"]

    def test_honest_nf_on_its_best_scenario_stays_green(
        self, store, step_journal, monkeypatch
    ):
        from repro.obs.drift import has_confirmed_drift, utility_verdicts

        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal_utility(step_journal.path)
        verdicts = utility_verdicts(store)
        assert {v.status for v in verdicts} == {"ok"}
        assert not has_confirmed_drift(verdicts)

    def test_misscaled_nf_still_confirms_drift(
        self, store, tmp_path, monkeypatch
    ):
        from repro.core.noise_first import NoiseFirst
        from repro.robust.executor import supervise
        from repro.obs.drift import has_confirmed_drift, utility_verdicts
        from repro.scenarios import build_scenario_specs

        class MisScaledNF(NoiseFirst):
            def __init__(self):
                super().__init__()
                self.sensitivity = 2.0  # Laplace(2/eps) for an eps spend

        (spec,) = build_scenario_specs(
            scenarios=["step/step-64"], publishers=["noisefirst"],
            epsilons=(1.0,), n_seeds=2,
        )
        spec = type(spec)(
            **{**spec.__dict__, "publisher_factory": MisScaledNF}
        )
        j = CheckpointJournal(tmp_path / "mis-nf.jsonl")
        supervise([spec], journal=j)
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal_utility(j.path)
        verdicts = utility_verdicts(store)
        unit = [v for v in verdicts if v.cell.endswith("unit]")][0]
        assert unit.status == "drift"
        assert unit.ratio > 1.0 + unit.band
        assert has_confirmed_drift(verdicts)

    @pytest.mark.parametrize("publisher", ["noisefirst", "dwork"])
    def test_honest_bounded_publish_anchors_at_sensitivity_two(
        self, store, tmp_path, monkeypatch, publisher
    ):
        """Bounded neighbours double the sensitivity: merged NoiseFirst's
        identity bound and Dwork's exact oracle are 2(2/eps)^2 a bin, so
        honest bounded runs stay green instead of reading 4x drift."""
        import functools

        from repro.baselines.dwork import DworkIdentity
        from repro.core.noise_first import NoiseFirst
        from repro.robust.executor import supervise
        from repro.obs.drift import has_confirmed_drift, utility_verdicts
        from repro.scenarios import build_scenario_specs

        cls = {"noisefirst": NoiseFirst, "dwork": DworkIdentity}[publisher]
        (spec,) = build_scenario_specs(
            scenarios=["step/step-64"], publishers=[publisher],
            epsilons=(1.0,), n_seeds=4,
        )
        spec = type(spec)(**{
            **spec.__dict__,
            "publisher_factory": functools.partial(cls, neighbours="bounded"),
        })
        j = CheckpointJournal(tmp_path / "bounded.jsonl")
        supervise([spec], journal=j)
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal_utility(j.path)
        (point,) = store.utility_series(
            "step", "step-64", publisher, 1.0, "unit"
        )
        assert point["oracle_mse"] == pytest.approx(8.0)  # 2 (2/eps)^2
        verdicts = utility_verdicts(store)
        assert {v.status for v in verdicts} == {"ok"}
        assert not has_confirmed_drift(verdicts)


class TestPriorCellStats:
    def test_excludes_by_content_sha(self, store, journal, make_record,
                                     monkeypatch):
        monkeypatch.setenv("REPRO_COMMIT", "c1")
        store.ingest_journal(journal.path)
        name = "sweep/age/noisefirst/eps=0.5"
        own = [trial_content_sha(make_record(seed=s, spec_name=name))
               for s in (0, 1)]
        # Excluding the journal's own rows leaves nothing prior.
        assert store.prior_cell_stats(
            name, "noisefirst", 0.5, exclude_shas=own
        ) is None
        # Without exclusions the two ok rows aggregate.
        stats = store.prior_cell_stats(name, "noisefirst", 0.5)
        assert stats["n_trials"] == 2
        assert stats["mean_mse"] == pytest.approx(2.0)


class TestIngestCache:
    """One store builds each data-independent oracle, dataset and workload
    battery once, across records, journals and both ingest passes, and
    its rows equal a rebuild of every record from scratch."""

    SCENARIOS = ("step/step-64", "step/step-256")

    @pytest.fixture(scope="class")
    def journals(self, tmp_path_factory):
        """An n=64 and an n=256 journal, each with two ε and two seeds of
        dwork, NoiseFirst, Boost, Privelet and DAWA-lite."""
        import dataclasses

        from repro.robust.sweep import run_sweep
        from repro.scenarios import build_scenario_specs
        from repro.serve.spec import serve_roster

        root = tmp_path_factory.mktemp("cache")
        paths = []
        for name in self.SCENARIOS:
            specs = build_scenario_specs(
                scenarios=[name],
                publishers=["dwork", "noisefirst", "boost", "privelet"],
                epsilons=(0.5, 1.0), n_seeds=2,
            )
            specs += [
                dataclasses.replace(
                    s, name=s.name.replace("/dwork/", "/dawa-lite/"),
                    publisher_factory=serve_roster()["dawa-lite"])
                for s in specs if "/dwork/" in s.name
            ]
            path = root / f"{name.split('/')[1]}.jsonl"
            run_sweep(specs, journal=str(path))
            paths.append(path)
        return paths

    @staticmethod
    def _table(store, table):
        cols = [r[1] for r in store._conn.execute(
            f"PRAGMA table_info({table})")]
        keep = [c for c in cols if c not in ("id", "batch_id")]
        rows = store._conn.execute(
            f"SELECT {', '.join(keep)} FROM {table} ORDER BY id"
        ).fetchall()
        # repr keeps every float bit (oracle_mse included).
        return [tuple(repr(v) for v in row) for row in rows]

    def test_rows_equal_a_per_record_rebuild(self, journals, tmp_path):
        from repro.obs.history import utility_rows_from_record
        from repro.robust.journal import record_from_payload
        from repro.scenarios import parse_scenario_spec_name

        with HistoryStore(tmp_path / "cached.sqlite") as cached, \
                HistoryStore(tmp_path / "rebuilt.sqlite") as rebuilt:
            for path in journals:
                cached.ingest_journal(path, commit="c1")
                cached.ingest_journal_utility(path, commit="c1")
            for path in journals:
                trial_rows, utility_rows = [], []
                for entry in CheckpointJournal(path).latest():
                    record = record_from_payload(entry["payload"])
                    scenario = parse_scenario_spec_name(
                        record.spec_name)[0]
                    fp = entry["fingerprint"]
                    trial_rows.append(trial_row_from_record(
                        record, fp, "c1",
                        histogram=scenario.build_histogram()))
                    utility_rows += utility_rows_from_record(
                        record, fp, "c1",
                        histogram=scenario.build_histogram(),
                        workloads={w.name: w
                                   for w in scenario.build_workloads()})
                rebuilt.add_trials(trial_rows)
                rebuilt.add_utility(utility_rows)
            assert cached.counts()["trials"] == 2 * 5 * 2 * 2
            for table in ("trials", "utility"):
                assert self._table(cached, table) == \
                    self._table(rebuilt, table)
            kinds = {row["oracle_kind"] for row in cached._conn.execute(
                "SELECT oracle_kind FROM utility")}
            assert None not in kinds

    def test_reingesting_the_journals_adds_no_rows(self, journals,
                                                   tmp_path):
        with HistoryStore(tmp_path / "h.sqlite") as store:
            for path in journals:
                store.ingest_journal(path, commit="c1")
                store.ingest_journal_utility(path, commit="c1")
            before = store.counts()
            for path in journals:
                assert store.ingest_journal(path, commit="c1").new_rows == 0
                assert store.ingest_journal_utility(
                    path, commit="c1").new_rows == 0
            assert store.counts() == before

    def test_each_matrix_built_once(self, journals, tmp_path, monkeypatch):
        """Boost's tree and Privelet's Haar inverse once per n, and
        DAWA-lite's bucket tree once per distinct k, across records,
        journals and both passes."""
        from repro.robust.journal import record_from_payload
        from repro.verify import oracles

        built = []
        original = oracles.linear_operator_matrix

        def counting(apply_fn, input_dim, *args, **kwargs):
            built.append(input_dim)
            return original(apply_fn, input_dim, *args, **kwargs)

        monkeypatch.setattr(oracles, "linear_operator_matrix", counting)
        with HistoryStore(tmp_path / "h.sqlite") as store:
            for path in journals:
                store.ingest_journal(path, commit="c1")
                store.ingest_journal_utility(path, commit="c1")
        dawa_ks = {
            record.meta["partition"].k
            for path in journals
            for record in (record_from_payload(e["payload"])
                           for e in CheckpointJournal(path).latest())
            if record.publisher == "dawa-lite"
        }
        trees = {64, 256} | dawa_ks
        assert len(built) == len(trees) + 2  # + Haar at n = 64 and 256

    def test_cached_oracles_are_read_only(self):
        from repro.datasets.generators import step_histogram
        from repro.verify.oracles import OracleCache, oracle_from_result

        class Result:
            meta = {"branching": 2, "consistency": True}

        hist = step_histogram(32, 4, total=1_000, rng=0)
        cache = OracleCache()
        oracle = cache.from_result("boost", hist, 0.5, Result())
        assert cache.from_result("boost", hist, 0.5, Result()) is oracle
        for array in (oracle.covariance, oracle.per_bin_bias):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        fresh = oracle_from_result("boost", hist, 0.5, Result())
        assert fresh is not oracle
        assert fresh.covariance.tobytes() == oracle.covariance.tobytes()
        fresh.covariance[0, 0] = 1.0  # uncached oracles stay writable
