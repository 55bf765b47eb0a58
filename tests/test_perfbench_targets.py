"""The names ``perfbench/tracing.py`` patches stay where it patches them.

The traced benchmark run (``python3 perfbench/run.py --trace 1``) wraps
methods through their class ``__dict__`` and counts process pools
through the executor module's ``ProcessPoolExecutor`` name.  A rename, a
move to a base class or a merge silences that layer without an error,
so these tests pin each target.
"""

import pytest

from repro.accounting.ledger import Ledger
from repro.obs.history import HistoryStore
from repro.perf.costrows import LazySAECost
from repro.robust import executor
from repro.robust.journal import CheckpointJournal
from repro.serve.ledgerlog import LedgerLog
from repro.serve.tenants import TenantLedgers

METHODS = [
    (CheckpointJournal, "append"),
    (Ledger, "total"),
    (TenantLedgers, "charge"),
    (LedgerLog, "append_debit"),
    (LedgerLog, "append_tenant"),
    (LedgerLog, "replay"),
    (LazySAECost, "column"),
    (HistoryStore, "ingest_journal"),
    (HistoryStore, "ingest_journal_utility"),
]


@pytest.mark.parametrize(
    "cls, name", METHODS, ids=[f"{c.__name__}.{n}" for c, n in METHODS]
)
def test_method_is_defined_on_its_class(cls, name):
    assert callable(cls.__dict__.get(name))


@pytest.fixture
def scenario_journal(tmp_path):
    from repro.robust.sweep import run_sweep
    from repro.scenarios import build_scenario_specs

    path = tmp_path / "j.jsonl"
    run_sweep(build_scenario_specs(
        scenarios=["smooth/gmm-64"], publishers=["dwork"], epsilons=(1.0,),
        n_seeds=1,
    ), journal=str(path))
    return path


@pytest.mark.parametrize("called, other", [
    ("ingest_journal", "ingest_journal_utility"),
    ("ingest_journal_utility", "ingest_journal"),
])
def test_ingest_passes_do_not_call_each_other(
    called, other, scenario_journal, tmp_path, monkeypatch
):
    """Both passes carry one ``history.ingest`` span each; a pass that
    called the other would count that time twice."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{called} called {other}")

    monkeypatch.setattr(HistoryStore, other, forbidden)
    with HistoryStore(tmp_path / "h.sqlite") as store:
        assert getattr(store, called)(scenario_journal,
                                      commit="c1").new_rows > 0


@pytest.fixture
def make_spec_for_pool():
    from repro.baselines.dwork import DworkIdentity
    from repro.datasets.generators import step_histogram
    from repro.experiments.spec import ExperimentSpec
    from repro.workloads.builders import unit_queries

    hist = step_histogram(16, 2, total=1_000, rng=0)

    def make(name):
        return ExperimentSpec(
            name=name, histogram=hist, publisher_factory=DworkIdentity,
            epsilon=1.0, workloads=(unit_queries(hist.size),), seeds=(0, 1),
        )

    return make


def test_pools_are_built_through_the_executor_module_name(
    monkeypatch, make_spec_for_pool
):
    starts = []

    class CountingPool(executor.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor, "ProcessPoolExecutor", CountingPool)
    executor.supervise([make_spec_for_pool("a"), make_spec_for_pool("b")],
                       n_jobs=2)
    assert starts == [1]

