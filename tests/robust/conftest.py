"""Shared fixtures for the robustness / chaos suite.

Every chaos test is deterministic: faults come from an explicit
:mod:`repro.robust.faults` plan file (activated through the environment
so worker processes inherit it), seeds fully determine results, and the
backoff sleeps are stubbed out.
"""

import pytest

from repro.baselines.dwork import DworkIdentity
from repro.datasets.generators import step_histogram
from repro.experiments.spec import ExperimentSpec
from repro.robust import faults
from repro.workloads.builders import unit_queries


@pytest.fixture(scope="session")
def step_hist():
    return step_histogram(32, 4, total=20_000, rng=7)


@pytest.fixture
def make_spec(step_hist):
    def _make(seeds=(0, 1, 2, 3), factory=DworkIdentity, name="chaos",
              epsilon=0.5, n_jobs=1):
        return ExperimentSpec(
            name=name,
            histogram=step_hist,
            publisher_factory=factory,
            epsilon=epsilon,
            workloads=(unit_queries(step_hist.size),),
            seeds=seeds,
            n_jobs=n_jobs,
        )

    return _make


@pytest.fixture
def no_sleep():
    """Backoff sleep stub: records requested delays, sleeps zero."""
    delays = []

    def _sleep(seconds):
        delays.append(seconds)

    _sleep.delays = delays
    return _sleep


@pytest.fixture
def fault_env(tmp_path, monkeypatch):
    """Write a fault plan and activate it via REPRO_FAULT_PLAN.

    Returns a callable ``activate(rules)`` that (re)writes the plan —
    resetting its hit slots — and points the environment at it.
    """
    plan_path = tmp_path / "fault_plan.json"

    def _activate(rules):
        faults.write_plan(plan_path, rules)
        monkeypatch.setenv(faults.ENV_VAR, str(plan_path))
        return plan_path

    yield _activate
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
