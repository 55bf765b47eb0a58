"""Integration: every publisher's ledger must sum to its declared budget.

This is the library's core correctness claim — each algorithm's composed
privacy cost equals (never exceeds) what the caller granted — checked
through the real code paths, not mocks.
"""

import pytest

from repro.baselines import (
    Ahp,
    Boost,
    DawaLite,
    DworkIdentity,
    FourierPublisher,
    Mwem,
    Privelet,
    UniformFlat,
)
from repro.core import NoiseFirst, StructureFirst

ALL_PUBLISHERS = [
    Ahp,
    DawaLite,
    DworkIdentity,
    NoiseFirst,
    StructureFirst,
    Boost,
    Privelet,
    lambda: Mwem(rounds=4),
    FourierPublisher,
    UniformFlat,
]


@pytest.mark.parametrize("factory", ALL_PUBLISHERS)
@pytest.mark.parametrize("epsilon", [0.01, 0.1, 1.0])
def test_ledger_sums_to_declared_budget(factory, epsilon, medium_hist):
    result = factory().publish(medium_hist, budget=epsilon, rng=0)
    assert result.epsilon_spent == pytest.approx(epsilon, rel=1e-9)


@pytest.mark.parametrize("factory", ALL_PUBLISHERS)
def test_ledger_never_empty(factory, medium_hist):
    result = factory().publish(medium_hist, budget=0.5, rng=0)
    assert len(result.accountant.ledger) >= 1


@pytest.mark.parametrize("factory", ALL_PUBLISHERS)
def test_no_delta_spent_by_pure_dp_publishers(factory, medium_hist):
    """Every spend is a plain ε: the ledger has no slot for a δ."""
    result = factory().publish(medium_hist, budget=0.5, rng=0)
    assert type(result.accountant.spent) is float
    for record in result.accountant.ledger:
        assert type(record.epsilon) is float
        assert set(vars(record)) == {"epsilon", "purpose", "parallel_group"}


def test_structure_first_split_respects_fraction(medium_hist):
    result = StructureFirst(structure_fraction=0.3).publish(
        medium_hist, budget=1.0, rng=0
    )
    assert result.meta["eps_structure"] == pytest.approx(0.3)
    assert result.meta["eps_noise"] == pytest.approx(0.7)
    assert result.epsilon_spent == pytest.approx(1.0)


def test_boost_levels_use_parallel_groups(medium_hist):
    result = Boost().publish(medium_hist, budget=0.8, rng=0)
    groups = {r.parallel_group for r in result.accountant.ledger}
    assert len(groups) == result.meta["height"]
