"""Append-only ledger of privacy spends.

Every mechanism invocation inside a publisher records *what* was spent
and *why* (a free-form purpose label), so the composed privacy claim of
any algorithm can be audited after the fact.  Tests across the suite
assert that each publisher's ledger sums exactly to its declared budget.

The ledger composes as it appends: it keeps the sequential sum and each
parallel group's maximum, so :meth:`Ledger.total` never visits the
records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["SpendRecord", "Ledger"]


@dataclass(frozen=True)
class SpendRecord:
    """One ε spend: how much, what for, and under which composition.

    ``parallel_group`` tags spends that act on *disjoint* subsets of the
    data: spends sharing a group compose in parallel (max) rather than
    sequentially (sum).  ``None`` means plain sequential composition.
    """

    epsilon: float
    purpose: str
    parallel_group: Optional[str] = None


def _compose(sequential: float, groups: Iterable[float]) -> float:
    # A plain loop, not sum(): from Python 3.12 sum() compensates float
    # rounding, which would change the composed bits.
    for epsilon in groups:
        sequential = sequential + epsilon
    return sequential


class Ledger:
    """Ordered record of every spend drawn from an accountant."""

    def __init__(self) -> None:
        #: The audit trail, in spend order.
        self.records: List[SpendRecord] = []
        #: Ungrouped spends summed in append order.
        self._sequential = 0.0
        #: Each parallel group's largest spend, in first-appearance order.
        self._groups: Dict[str, float] = {}

    def append(self, record: SpendRecord) -> None:
        """Add a spend record (called by the accountant only)."""
        self.records.append(record)
        group = record.parallel_group
        if group is None:
            self._sequential = self._sequential + record.epsilon
        else:
            self._groups[group] = max(self._groups.get(group, 0.0),
                                      record.epsilon)

    def __iter__(self) -> Iterator[SpendRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def total(self) -> float:
        """Composed ε: sequential spends add; parallel groups take max.

        Within a ``parallel_group`` the worst single spend bounds the
        group's privacy cost (the spends touch disjoint records); groups
        and ungrouped spends then compose sequentially: the ungrouped
        sum first, then each group's maximum in order of appearance.
        """
        return _compose(self._sequential, self._groups.values())

    def total_with(self, epsilon: float,
                   parallel_group: Optional[str] = None) -> float:
        """What :meth:`total` would return after one more spend."""
        if parallel_group is None:
            return _compose(self._sequential + epsilon, self._groups.values())
        groups = dict(self._groups)
        groups[parallel_group] = max(groups.get(parallel_group, 0.0), epsilon)
        return _compose(self._sequential, groups.values())

    def purposes(self) -> List[str]:
        """Purpose labels in spend order (handy for test assertions)."""
        return [rec.purpose for rec in self.records]
