"""Privacy-budget accounting on plain ε.

Publishers never call ``rng.laplace`` on their own authority; they draw
ε from an :class:`Accountant`, which enforces that the total epsilon
spent never exceeds what the caller granted.  Every publisher here is
pure ε-DP, so a budget is a float.  The ledger records every spend so
tests (and auditors) can verify each algorithm's composed privacy
claim, and keeps the composition as a running total, so a charge costs
the same however many spends came before it.
"""

from repro.accounting.ledger import Ledger, SpendRecord
from repro.accounting.accountant import EPS_TOL, Accountant

__all__ = ["EPS_TOL", "Ledger", "SpendRecord", "Accountant"]
