"""Tour of the privacy accounting layer.

Shows how budgets compose (sequential and parallel), how the accountant
refuses overdrafts, and how to audit exactly where an algorithm spent its
budget.

Run:  python examples/privacy_accounting_tour.py
"""

from repro import Boost, StructureFirst
from repro.accounting import Accountant
from repro.datasets import searchlogs
from repro.exceptions import BudgetExceededError

# --- A budget is a plain epsilon: split it with arithmetic ---------------
total = 1.0
structure, counts = total * 0.25, total * 0.75
print(f"total eps={total:g}; structure share eps={structure:g}; "
      f"counts share eps={counts:g}")

# --- The accountant enforces the ledger ----------------------------------
acc = Accountant(total)
acc.spend(structure, purpose="choose-structure")
acc.spend(counts, purpose="noise-counts")
print(f"after both spends: remaining eps={acc.remaining:g}")

try:
    acc.spend(0.01, purpose="one more query")
except BudgetExceededError as exc:
    print(f"overdraft correctly refused: {exc}")

# --- Parallel composition: disjoint data, shared budget -------------------
acc2 = Accountant(0.5)
for shard in ["bins 0-99", "bins 100-199", "bins 200-299"]:
    # Same epsilon on disjoint bins composes in parallel: the ledger
    # charges the max, not the sum.
    acc2.spend(0.5, purpose=f"count {shard}", parallel_group="shards")
print(f"three parallel spends of 0.5 cost only: eps={acc2.spent:g}")

# --- Auditing a real algorithm's composition ------------------------------
truth = searchlogs(n_bins=128, total=50_000)
for publisher in [StructureFirst(), Boost()]:
    result = publisher.publish(truth, budget=0.2, rng=0)
    print(f"\n{publisher.name}: declared eps=0.2, "
          f"ledger total={result.epsilon_spent:.6f}")
    for record in result.accountant.ledger:
        group = f" [parallel:{record.parallel_group}]" \
            if record.parallel_group else ""
        print(f"  eps={record.epsilon:g}  <- {record.purpose}{group}")
