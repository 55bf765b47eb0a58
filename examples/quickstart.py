"""Quickstart: publish a differentially private histogram in ten lines.

Run:  python examples/quickstart.py
"""

from repro import NoiseFirst, datasets
from repro.metrics import mean_absolute_error

# 1. Load a dataset (a synthetic census-age histogram, 100 bins).
truth = datasets.age()
print(f"dataset: {truth}")

# 2. Publish it with NoiseFirst under a total budget of epsilon = 0.1.
result = NoiseFirst().publish(truth, budget=0.1, rng=42)

# 3. Inspect what happened.
print(f"epsilon spent: {result.epsilon_spent}")
print(f"buckets chosen adaptively: k* = {result.meta['k']}")
print("per-bin MAE:",
      round(mean_absolute_error(truth.counts, result.histogram.counts), 2))

# 4. The sanitized histogram is a first-class Histogram: query it freely —
#    everything after publication is free post-processing.
print("true count of bins 30-39:   ", truth.range_sum(30, 39))
print("private count of bins 30-39:",
      round(result.histogram.range_sum(30, 39), 1))

# 5. The ledger documents every budget spend for auditing.
for record in result.accountant.ledger:
    print(f"ledger: spent eps={record.epsilon:g} on {record.purpose!r}")
