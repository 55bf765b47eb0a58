"""Near-linear partition kernels and the tracked perf-benchmark harness.

The v-optimal recurrence

    OPT[k][j] = min_{i < j} OPT[k-1][i] + cost(i, j)

is the inner loop of NoiseFirst's adaptive ``k*`` search, AHP's cluster
selection, and (in log-sum-exp form) StructureFirst's Gibbs sampler.
Evaluated naively it costs ``O(n^2 k)``.  Three kernels compute the
tables (:mod:`repro.perf.kernels`):

* ``"reference"`` — the original ``O(n^2 k)`` prefix loop, the
  correctness anchor.
* ``"exact_blocked"`` — the same candidate set evaluated in
  cache-blocked chunks with a preallocated buffer; bit-identical to the
  reference on *every* input, constant-factor faster.
* ``"exact_dc"`` (default) — divide-and-conquer DP optimization,
  ``O(n k log n)``.  It requires the concave quadrangle inequality
  (Monge condition), which SSE/SAE segment costs satisfy **only on
  sorted sequences** (``[0, 1, 0]`` is a counterexample on unsorted
  data — see ``docs/performance.md``).  The dispatch therefore engages
  the divide-and-conquer layer solely when the cost provider certifies
  Monge structure (``monge_certified``, an O(n) sortedness check) —
  exactly AHP's sorted-scaffold clustering workload — and silently
  falls back to the blocked exact scan otherwise, so every kernel name
  is exact on every input and ``"exact_dc"`` is always safe as the
  default.  Where it engages it is floating-point bit-identical to the
  reference (same per-candidate arithmetic, leftmost tie-break).

Beyond the exact engines, ``"approx"`` (:mod:`repro.perf.approx`) runs
a sparse candidate-thinning DP with a provable ``(1+delta)``
multiplicative cost bound in near-linear time — the engine behind the
``"auto"`` default at large ``n``, where every exact kernel hits the
quadratic wall.

:mod:`repro.perf.costrows` supplies the segment-cost providers the
kernels and the Gibbs sampler consume lazily (one column at a time), so
StructureFirst no longer materializes an ``O(n^2)`` cost matrix.
:mod:`repro.perf.bench` is the tracked benchmark harness behind
``python -m repro bench`` and the ``BENCH_*.json`` artifacts at the repo
root.  See ``docs/performance.md``.
"""

from repro.perf.kernels import (
    AUTO_APPROX_THRESHOLD,
    EXACT_KERNELS,
    KERNELS,
    dp_tables,
    resolve_kernel,
    resolve_table_kernel,
)
from repro.perf.approx import (
    APPROX_DELTA,
    APPROX_MAX_RUNGS,
    ApproxDP,
    approx_tables,
)
from repro.perf.costrows import (
    DenseCost,
    LazySAECost,
    PrefixSSECost,
    as_cost_rows,
)

__all__ = [
    "KERNELS",
    "EXACT_KERNELS",
    "AUTO_APPROX_THRESHOLD",
    "dp_tables",
    "resolve_kernel",
    "resolve_table_kernel",
    "APPROX_DELTA",
    "APPROX_MAX_RUNGS",
    "ApproxDP",
    "approx_tables",
    "DenseCost",
    "LazySAECost",
    "PrefixSSECost",
    "as_cost_rows",
]
