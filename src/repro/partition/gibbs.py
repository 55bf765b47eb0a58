"""Exact exponential-mechanism sampling over the partition space.

The exponential mechanism over all ``C(n-1, k-1)`` contiguous k-bucket
partitions with utility ``u(P) = -cost(P)`` assigns

    Pr[P]  proportional to  exp(-alpha * cost(P)),
    alpha = eps / (2 * sensitivity(cost))

— a Gibbs distribution over segmentations.  Enumerating partitions is
intractable, but because the cost is additive over buckets the partition
function factorizes along a prefix dynamic program: replace the min of
the v-optimal DP with a log-sum-exp, then sample boundaries backward from
the softmax weights.  This draws from the Gibbs distribution *exactly*
(standard forward-filter backward-sample), in ``O(n^2 k)`` time — the
same cost as the v-optimal DP itself.

Costs are consumed **one column at a time** through the cost-rows
protocol (:mod:`repro.perf.costrows`): the forward filter only ever
needs ``cost(i, j)`` for the current prefix ``j``, and the backward
sampler touches ``k - 1`` columns.  Passing a lazy provider
(:class:`~repro.perf.costrows.LazySAECost`,
:class:`~repro.perf.costrows.PrefixSSECost`) therefore runs the whole
draw in ``O(n k)`` memory instead of materializing the dense
``(n, n + 1)`` cost matrix (``O(n^2)``).  A precomputed ndarray is still
accepted and wrapped in :class:`~repro.perf.costrows.DenseCost`.

At ``alpha -> 0`` the distribution degrades gracefully to uniform over
all feasible partitions (boundaries ~ uniform order statistics), not to
any degenerate shape; at ``alpha -> inf`` it concentrates on the
v-optimal partition.

StructureFirst uses this with the SAE cost (sensitivity 1), spending its
whole structure budget on one draw.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_rng, check_integer, check_non_negative
from repro.obs.trace import span
from repro.partition.partition import Partition
from repro.perf.costrows import as_cost_rows

__all__ = ["sample_partition_em", "log_partition_table"]


def log_partition_table(cost, k: int, alpha: float) -> np.ndarray:
    """Forward pass: ``L[level][j] = log sum over partitions of first j bins
    into `level` buckets of exp(-alpha * cost)``.

    ``cost`` is either a cost-rows provider (``.n`` and ``.column(j)``
    returning ``cost(i, j)`` for ``i in [0, j)``) or a dense
    ``(n, n + 1)`` matrix (e.g. :func:`repro.partition.sae.sae_matrix`).
    Infeasible states are ``-inf``.  Peak extra memory is one column
    plus the ``(k + 1, n + 1)`` table when a lazy provider is passed.
    """
    rows = as_cost_rows(cost)
    n = rows.n
    check_integer(k, "k", minimum=1)
    if k > n:
        raise ValueError(f"k ({k}) cannot exceed n ({n})")
    check_non_negative(alpha, "alpha")

    table = np.full((k + 1, n + 1), -np.inf, dtype=np.float64)
    table[0][0] = 0.0
    # One vectorized pass per prefix j computes every level at once:
    # table[level][j] = logsumexp_i(table[level-1][i] - alpha*cost(i, j)).
    # -inf entries of infeasible states propagate correctly through the
    # row-wise stable logsumexp below.
    for j in range(1, n + 1):
        # Only states reachable by backward sampling from (k, n) matter:
        # level <= j (enough bins before) and level >= k - (n - j)
        # (enough bins after for the remaining buckets).
        top = min(k, j)
        bottom = max(1, k - (n - j))
        if bottom > top:
            continue
        closing = alpha * rows.column(j)
        logits = table[bottom - 1 : top, :j] - closing[None, :]
        row_max = logits.max(axis=1)
        finite = np.isfinite(row_max)
        sums = np.zeros(top - bottom + 1, dtype=np.float64)
        if np.any(finite):
            shifted = logits[finite] - row_max[finite, None]
            sums[finite] = np.exp(shifted).sum(axis=1)
        with np.errstate(divide="ignore"):
            table[bottom : top + 1, j] = np.where(
                finite, row_max + np.log(np.maximum(sums, 1e-300)), -np.inf
            )
    return table


def sample_partition_em(
    cost,
    k: int,
    alpha: float,
    rng: "np.random.Generator | int | None" = None,
) -> Partition:
    """Draw one partition from the Gibbs distribution over k-bucket splits.

    Backward sampling: starting from the full prefix, the boundary
    closing the last bucket is drawn with log-weights
    ``L[k-1][i] - alpha * cost(i, n)`` via the Gumbel-max trick, then the
    procedure recurses on the prefix.  The joint draw is exactly
    ``Pr[P] ~ exp(-alpha * cost(P))``.

    ``cost`` follows the same contract as :func:`log_partition_table`
    (lazy cost-rows provider or dense ``(n, n + 1)`` matrix).
    """
    rows = as_cost_rows(cost)
    n = rows.n
    with span("gibbs.forward-filter", n=n, k=k):
        table = log_partition_table(rows, k, alpha)
    generator = as_rng(rng)

    with span("gibbs.backward-sample", n=n, k=k):
        boundaries = []
        j = n
        for level in range(k, 1, -1):
            lo = level - 1
            col = rows.column(j)
            logits = table[level - 1][lo:j] - alpha * col[lo:j]
            gumbel = generator.gumbel(0.0, 1.0, size=logits.shape)
            # -inf logits stay -inf after Gumbel noise: never selected.
            choice = int(np.argmax(logits + gumbel))
            j = lo + choice
            boundaries.append(j)
        boundaries.reverse()
    return Partition(n=n, boundaries=tuple(boundaries))
