"""DP kernels for the v-optimal recurrence: reference, blocked, and D&C.

All kernels fill the same pair of tables

    opt[k][j]     = min over i of opt[k-1][i] + cost(i, j)
    choices[k][j] = the (leftmost) argmin i

for every ``k <= max_k`` and prefix ``j <= n``, given a *segment-cost
provider* (:mod:`repro.perf.costrows`) answering ``cost(i, j)`` — the
cost of merging bins ``[i, j)`` into one bucket — from O(n) state.

``reference``
    The original ``O(n^2 k)`` prefix loop, one vectorized pass per
    prefix.  Kept verbatim as the correctness anchor.

``exact_blocked``
    The same ``O(n^2 k)`` candidate set, restructured for the memory
    hierarchy: pre-allocated candidate buffers (no per-prefix
    allocation churn) and layer-chunked add→argmin passes sized to stay
    L2-resident, so the candidate matrix is streamed from main memory
    once instead of three times.  Performs the *identical*
    floating-point operations per candidate and breaks ties toward the
    smallest index, so its tables agree with ``reference`` bit for bit
    on **every** input — this is the exact fast path for arbitrary
    (unsorted) data such as NoiseFirst's noisy counts.

``exact_dc``
    Divide-and-conquer DP optimization (SMAWK-style row-minima search),
    ``O(n k log n)``.  Valid when the segment cost satisfies the
    **concave quadrangle inequality** (inverse-Monge condition)

        cost(a, c) + cost(b, d) <= cost(a, d) + cost(b, c)
        for a <= b <= c <= d,

    which makes the per-layer candidate matrix ``E[j][i] = opt_prev[i]
    + cost(i, j)`` a Monge matrix whose leftmost row minima are
    monotone non-decreasing in ``j``.  **SSE/SAE costs satisfy the QI
    for sorted inputs** (the classical 1-D quantization / k-means
    setting — AHP's sorted-scaffold clustering) but *not* for arbitrary
    sequences; see docs/performance.md for the counterexample.  The
    dispatcher therefore consults the provider's ``monge_certified``
    flag and silently falls back to ``exact_blocked`` when the
    certificate is absent, so ``kernel="exact_dc"`` is *always exact* —
    it is simply fastest when the Monge structure is available.

The module deliberately imports nothing from :mod:`repro.partition` so
the partition package can depend on it without cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "KERNELS",
    "EXACT_KERNELS",
    "AUTO_APPROX_THRESHOLD",
    "dp_tables",
    "resolve_kernel",
    "resolve_table_kernel",
]

#: Supported kernel names.  ``auto`` (the default) runs ``exact_dc`` up
#: to :data:`AUTO_APPROX_THRESHOLD` bins — bit-identical to the historical
#: default — and the ``approx`` engine (:mod:`repro.perf.approx`) beyond
#: it, where exact DP is a quadratic wall.
KERNELS = ("auto", "exact_dc", "exact_blocked", "reference", "approx")

#: Kernels guaranteed to fill exact dense tables, in preference order.
EXACT_KERNELS = ("exact_dc", "exact_blocked", "reference")

#: ``auto`` switches from the exact divide-and-conquer/blocked path to
#: the approximate (1+delta) engine above this many bins.
AUTO_APPROX_THRESHOLD = 8192

#: Below this many prefixes a divide-and-conquer node switches to one
#: vectorized block scan; tuned so numpy call overhead, not element
#: work, stops dominating.  Exactness does not depend on the value.
_LEAF = 64

#: Target bytes for one layer-chunk of the blocked kernel's candidate
#: buffer; ~2 MB keeps the add→argmin round trip inside L2/L3 so the
#: candidate matrix is read from main memory once per prefix.
_CHUNK_BYTES = 2 << 20


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Validate a kernel name; ``None`` means ``auto``."""
    if kernel is None:
        kernel = "auto"
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    return kernel


def resolve_table_kernel(kernel: Optional[str], n: int) -> str:
    """Resolve a kernel and collapse ``auto`` to a concrete engine.

    ``auto`` picks ``exact_dc`` (bit-identical to the historical
    default) at or below :data:`AUTO_APPROX_THRESHOLD` bins and
    ``approx`` beyond, where the exact engines hit the quadratic wall.
    """
    name = resolve_kernel(kernel)
    if name == "auto":
        name = "exact_dc" if n <= AUTO_APPROX_THRESHOLD else "approx"
    return name


def dp_tables(
    cost,
    max_k: int,
    kernel: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fill ``(opt, choices)`` for the v-optimal recurrence.

    Parameters
    ----------
    cost:
        A segment-cost provider (``repro.perf.costrows`` protocol):
        ``cost.n``, ``cost.first_row()``, ``cost.column(j)``,
        ``cost.interval(ilo, ihi, j)``, ``cost.block(...)`` and the
        ``monge_certified`` flag.
    max_k:
        Largest bucket count; tables have shape ``(max_k + 1, n + 1)``.
    kernel:
        ``"exact_dc"`` (falls back to the blocked scan when the cost is
        not Monge-certified), ``"exact_blocked"`` or ``"reference"``;
        ``None`` defers to :func:`resolve_kernel`.  ``"auto"`` always
        takes the exact path here — dense tables are this function's
        contract, so the auto exact/approx split lives in the
        sparse-capable callers (:func:`repro.partition.voptimal.
        voptimal_table` and friends).  ``"approx"`` is rejected: the
        approximate engine (:func:`repro.perf.approx.approx_tables`)
        never materializes dense tables.
    """
    from repro.obs.trace import span

    name = resolve_kernel(kernel)
    if name == "auto":
        name = "exact_dc"
    elif name == "approx":
        raise ValueError(
            "kernel 'approx' does not fill dense DP tables; call "
            "repro.perf.approx.approx_tables (or voptimal_table / "
            "l1_voptimal_table, which dispatch to it)"
        )
    n = cost.n
    if not 1 <= max_k <= n:
        raise ValueError(f"max_k must be in [1, {n}], got {max_k}")
    if name == "reference":
        with span("kernel.dp", kernel="reference", n=n, k=max_k):
            return _reference_tables(cost, max_k)
    if name == "exact_dc" and getattr(cost, "monge_certified", False):
        with span("kernel.dp", kernel="exact_dc", n=n, k=max_k):
            return _dc_tables(cost, max_k)
    with span("kernel.dp", kernel="exact_blocked", n=n, k=max_k):
        return _blocked_tables(cost, max_k)


# ---------------------------------------------------------------------------
# reference kernel: O(n^2 k), one vectorized pass per prefix
# ---------------------------------------------------------------------------

def _reference_tables(cost, max_k: int) -> Tuple[np.ndarray, np.ndarray]:
    n = cost.n
    inf = np.inf
    opt = np.full((max_k + 1, n + 1), inf, dtype=np.float64)
    choices = np.zeros((max_k + 1, n + 1), dtype=np.int64)
    opt[0][0] = 0.0

    # Process prefixes left to right; for each j one vectorized pass
    # computes opt[k][j] for every k at once.  Infeasible states stay
    # +inf automatically (opt[k-1][i] is +inf for i < k-1).
    for j in range(1, n + 1):
        closing = cost.column(j)  # closing[i] = cost(i, j), i in [0, j)
        opt[1][j] = closing[0]
        choices[1][j] = 0
        top = min(max_k, j)  # k cannot exceed the prefix length
        if top >= 2:
            candidates = opt[1:top, :j] + closing[None, :j]
            best = np.argmin(candidates, axis=1)
            rows = np.arange(top - 1)
            opt[2 : top + 1, j] = candidates[rows, best]
            choices[2 : top + 1, j] = best
    return opt, choices


# ---------------------------------------------------------------------------
# exact_blocked kernel: bit-equal O(n^2 k) scan, engineered hot loop
# ---------------------------------------------------------------------------

def _blocked_tables(cost, max_k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The reference candidate set with an engineered memory layout.

    Per prefix ``j`` the reference allocates a fresh ``(k-1, j)``
    candidate matrix, scans it once for the add and once more for the
    argmin, and garbage-collects it — three main-memory passes plus
    allocator churn.  Here the adds land in a pre-allocated buffer,
    processed in layer chunks small enough that the argmin re-reads the
    chunk from cache; the previous-layer table is then the only stream
    touching main memory.  Per-candidate arithmetic (one add) and the
    leftmost-argmin tie-break are identical to the reference, so the
    tables match bit for bit on every input.
    """
    n = cost.n
    inf = np.inf
    opt = np.full((max_k + 1, n + 1), inf, dtype=np.float64)
    choices = np.zeros((max_k + 1, n + 1), dtype=np.int64)
    opt[0][0] = 0.0

    buf = np.empty(max_k * n, dtype=np.float64)
    row_idx = np.arange(max_k)

    for j in range(1, n + 1):
        closing = cost.column(j)
        opt[1][j] = closing[0]
        choices[1][j] = 0
        top = min(max_k, j)
        rows = top - 1  # previous-layer rows k = 1 .. top-1
        if rows < 1:
            continue
        # Chunk the k dimension so one add→argmin round trip stays in
        # cache (the chunk result is consumed immediately).
        chunk = max(1, min(rows, _CHUNK_BYTES // (8 * j)))
        r0 = 0
        while r0 < rows:
            r1 = min(r0 + chunk, rows)
            # A C-contiguous (r1 - r0, j) block: argmin copies a strided
            # one before scanning it, which undoes the cache reuse.
            block = buf[: (r1 - r0) * j].reshape(r1 - r0, j)
            np.add(opt[1 + r0 : 1 + r1, :j], closing[None, :j], out=block)
            best = np.argmin(block, axis=1)
            picked = block[row_idx[: r1 - r0], best]
            opt[2 + r0 : 2 + r1, j] = picked
            choices[2 + r0 : 2 + r1, j] = best
            r0 = r1
    return opt, choices


# ---------------------------------------------------------------------------
# exact_dc kernel: O(n k log n) divide-and-conquer DP optimization
# ---------------------------------------------------------------------------

def _dc_tables(cost, max_k: int) -> Tuple[np.ndarray, np.ndarray]:
    n = cost.n
    inf = np.inf
    opt = np.full((max_k + 1, n + 1), inf, dtype=np.float64)
    choices = np.zeros((max_k + 1, n + 1), dtype=np.int64)
    opt[0][0] = 0.0

    # Layer 1 in one shot: opt[1][j] = cost(0, j).
    opt[1, 1:] = cost.first_row()
    choices[1, 1:] = 0

    for level in range(2, max_k + 1):
        _dc_layer(opt[level - 1], cost, level, opt[level], choices[level])
    return opt, choices


def _dc_layer(
    opt_prev: np.ndarray,
    cost,
    level: int,
    opt_row: np.ndarray,
    choice_row: np.ndarray,
) -> None:
    """One DP layer by divide and conquer over the prefix index ``j``.

    Fills ``opt_row[j]`` / ``choice_row[j]`` for every feasible
    ``j in [level, n]``; infeasible prefixes keep their +inf / 0
    defaults, matching the reference kernel.  The candidate window of a
    node is the invariant of Monge-array leftmost-argmin monotonicity:
    once the midpoint's leftmost argmin ``b`` is known, prefixes left of
    the midpoint can only choose ``i <= b`` and prefixes right of it
    only ``i >= b``.
    """
    n = cost.n
    # (jlo, jhi, ilo, ihi): solve prefixes [jlo, jhi] with candidate
    # split points restricted to [ilo, ihi] (all inclusive).
    stack = [(level, n, level - 1, n - 1)]
    while stack:
        jlo, jhi, ilo, ihi = stack.pop()
        if jlo > jhi:
            continue
        if jhi - jlo + 1 <= _LEAF:
            _leaf_scan(opt_prev, cost, jlo, jhi, ilo, ihi,
                       opt_row, choice_row)
            continue
        jm = (jlo + jhi) >> 1
        hi = min(ihi, jm - 1)
        cand = opt_prev[ilo : hi + 1] + cost.interval(ilo, hi + 1, jm)
        b = int(np.argmin(cand))  # leftmost argmin on ties
        opt_row[jm] = cand[b]
        choice_row[jm] = ilo + b
        stack.append((jlo, jm - 1, ilo, ilo + b))
        stack.append((jm + 1, jhi, ilo + b, ihi))


def _leaf_scan(
    opt_prev: np.ndarray,
    cost,
    jlo: int,
    jhi: int,
    ilo: int,
    ihi: int,
    opt_row: np.ndarray,
    choice_row: np.ndarray,
) -> None:
    """Vectorized brute scan of a small block of prefixes.

    Evaluates every candidate ``i in [ilo, ihi]`` for every prefix
    ``j in [jlo, jhi]`` in one 2-D numpy pass, masking the infeasible
    upper triangle (``i >= j``) with +inf so the leftmost finite argmin
    survives exactly as in the per-prefix reference scan.
    """
    ihi = min(ihi, jhi - 1)
    block = cost.block(ilo, ihi + 1, jlo, jhi + 1)  # (nj, ni)
    cand = block + opt_prev[None, ilo : ihi + 1]
    i_idx = np.arange(ilo, ihi + 1)
    j_idx = np.arange(jlo, jhi + 1)
    invalid = i_idx[None, :] >= j_idx[:, None]
    if invalid.any():
        cand = np.where(invalid, np.inf, cand)
    best = np.argmin(cand, axis=1)  # leftmost argmin on ties
    rows = np.arange(jhi - jlo + 1)
    opt_row[jlo : jhi + 1] = cand[rows, best]
    choice_row[jlo : jhi + 1] = ilo + best
