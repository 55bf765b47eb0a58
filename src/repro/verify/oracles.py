"""Closed-form error oracles for every publisher in the library.

An :class:`ErrorOracle` packages the *analytic* first two moments of a
publisher's output — the deterministic structural bias per bin and the
full noise covariance across bins — from which the expected error of
any point or range workload follows exactly:

* ``unit_mse`` — expected mean squared error of the point-query
  workload, ``mean_i(bias_i^2 + Var_i)``;
* ``range_variance(lo, hi)`` / ``range_bias(lo, hi)`` — moments of a
  range-sum estimate, read off the covariance (correlated noise inside
  merged buckets is what separates NoiseFirst/StructureFirst from the
  Dwork baseline, so the full covariance matters);
* ``workload_mse(workload)`` — expected MSE over an arbitrary
  :class:`~repro.workloads.Workload`.

Provenance of each formula is documented on its builder and collected in
``docs/verification.md``.  Oracles are ``exact`` when the publisher's
structure is deterministic (or conditioned on, via publish metadata) and
``upper_bound`` when only a bound is analytic.  Linear estimators
(Boost, Privelet, DAWA-lite's bucket tree, Fourier reconstruction) get
their covariance by exact basis propagation through the very code that
publishes — see :mod:`repro.verify.linearity` — so a mis-implemented
transform shows up as a calibration failure, not a silently wrong test.

This module is the library's one closed-form error model.
:data:`ORACLE_BUILDERS` maps a publisher name to the oracle of one
realized publish, read off its ``meta``; the history radar, the
calibration suite, ``repro verify`` and the ``abl_error_model``
ablation all go through it.  Only
:class:`~repro.core.engine.RangeEngine` keeps its own ``O(k)`` range
law, because an oracle holds an ``n x n`` covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro._validation import check_counts, check_integer, check_positive
from repro.baselines.boost import build_tree_sums, consistent_leaves
from repro.baselines.privelet import haar_inverse, haar_transform
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.sensitivity import contract_sensitivity
from repro.partition.partition import Partition
from repro.verify.linearity import linear_operator_matrix, output_covariance
from repro.workloads.workload import Workload

__all__ = [
    "ErrorOracle",
    "dwork_oracle",
    "uniform_flat_oracle",
    "boost_oracle",
    "privelet_oracle",
    "noisefirst_oracle",
    "structurefirst_oracle",
    "ahp_oracle",
    "dawa_oracle",
    "fourier_oracle",
    "mwem_full_range_oracle",
    "identity2d_oracle",
    "uniformgrid_oracle",
    "uniform_stream_oracle",
    "oracle_from_result",
    "OracleCache",
    "ORACLE_BUILDERS",
]


@dataclass(frozen=True)
class ErrorOracle:
    """Analytic bias + noise covariance of one publisher configuration."""

    publisher: str
    kind: str  # "exact" | "upper_bound"
    per_bin_bias: np.ndarray
    covariance: np.ndarray
    notes: str = ""

    def __post_init__(self) -> None:
        bias = np.asarray(self.per_bin_bias, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if bias.ndim != 1:
            raise ValueError("per_bin_bias must be 1-D")
        if cov.shape != (len(bias), len(bias)):
            raise ValueError(
                f"covariance shape {cov.shape} does not match "
                f"{len(bias)} bins"
            )
        if self.kind not in ("exact", "upper_bound"):
            raise ValueError(f"kind must be exact|upper_bound, got {self.kind}")
        object.__setattr__(self, "per_bin_bias", bias)
        object.__setattr__(self, "covariance", cov)

    @property
    def n(self) -> int:
        return len(self.per_bin_bias)

    @property
    def per_bin_variance(self) -> np.ndarray:
        """Noise variance of each published bin."""
        return np.diag(self.covariance).copy()

    def unit_mse(self) -> float:
        """Expected MSE of the unit (point-query) workload."""
        return float(np.mean(self.per_bin_bias**2 + self.per_bin_variance))

    def range_bias(self, lo: int, hi: int) -> float:
        """Deterministic bias of the range sum ``[lo, hi]`` (inclusive)."""
        self._check_range(lo, hi)
        return float(self.per_bin_bias[lo : hi + 1].sum())

    def range_variance(self, lo: int, hi: int) -> float:
        """Noise variance of the range sum ``[lo, hi]`` (inclusive)."""
        self._check_range(lo, hi)
        return float(self.covariance[lo : hi + 1, lo : hi + 1].sum())

    def workload_mse(self, workload: "Workload | str") -> float:
        """Expected MSE over a workload (``"unit"`` for point queries)."""
        if isinstance(workload, str):
            if workload != "unit":
                raise ValueError(f"unknown workload alias {workload!r}")
            return self.unit_mse()
        if workload.n != self.n:
            raise ValueError(
                f"workload built for {workload.n} bins, oracle has {self.n}"
            )
        total = 0.0
        for q in workload:
            total += (
                self.range_bias(q.lo, q.hi) ** 2
                + self.range_variance(q.lo, q.hi)
            )
        return total / len(workload)

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi < self.n:
            raise ValueError(
                f"range [{lo}, {hi}] outside oracle of {self.n} bins"
            )


def _shared_noise_covariance(
    groups: Sequence[Sequence[int]], group_variances: Sequence[float], n: int
) -> np.ndarray:
    """Covariance when every bin of a group carries the *same* noise draw."""
    cov = np.zeros((n, n), dtype=np.float64)
    for bins, var in zip(groups, group_variances):
        idx = np.asarray(list(bins), dtype=np.int64)
        cov[np.ix_(idx, idx)] = var
    return cov


# ---------------------------------------------------------------------------
# Paper baselines
# ---------------------------------------------------------------------------

def dwork_oracle(
    n: int, epsilon: float, sensitivity: float = 1.0
) -> ErrorOracle:
    """Identity baseline: ``Lap(sens/eps)`` per bin, independent.

    Per-bin variance ``2 (sens/eps)^2``; a length-``L`` range accumulates
    ``L`` independent noises — Dwork et al. (TCC 2006), the ``2L/eps^2``
    range law the paper's Section 2 quotes.
    """
    check_integer(n, "n", minimum=1)
    check_positive(epsilon, "epsilon")
    check_positive(sensitivity, "sensitivity")
    var = 2.0 * (sensitivity / epsilon) ** 2
    return ErrorOracle(
        publisher="dwork",
        kind="exact",
        per_bin_bias=np.zeros(n),
        covariance=np.eye(n) * var,
        notes=f"iid Lap({sensitivity:g}/{epsilon:g}) per bin",
    )


def uniform_flat_oracle(
    counts: Sequence[float], epsilon: float
) -> ErrorOracle:
    """One noisy total spread uniformly: bias to the mean, shared noise.

    Every bin publishes ``(total + Lap(1/eps)) / n``: bias
    ``mean(c) - c_i``, variance ``2/(n eps)^2``, and the noise of all
    bins is the *same* draw (rank-one covariance).
    """
    arr = check_counts(counts, "counts")
    check_positive(epsilon, "epsilon")
    n = len(arr)
    var = 2.0 / (epsilon * epsilon) / (n * n)
    cov = np.full((n, n), var, dtype=np.float64)
    return ErrorOracle(
        publisher="uniform",
        kind="exact",
        per_bin_bias=np.full(n, arr.mean()) - arr,
        covariance=cov,
        notes="noisy total / n; single shared Laplace draw",
    )


def boost_oracle(
    n: int, epsilon: float, branching: int = 2, consistency: bool = True
) -> ErrorOracle:
    """Boost: exact covariance of Hay et al.'s consistent estimator.

    Every node of the height-``h`` interval tree is measured with
    ``Lap(h/eps)`` (variance ``2 h^2/eps^2``); the two-pass
    least-squares consistency is a *linear* map from the measurements to
    the leaves, so the output covariance is propagated exactly through
    the publishing code itself (Hay et al., VLDB 2010, Sections 4-5; the
    closed-form variance reductions of their Theorem 5 fall out of this
    covariance).  The estimator is unbiased, so the bias vector is zero.
    """
    return _boost_oracle(n, epsilon, branching, consistency, _uncached)


def _boost_oracle(n, epsilon, branching, consistency, memo) -> ErrorOracle:
    check_integer(n, "n", minimum=1)
    check_positive(epsilon, "epsilon")
    check_integer(branching, "branching", minimum=2)
    matrix = _tree_matrix(n, branching, consistency, memo)
    height = len(_tree_level_sizes(n, branching))
    n_meas = matrix.shape[1]
    var_node = 2.0 * (height / epsilon) ** 2
    cov = output_covariance(matrix, np.full(n_meas, var_node))
    return ErrorOracle(
        publisher="boost",
        kind="exact",
        per_bin_bias=np.zeros(n),
        covariance=cov,
        notes=(
            f"height {height} tree, Lap({height:g}/{epsilon:g}) per node, "
            f"consistency={'on' if consistency else 'off'}"
        ),
    )


def _tree_level_sizes(leaves: int, branching: int) -> List[int]:
    """Node counts per level, leaves first, of the ``branching``-ary
    interval tree over ``leaves`` leaves zero-padded to a power of
    ``branching``."""
    padded = 1
    while padded < leaves:
        padded *= branching
    return [len(level)
            for level in build_tree_sums(np.zeros(padded), branching)]


def _tree_matrix(leaves: int, branching: int, consistency: bool,
                 memo: "Memo") -> np.ndarray:
    """The linear map from a tree's node measurements to its first
    ``leaves`` leaf estimates (Boost's consistent estimator, or the raw
    leaves without ``consistency``), built through ``memo`` under
    ``("tree", leaves, branching, consistency)``."""

    def build() -> np.ndarray:
        level_sizes = _tree_level_sizes(leaves, branching)

        def estimator(measurements: np.ndarray) -> np.ndarray:
            levels: List[np.ndarray] = []
            offset = 0
            for size in level_sizes:
                levels.append(measurements[offset : offset + size])
                offset += size
            if consistency:
                estimate = consistent_leaves(levels, branching)
            else:
                estimate = levels[0]
            return estimate[:leaves]

        return linear_operator_matrix(estimator, sum(level_sizes))

    return memo(("tree", leaves, branching, consistency), build)


def privelet_oracle(n: int, epsilon: float) -> ErrorOracle:
    """Privelet: exact covariance of the noisy inverse Haar transform.

    With padded size ``m = 2^L``, generalized sensitivity
    ``rho = 1 + L/2`` and ``lambda = rho/eps`` (Xiao et al., ICDE 2010,
    Section 4), the base coefficient carries ``Lap(lambda/m)`` and a
    level-``l`` detail ``Lap(lambda / 2^(l-1))``.  The reconstruction is
    linear, so the covariance is exact; a leaf sums the base and one
    detail per level (signs square away), so its diagonal is the same
    closed form for every bin, ``2 lambda^2 (1/m^2 + sum_l 4^-(l-1))``,
    and its range sums realize the ``O(log^3 n / eps^2)`` range-query
    bound.
    """
    return _privelet_oracle(n, epsilon, _uncached)


def _privelet_oracle(n, epsilon, memo) -> ErrorOracle:
    check_integer(n, "n", minimum=1)
    check_positive(epsilon, "epsilon")
    m = 1
    while m < n:
        m *= 2
    _, detail_template = haar_transform(np.zeros(m))
    levels = len(detail_template)
    rho = 1.0 + levels / 2.0
    lam = rho / epsilon

    sizes = [len(d) for d in detail_template]
    n_meas = 1 + sum(sizes)
    variances = np.empty(n_meas, dtype=np.float64)
    variances[0] = 2.0 * (lam / m) ** 2
    offset = 1
    for idx, size in enumerate(sizes):
        weight = 2.0 ** idx  # level idx+1 has weight 2^(level-1)
        variances[offset : offset + size] = 2.0 * (lam / weight) ** 2
        offset += size

    def estimator(measurements: np.ndarray) -> np.ndarray:
        base = float(measurements[0])
        details: List[np.ndarray] = []
        pos = 1
        for size in sizes:
            details.append(measurements[pos : pos + size])
            pos += size
        return haar_inverse(base, details)[:n]

    matrix = memo(("haar", n),
                  lambda: linear_operator_matrix(estimator, n_meas))
    cov = output_covariance(matrix, variances)
    return ErrorOracle(
        publisher="privelet",
        kind="exact",
        per_bin_bias=np.zeros(n),
        covariance=cov,
        notes=f"m={m}, rho={rho:g}, lambda={lam:g}",
    )


# ---------------------------------------------------------------------------
# The paper's algorithms (conditioned on the realized structure)
# ---------------------------------------------------------------------------

def noisefirst_oracle(
    counts: Sequence[float],
    partition: Partition,
    epsilon: float,
    sensitivity: float = 1.0,
) -> ErrorOracle:
    """NoiseFirst conditioned on its final partition (paper Section 4).

    A bucket of width ``w`` publishes the *mean* of ``w`` independent
    ``Lap(sens/eps)`` draws for each of its bins: per-bin variance
    ``2 (sens/eps)^2 / w``, perfectly correlated inside the bucket, and
    structural bias ``bucket-mean(c) - c_i`` — the bias+variance
    decomposition of Xu et al.'s Eq. (4).  Exact when the partition is
    held fixed; the adaptive ``k*`` selection reuses the same noisy data
    and adds a selection correlation this oracle deliberately excludes
    (freeze the partition, or use well-separated steps, to test it).
    """
    arr = check_counts(counts, "counts")
    check_positive(epsilon, "epsilon")
    check_positive(sensitivity, "sensitivity")
    if partition.n != len(arr):
        raise ValueError("partition and counts sizes differ")
    sigma2 = 2.0 * (sensitivity / epsilon) ** 2
    groups = [list(range(start, stop)) for start, stop in partition.buckets()]
    variances = [sigma2 / (stop - start) for start, stop in partition.buckets()]
    return ErrorOracle(
        publisher="noisefirst",
        kind="exact",
        per_bin_bias=partition.apply_means(arr) - arr,
        covariance=_shared_noise_covariance(groups, variances, len(arr)),
        notes=f"k={partition.k}; bucket-averaged Lap noise",
    )


def structurefirst_oracle(
    counts: Sequence[float],
    partition: Partition,
    eps_noise: float,
) -> ErrorOracle:
    """StructureFirst conditioned on its partition (paper Section 5).

    One ``Lap(1/eps_noise)`` per bucket *sum*, divided by the width
    ``w``: per-bin variance ``2/(eps_noise^2 w^2)``, identical noise for
    bins sharing a bucket, bias ``bucket-mean(c) - c_i``.  Exact for the
    deterministic structure modes (``uniform``/``oracle``/``k=1``) and,
    per-trial, conditional on any EM-sampled partition.
    """
    arr = check_counts(counts, "counts")
    check_positive(eps_noise, "eps_noise")
    if partition.n != len(arr):
        raise ValueError("partition and counts sizes differ")
    sigma2 = 2.0 / (eps_noise * eps_noise)
    groups = [list(range(start, stop)) for start, stop in partition.buckets()]
    variances = [
        sigma2 / (stop - start) ** 2 for start, stop in partition.buckets()
    ]
    return ErrorOracle(
        publisher="structurefirst",
        kind="exact",
        per_bin_bias=partition.apply_means(arr) - arr,
        covariance=_shared_noise_covariance(groups, variances, len(arr)),
        notes=f"k={partition.k}; one Lap per bucket sum at eps_n={eps_noise:g}",
    )


# ---------------------------------------------------------------------------
# Successor baselines (conditioned on publish metadata)
# ---------------------------------------------------------------------------

def ahp_oracle(
    counts: Sequence[float],
    cluster_bins: Sequence[Sequence[int]],
    eps_counts: float,
) -> ErrorOracle:
    """AHP conditioned on its realized (non-contiguous) clusters.

    The re-measurement stage adds one ``Lap(1/eps2)`` to each cluster's
    *true* sum and publishes the noisy mean: bias
    ``cluster-mean(c) - c_i`` (exact — the re-measurement reads the true
    counts), variance ``2/(eps2^2 |C|^2)`` shared across the cluster's
    bins (Zhang et al., SDM 2014, Section 3.3).
    """
    arr = check_counts(counts, "counts")
    check_positive(eps_counts, "eps_counts")
    n = len(arr)
    seen = np.zeros(n, dtype=bool)
    bias = np.empty(n, dtype=np.float64)
    sigma2 = 2.0 / (eps_counts * eps_counts)
    groups: List[List[int]] = []
    variances: List[float] = []
    for cluster in cluster_bins:
        idx = np.asarray(list(cluster), dtype=np.int64)
        if len(idx) == 0:
            raise ValueError("clusters must be non-empty")
        if np.any(seen[idx]):
            raise ValueError("clusters must not overlap")
        seen[idx] = True
        bias[idx] = arr[idx].mean() - arr[idx]
        groups.append([int(i) for i in idx])
        variances.append(sigma2 / len(idx) ** 2)
    if not np.all(seen):
        raise ValueError("clusters must cover every bin")
    return ErrorOracle(
        publisher="ahp",
        kind="exact",
        per_bin_bias=bias,
        covariance=_shared_noise_covariance(groups, variances, n),
        notes=f"{len(groups)} clusters; Lap(1/{eps_counts:g}) per cluster sum",
    )


def dawa_oracle(
    counts: Sequence[float],
    partition: Partition,
    eps_measure: float,
    branching: int = 2,
) -> ErrorOracle:
    """DAWA-lite conditioned on its partition.

    Stage 2 runs Boost over the ``k`` (zero-padded) bucket sums: each
    tree node gets ``Lap(h/eps2)`` and the consistent bucket estimates
    are a linear map of the measurements, so the bucket covariance is
    exact; dividing by the widths and broadcasting gives the bin
    covariance ``Cov[B_i, B_j] / (w_i w_j)``.  Bias is the bucket-mean
    approximation, as for StructureFirst.
    """
    return _dawa_oracle(counts, partition, eps_measure, branching, _uncached)


def _dawa_oracle(counts, partition, eps_measure, branching,
                 memo) -> ErrorOracle:
    arr = check_counts(counts, "counts")
    check_positive(eps_measure, "eps_measure")
    check_integer(branching, "branching", minimum=2)
    if partition.n != len(arr):
        raise ValueError("partition and counts sizes differ")
    k = partition.k
    matrix = _tree_matrix(k, branching, True, memo)
    height = len(_tree_level_sizes(k, branching))
    n_meas = matrix.shape[1]
    var_node = 2.0 * (height / eps_measure) ** 2
    bucket_cov = output_covariance(matrix, np.full(n_meas, var_node))

    n = len(arr)
    widths = np.asarray(partition.bucket_sizes(), dtype=np.float64)
    bucket_of = np.empty(n, dtype=np.int64)
    for b_idx, (start, stop) in enumerate(partition.buckets()):
        bucket_of[start:stop] = b_idx
    cov = bucket_cov[np.ix_(bucket_of, bucket_of)] / np.outer(
        widths[bucket_of], widths[bucket_of]
    )
    return ErrorOracle(
        publisher="dawa-lite",
        kind="exact",
        per_bin_bias=partition.apply_means(arr) - arr,
        covariance=cov,
        notes=f"k={k}, tree height {height} at eps2={eps_measure:g}",
    )


def fourier_oracle(
    counts: Sequence[float], k: int, eps_noise: float
) -> ErrorOracle:
    """Fourier/EFPA conditioned on the retained coefficient count ``k``.

    Bias is deterministic spectral leakage: the inverse transform of the
    head-``k`` true spectrum minus the truth.  Noise: independent
    ``Lap(sqrt(k)/eps_noise)`` on the real and imaginary component of
    each retained coefficient, propagated exactly through the
    orthonormal inverse rFFT (a linear map) — Ács et al., ICDM 2012.
    """
    arr = check_counts(counts, "counts")
    check_integer(k, "k", minimum=1)
    check_positive(eps_noise, "eps_noise")
    n = len(arr)
    spectrum = np.fft.rfft(arr, norm="ortho")
    if k > len(spectrum):
        raise ValueError(f"k={k} exceeds {len(spectrum)} rfft coefficients")
    truncated = np.zeros_like(spectrum)
    truncated[:k] = spectrum[:k]
    bias = np.fft.irfft(truncated, n=n, norm="ortho") - arr

    scale = np.sqrt(k) / eps_noise
    var_component = 2.0 * scale * scale

    def estimator(noise_components: np.ndarray) -> np.ndarray:
        noisy = np.zeros(len(spectrum), dtype=np.complex128)
        noisy[:k] = noise_components[:k] + 1j * noise_components[k:]
        return np.fft.irfft(noisy, n=n, norm="ortho")

    matrix = linear_operator_matrix(estimator, 2 * k)
    cov = output_covariance(matrix, np.full(2 * k, var_component))
    return ErrorOracle(
        publisher="fourier",
        kind="exact",
        per_bin_bias=bias,
        covariance=cov,
        notes=f"k={k} coefficients at Lap(sqrt(k)/{eps_noise:g}) per part",
    )


def mwem_full_range_oracle(
    counts: Sequence[float], public_total: Optional[float] = None
) -> ErrorOracle:
    """MWEM under the single full-domain query: exactly uniform output.

    When the workload is only the full range ``[0, n-1]``, every
    multiplicative-weights update scales all weights by the same factor
    and the renormalization cancels it, so the synthetic histogram stays
    the uniform distribution scaled to the public total — deterministic
    output with zero variance.  A degenerate but *exact* regime that
    end-to-end checks MWEM's update and renormalization arithmetic.
    """
    arr = check_counts(counts, "counts")
    n = len(arr)
    total = float(arr.sum()) if public_total is None else float(public_total)
    total = max(total, 1.0)
    return ErrorOracle(
        publisher="mwem",
        kind="exact",
        per_bin_bias=np.full(n, total / n) - arr,
        covariance=np.zeros((n, n)),
        notes="full-range workload: MW update is a no-op; output uniform",
    )


# ---------------------------------------------------------------------------
# Extensions: spatial and streaming
# ---------------------------------------------------------------------------

def identity2d_oracle(
    shape: "tuple[int, int]", epsilon: float
) -> ErrorOracle:
    """2-D identity baseline, flattened row-major: iid ``Lap(1/eps)``."""
    rows, cols = shape
    check_integer(rows, "rows", minimum=1)
    check_integer(cols, "cols", minimum=1)
    return dwork_oracle(rows * cols, epsilon)


def uniformgrid_oracle(
    counts2d: np.ndarray, epsilon: float, m_rows: int, m_cols: int
) -> ErrorOracle:
    """UniformGrid with a fixed ``m_rows x m_cols`` grid, flattened.

    Each block publishes ``(sum + Lap(1/eps)) / area`` for all its
    cells: bias ``block-mean - cell``, shared noise of variance
    ``2/(eps^2 area^2)`` inside the block (Qardaji et al., ICDE 2013).
    """
    arr = np.asarray(counts2d, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("counts2d must be 2-D")
    check_positive(epsilon, "epsilon")
    rows, cols = arr.shape
    check_integer(m_rows, "m_rows", minimum=1)
    check_integer(m_cols, "m_cols", minimum=1)
    row_edges = np.linspace(0, rows, m_rows + 1).round().astype(int)
    col_edges = np.linspace(0, cols, m_cols + 1).round().astype(int)
    n = rows * cols
    sigma2 = 2.0 / (epsilon * epsilon)
    bias = np.empty((rows, cols), dtype=np.float64)
    groups: List[List[int]] = []
    variances: List[float] = []
    flat_index = np.arange(n).reshape(rows, cols)
    for i in range(m_rows):
        for j in range(m_cols):
            r0, r1 = row_edges[i], row_edges[i + 1]
            c0, c1 = col_edges[j], col_edges[j + 1]
            if r0 == r1 or c0 == c1:
                continue
            block = arr[r0:r1, c0:c1]
            bias[r0:r1, c0:c1] = block.mean() - block
            groups.append([int(v) for v in flat_index[r0:r1, c0:c1].ravel()])
            variances.append(sigma2 / block.size**2)
    return ErrorOracle(
        publisher="uniformgrid",
        kind="exact",
        per_bin_bias=bias.ravel(),
        covariance=_shared_noise_covariance(groups, variances, n),
        notes=f"{m_rows}x{m_cols} grid over {rows}x{cols} cells",
    )


def uniform_stream_oracle(n: int, epsilon: float, w: int) -> ErrorOracle:
    """UniformStream: every timestep adds iid ``Lap(w/eps)`` per bin.

    The per-step share is ``eps/w`` (Kellaris et al., VLDB 2014), so
    each released histogram is the Dwork baseline at ``eps/w``.
    """
    check_integer(w, "w", minimum=1)
    check_positive(epsilon, "epsilon")
    oracle = dwork_oracle(n, epsilon / w)
    return ErrorOracle(
        publisher="uniform-stream",
        kind="exact",
        per_bin_bias=oracle.per_bin_bias,
        covariance=oracle.covariance,
        notes=f"per-step share eps/w = {epsilon / w:g}",
    )


# ---------------------------------------------------------------------------
# Dispatch: one publish's oracle, read off its metadata
# ---------------------------------------------------------------------------

def _dwork(histogram, epsilon, meta, memo) -> ErrorOracle:
    # The privacy contract's sensitivity, never the noise the publish
    # recorded: a mis-scaled mechanism must show up as drift.
    n = histogram.size
    sensitivity = contract_sensitivity(meta)
    return memo(("dwork", n, epsilon, sensitivity),
                lambda: dwork_oracle(n, epsilon, sensitivity))


def _uniform(histogram, epsilon, meta, memo) -> ErrorOracle:
    return uniform_flat_oracle(histogram.counts, epsilon)


def _boost(histogram, epsilon, meta, memo) -> ErrorOracle:
    n = histogram.size
    branching = int(meta.get("branching", 2))
    consistency = bool(meta.get("consistency", True))
    return memo(
        ("boost", n, epsilon, branching, consistency),
        lambda: _boost_oracle(n, epsilon, branching, consistency, memo),
    )


def _privelet(histogram, epsilon, meta, memo) -> ErrorOracle:
    n = histogram.size
    return memo(("privelet", n, epsilon),
                lambda: _privelet_oracle(n, epsilon, memo))


def _noisefirst(histogram, epsilon, meta, memo) -> ErrorOracle:
    partition = meta.get("partition")
    if partition is None:  # adaptive NF fell back to the identity
        return _dwork(histogram, epsilon, meta, memo)
    return noisefirst_oracle(histogram.counts, partition, epsilon,
                             contract_sensitivity(meta))


def _structurefirst(histogram, epsilon, meta, memo) -> ErrorOracle:
    return structurefirst_oracle(
        histogram.counts, meta["partition"], meta["eps_noise"]
    )


def _dawa(histogram, epsilon, meta, memo) -> ErrorOracle:
    return _dawa_oracle(
        histogram.counts,
        meta["partition"],
        meta["eps_measure"],
        int(meta.get("branching", 2)),
        memo,
    )


def _ahp(histogram, epsilon, meta, memo) -> ErrorOracle:
    return ahp_oracle(histogram.counts, meta["cluster_bins"],
                      meta["eps_counts"])


def _fourier(histogram, epsilon, meta, memo) -> ErrorOracle:
    return fourier_oracle(histogram.counts, int(meta["k"]),
                          meta["eps_noise"])


def _mwem(histogram, epsilon, meta, memo) -> ErrorOracle:
    return mwem_full_range_oracle(
        histogram.counts, public_total=meta.get("public_total")
    )


#: Publisher name -> ``(histogram, epsilon, meta, memo) -> ErrorOracle``:
#: the oracle of one realized publish, from the structure and budget
#: split its ``meta`` records (see :func:`oracle_from_result`).
ORACLE_BUILDERS: Dict[str, Callable[..., ErrorOracle]] = {
    "dwork": _dwork,
    "uniform": _uniform,
    "boost": _boost,
    "privelet": _privelet,
    "noisefirst": _noisefirst,
    "structurefirst": _structurefirst,
    "dawa-lite": _dawa,
    "ahp": _ahp,
    "fourier": _fourier,
    "mwem": _mwem,
}


def oracle_from_result(
    publisher: Union[str, Publisher],
    histogram: Histogram,
    epsilon: float,
    result,
) -> ErrorOracle:
    """Conditional oracle for one realized publish, read off its metadata.

    For the structure-random publishers (NoiseFirst, StructureFirst,
    DAWA-lite, AHP, Fourier) the error moments are exact only
    *conditional* on the structure the publish actually chose; this
    helper extracts that structure from ``result.meta`` and builds the
    matching oracle, so calibration loops can pair each trial with its
    own prediction (see
    :func:`repro.verify.calibration.run_conditional_trials`).

    For the deterministic-structure publishers the metadata is only used
    for configuration echoes (branching, consistency) and the oracle is
    unconditional.  Every call builds afresh; :class:`OracleCache`
    builds the data-independent ones once.
    """
    return _from_result(publisher, histogram, epsilon, result, _uncached)


def _from_result(publisher, histogram, epsilon, result,
                 memo: "Memo") -> ErrorOracle:
    name = publisher.name if isinstance(publisher, Publisher) else str(publisher)
    try:
        build = ORACLE_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"no conditional oracle for publisher {name!r}; have "
            f"{sorted(ORACLE_BUILDERS)}"
        ) from None
    return build(histogram, epsilon, result.meta, memo)


# ---------------------------------------------------------------------------
# Building once
# ---------------------------------------------------------------------------

#: ``memo(key, build)``: the value for ``key``, from ``build()`` when it
#: is not cached.  The private builders take one for their matrices.
Memo = Callable[[Hashable, Callable[[], Any]], Any]


def _uncached(key: Hashable, build: Callable[[], Any]) -> Any:
    return build()


class OracleCache:
    """Data-independent oracles and estimator matrices, each built once.

    Dwork, Boost, Privelet and a NoiseFirst publish that fell back to
    the identity depend only on the publisher, ``n``, ε and the meta
    fields :meth:`from_result` reads (Boost's branching and
    consistency, the recorded ``neighbours`` convention), so each is
    built once per such key.  The linear maps of Boost's and
    DAWA-lite's interval trees depend only on (leaves, branching,
    consistency) and Privelet's Haar inverse only on ``n``; each is
    built once as well, which covers DAWA-lite's bucket tree for every
    partition of the same ``k``.  Everything cached is read-only:
    writing to a cached oracle's arrays raises.

    An owner that anchors many trials keeps one cache (the history
    store keeps one per store); :func:`oracle_from_result` is the
    uncached form.
    """

    def __init__(self) -> None:
        self._built: Dict[Hashable, Any] = {}
        self._oracle_ids: Set[int] = set()
        #: ``(id of a cached oracle, id of a workload)`` -> the workload
        #: (held, so its id stays its own) and its MSE.
        self._mse: Dict[Tuple[int, int], Tuple[Workload, float]] = {}

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value cached under ``key``; ``build()`` makes it on first
        use, and its arrays are then made read-only."""
        try:
            return self._built[key]
        except KeyError:
            pass
        value = build()
        if isinstance(value, ErrorOracle):
            value.per_bin_bias.setflags(write=False)
            value.covariance.setflags(write=False)
            self._oracle_ids.add(id(value))
        else:
            value.setflags(write=False)
        self._built[key] = value
        return value

    def from_result(self, publisher: Union[str, Publisher],
                    histogram: Histogram, epsilon: float,
                    result) -> ErrorOracle:
        """:func:`oracle_from_result`, building through this cache."""
        return _from_result(publisher, histogram, epsilon, result, self.get)

    def workload_mse(self, oracle: ErrorOracle, workload: Workload) -> float:
        """``oracle.workload_mse(workload)``; computed once per workload
        when ``oracle`` came from this cache."""
        if id(oracle) not in self._oracle_ids:
            return oracle.workload_mse(workload)
        key = (id(oracle), id(workload))
        if key not in self._mse:
            self._mse[key] = (workload, oracle.workload_mse(workload))
        return self._mse[key][1]
