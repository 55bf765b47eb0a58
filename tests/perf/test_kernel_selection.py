"""Kernel selection: the default, auto collapse, pool determinism.

``resolve_kernel`` returns an explicit kernel name and ``auto`` for
``None``, and ``resolve_table_kernel`` collapses ``auto`` to a concrete
engine by domain size.  The approx engine itself is RNG-free, so the
same histogram must produce bit-identical sparse tables in every
process-pool worker.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.perf.kernels import (
    AUTO_APPROX_THRESHOLD,
    KERNELS,
    resolve_kernel,
    resolve_table_kernel,
)


class TestPrecedence:
    def test_default_when_nothing_set(self):
        assert resolve_kernel(None) == "auto"


class TestAutoCollapse:
    def test_auto_small_is_exact_dc(self):
        assert resolve_table_kernel("auto", AUTO_APPROX_THRESHOLD) \
            == "exact_dc"

    def test_auto_large_is_approx(self):
        assert resolve_table_kernel("auto", AUTO_APPROX_THRESHOLD + 1) \
            == "approx"

    def test_concrete_kernels_pass_through(self):
        for kernel in KERNELS:
            if kernel == "auto":
                continue
            assert resolve_table_kernel(kernel, 10) == kernel
            assert resolve_table_kernel(kernel, 1 << 20) == kernel

    def test_none_collapses_like_auto(self):
        assert resolve_table_kernel(None, 16) == "exact_dc"
        assert resolve_table_kernel(None, AUTO_APPROX_THRESHOLD + 1) \
            == "approx"


def _worker_digest(payload):
    """Run the approx table in a worker; return comparable raw arrays."""
    seed, n, max_k = payload
    from repro.partition.voptimal import voptimal_table

    rng = np.random.default_rng(seed)
    counts = rng.poisson(40.0, size=n).astype(np.float64)
    table = voptimal_table(counts, max_k, kernel="approx")
    return (
        table.sse_by_k.tobytes(),
        tuple(table.partition_for(k).boundaries
              for k in range(1, max_k + 1)),
        os.getpid(),
    )


class TestPoolDeterminism:
    def test_approx_identical_across_process_pool_workers(self):
        """Same seed, four workers: bit-identical tables and partitions.

        The approx engine draws no randomness and depends on no
        process-local state, so a process pool fanning one histogram
        out to many workers (the repo's n_jobs path) must not be able
        to produce divergent partitions.
        """
        payload = (20120401, 1500, 12)
        inline = _worker_digest(payload)
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(_worker_digest, [payload] * 4))
        for sse_bytes, boundaries, _pid in results:
            assert sse_bytes == inline[0]
            assert boundaries == inline[1]

    def test_distinct_seeds_distinct_workloads(self):
        a = _worker_digest((1, 1500, 8))
        b = _worker_digest((2, 1500, 8))
        assert a[0] != b[0]
