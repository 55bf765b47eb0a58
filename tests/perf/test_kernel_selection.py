"""Kernel selection: env precedence, default restore, pool determinism.

``resolve_kernel`` resolves in strict precedence order — explicit
argument, then ``REPRO_PARTITION_KERNEL``, then the process default —
and ``resolve_table_kernel`` collapses ``auto`` to a concrete engine by
domain size.  The approx engine itself is RNG-free, so the same
histogram must produce bit-identical sparse tables in every
process-pool worker.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.perf.kernels import (
    AUTO_APPROX_THRESHOLD,
    KERNEL_ENV,
    KERNELS,
    resolve_kernel,
    resolve_table_kernel,
    set_default_kernel,
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV, raising=False)


class TestPrecedence:
    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "exact_blocked")
        assert resolve_kernel("approx") == "approx"

    def test_default_when_nothing_set(self):
        assert resolve_kernel(None) == "auto"

    def test_empty_env_values_fall_through(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "")
        assert resolve_kernel(None) == "auto"

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "warp-drive")
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel(None)


class TestDefaultRestore:
    def test_set_default_returns_previous(self):
        previous = set_default_kernel("reference")
        try:
            assert previous == "auto"
            assert resolve_kernel(None) == "reference"
        finally:
            assert set_default_kernel(previous) == "reference"
        assert resolve_kernel(None) == "auto"

    def test_nested_set_restore(self):
        outer = set_default_kernel("exact_blocked")
        inner = set_default_kernel("approx")
        try:
            assert inner == "exact_blocked"
            assert resolve_kernel(None) == "approx"
        finally:
            set_default_kernel(inner)
            set_default_kernel(outer)
        assert resolve_kernel(None) == "auto"

    def test_invalid_default_rejected_and_state_unchanged(self):
        with pytest.raises(ValueError):
            set_default_kernel("nope")
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

    def test_env_steers_table_resolution(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "approx")
        assert resolve_table_kernel(None, 16) == "approx"


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
