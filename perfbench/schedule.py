"""Seeded operation lists for every workload.

Each builder is a pure function of the benchmark seed: the same seed
gives the same specs, tenants and query bounds, and nothing here reads
the clock or the program's state.  Round ``r`` of a run replays the same
list against a fresh server, so every round attempts the same
operations.

No spec carries a publish ``seed``: publish randomness belongs to the
server, so specs differ by dataset, publisher, ε or size instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

#: The structure-aware publishers the query workloads publish cold in
#: their set-up.
PUBLISHERS = ("noisefirst", "structurefirst", "dawa-lite", "ahp")
DATASETS = ("age", "nettrace", "searchlogs", "socialnetwork")


def _rng(seed: int, workload: str) -> random.Random:
    # String seeds go through SHA-512, so streams are stable across
    # interpreter runs and independent between workloads.
    return random.Random(f"perfbench/{workload}/{int(seed)}")


def spec(dataset: str, publisher: str, epsilon: float, n_bins: int,
         total: int = 50_000) -> Dict[str, object]:
    """A wire spec (default ``k``, no client seed)."""
    return {"dataset": dataset, "publisher": publisher,
            "epsilon": float(epsilon), "n_bins": int(n_bins),
            "total": int(total)}


@dataclass(frozen=True)
class Request:
    """One query request: ``queries`` are ``(lo, hi)`` half-open ranges;
    a one-bin range is sent as a point query."""

    tenant: str
    artifact: int
    queries: Tuple[Tuple[int, int], ...]
    key: str


def _range(rng: random.Random, n: int) -> Tuple[int, int]:
    """A range whose length is log-uniform over ``[2, n]``."""
    length = max(2, min(n, int(round(2 ** rng.uniform(1, n.bit_length() - 1)))))
    lo = rng.randrange(0, n - length + 1)
    return lo, lo + length


def _point(rng: random.Random, n: int) -> Tuple[int, int]:
    b = rng.randrange(n)
    return b, b + 1


def _additive_triple(rng: random.Random, n: int) -> Tuple[Tuple[int, int], ...]:
    """``[lo,hi)``, ``[lo,m)``, ``[m,hi)`` with ``lo < m < hi``."""
    lo, hi = _range(rng, n)
    m = rng.randrange(lo + 1, hi)
    return (lo, hi), (lo, m), (m, hi)


def setup_publishes(epsilon: float, skip: Tuple[Tuple[str, str], ...] = ()
                    ) -> Tuple[Dict[str, object], ...]:
    """Each structure publisher at n=256 on three datasets, minus the
    ``(dataset, publisher)`` pairs in ``skip``: the set-up's cold
    publishes, several per publisher so their median is steady."""
    return tuple(
        spec(ds, pub, epsilon, 256)
        for i, pub in enumerate(PUBLISHERS)
        for ds in (DATASETS * 2)[i:i + 3]
        if (ds, pub) not in skip
    )


def additive_triples(queries: Tuple[Tuple[int, int], ...]):
    """The ``(whole, left, right)`` index triples inside one batch."""
    out = []
    for i in range(0, len(queries) - 2):
        (a, b), (c, d), (e, f) = queries[i:i + 3]
        if a == c and d == e and f == b and a < d < b:
            out.append((i, i + 1, i + 2))
    return out


# -- query-wide ---------------------------------------------------------

@dataclass(frozen=True)
class WideSchedule:
    artifacts: Tuple[Dict[str, object], ...]
    setup_publishes: Tuple[Dict[str, object], ...]
    tenants: Tuple[Tuple[str, float], ...]
    requests: Tuple[Request, ...]


WIDE_TENANTS = 100
WIDE_REQUESTS_PER_TENANT = 5
WIDE_EPSILON = 0.5
WIDE_BUDGET = 64.0


def _quota(weights, total: int):
    """``total`` split in proportion to ``weights``, largest remainders
    first (ties to the earlier index), as whole numbers."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    order = sorted(range(len(weights)),
                   key=lambda i: (-(weights[i] * scale - counts[i]), i))
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


#: query-wide's request mix: points, single ranges, batches of two
#: additivity triples (6 queries).
WIDE_KINDS = (("point", 0.4), ("range", 0.3), ("batch", 0.3))


def query_wide(seed: int) -> WideSchedule:
    """Many tenants, a few requests each, skewed over 12 artifacts.

    Eight ``dwork`` artifacts carry the error check; the four structure
    publishers at n=256 are queried too, and two more cold publishes per
    structure publisher complete the set-up.  Popularity is Zipf(1.1)
    over a fixed rank order, so the hottest artifacts are the same on
    every seed and the 4-entry LRU misses on the tail.  The number of
    requests per artifact and per kind is fixed (:func:`_quota`), so
    seeds differ only in which tenant sends which request, the pairing
    of kinds with artifacts, the order, and the bounds.
    """
    rng = _rng(seed, "query-wide")
    artifacts = (
        spec("age", "dwork", WIDE_EPSILON, 256),
        spec("age", "noisefirst", WIDE_EPSILON, 256),
        spec("nettrace", "dwork", WIDE_EPSILON, 1024),
        spec("nettrace", "structurefirst", WIDE_EPSILON, 256),
        spec("searchlogs", "dwork", WIDE_EPSILON, 256),
        spec("socialnetwork", "ahp", WIDE_EPSILON, 256),
        spec("socialnetwork", "dwork", WIDE_EPSILON, 1024),
        spec("searchlogs", "dawa-lite", WIDE_EPSILON, 256),
        spec("age", "dwork", WIDE_EPSILON, 1024),
        spec("nettrace", "dwork", WIDE_EPSILON, 256),
        spec("searchlogs", "dwork", WIDE_EPSILON, 1024),
        spec("socialnetwork", "dwork", WIDE_EPSILON, 256),
    )
    tenants = tuple((f"wide-{i:03d}", WIDE_BUDGET) for i in range(WIDE_TENANTS))
    slots = [name for name, _ in tenants for _ in range(WIDE_REQUESTS_PER_TENANT)]
    rng.shuffle(slots)
    popularity = [1.0 / (rank + 1) ** 1.1 for rank in range(len(artifacts))]
    arts = [a for a, count in enumerate(_quota(popularity, len(slots)))
            for _ in range(count)]
    kinds = [kind for (kind, _), count in zip(
        WIDE_KINDS, _quota([w for _, w in WIDE_KINDS], len(slots)))
        for _ in range(count)]
    rng.shuffle(arts)
    rng.shuffle(kinds)
    requests = []
    for index, (tenant, art, kind) in enumerate(zip(slots, arts, kinds)):
        n = int(artifacts[art]["n_bins"])
        if kind == "point":
            queries: Tuple[Tuple[int, int], ...] = (_point(rng, n),)
        elif kind == "range":
            queries = (_range(rng, n),)
        else:
            queries = _additive_triple(rng, n) + _additive_triple(rng, n)
        requests.append(Request(tenant, art, queries, f"wide-{index}"))
    queried = tuple((a["dataset"], a["publisher"]) for a in artifacts)
    return WideSchedule(artifacts, setup_publishes(WIDE_EPSILON, queried),
                        tenants, tuple(requests))


# -- query-deep ---------------------------------------------------------

@dataclass(frozen=True)
class DeepSchedule:
    artifacts: Tuple[Dict[str, object], ...]
    setup_publishes: Tuple[Dict[str, object], ...]
    tenants: Tuple[Tuple[str, float], ...]
    quota: int
    requests: Tuple[Request, ...]


#: ε and budgets are exact binary fractions, so budget/ε is an exact
#: integer and the running sum of ε never rounds.
DEEP_EPSILON = 0.25
DEEP_QUOTA = 320
DEEP_TENANTS = 2
DEEP_REFUSALS = 4


def query_deep(seed: int) -> DeepSchedule:
    """Two tenants drain ``DEEP_QUOTA`` single-query answers each, then
    send ``DEEP_REFUSALS`` more that must be refused; requests alternate
    between the tenants.  Each tenant's requests go half to each of two
    warm ``dwork`` artifacts and are half points, half ranges, in a
    seeded order."""
    rng = _rng(seed, "query-deep")
    artifacts = (
        spec("age", "dwork", DEEP_EPSILON, 256),
        spec("searchlogs", "dwork", DEEP_EPSILON, 256),
    )
    setup = setup_publishes(DEEP_EPSILON)
    budget = DEEP_QUOTA * DEEP_EPSILON
    tenants = tuple((f"deep-{i}", budget) for i in range(DEEP_TENANTS))
    per_tenant = DEEP_QUOTA + DEEP_REFUSALS
    mixes = {}
    for name, _ in tenants:
        # (artifact, is_point) in equal shares, shuffled.
        mix = [(i % 2, (i // 2) % 2 == 0) for i in range(per_tenant)]
        rng.shuffle(mix)
        mixes[name] = mix
    requests = []
    for i in range(per_tenant):
        for name, _ in tenants:
            art, is_point = mixes[name][i]
            n = int(artifacts[art]["n_bins"])
            q = _point(rng, n) if is_point else _range(rng, n)
            requests.append(Request(name, art, (q,), f"{name}-{i}"))
    return DeepSchedule(artifacts, setup, tenants, DEEP_QUOTA, tuple(requests))


# -- sweep-scenarios ----------------------------------------------------

#: Publishers added to the scenario roster, so that their per-trial
#: publish time exists on this workload too.
SWEEP_EXTRA_PUBLISHERS = ("ahp", "dawa-lite")
#: Worker processes of the pooled sweep (the host has two CPUs).
SWEEP_JOBS = 2
#: The registered scenarios of this size are swept (one per family).
SWEEP_N_BINS = 64


@dataclass(frozen=True)
class SweepPlan:
    epsilons: Tuple[float, ...]
    trial_seeds: Tuple[int, ...]


def sweep(seed: int) -> SweepPlan:
    """The n = 64 scenarios × the figure roster plus AHP and DAWA-lite ×
    two ε, with two trial seeds drawn from the bench seed."""
    rng = _rng(seed, "sweep-scenarios")
    seeds = rng.sample(range(1, 1 << 30), 2)
    return SweepPlan(epsilons=(0.1, 1.0), trial_seeds=tuple(sorted(seeds)))


BUILDERS = {
    "query-wide": query_wide,
    "query-deep": query_deep,
    "sweep-scenarios": sweep,
}
