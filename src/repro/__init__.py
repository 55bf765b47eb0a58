"""dphist-repro: differentially private histogram publication.

A from-scratch reproduction of "Differentially Private Histogram
Publication" (Xu, Zhang, Xiao, Yang, Yu — ICDE 2012; extended VLDBJ
2013): the NoiseFirst and StructureFirst algorithms, the baselines they
were evaluated against (Dwork identity, Boost hierarchical intervals,
Privelet wavelets, MWEM, Fourier), and the full experiment harness that
regenerates the paper's evaluation.

Quick start
-----------
>>> from repro import NoiseFirst, datasets
>>> result = NoiseFirst().publish(datasets.age(), budget=0.1, rng=0)
>>> result.histogram.size
100
>>> result.epsilon_spent
0.1
"""

from repro import (
    accounting,
    baselines,
    core,
    datasets,
    hist,
    io,
    mechanisms,
    metrics,
    partition,
    postprocess,
    spatial,
    streaming,
    verify,
    workloads,
)
from repro.accounting import Accountant
from repro.baselines import (
    Ahp,
    Boost,
    DworkIdentity,
    FourierPublisher,
    Mwem,
    Privelet,
    UniformFlat,
)
from repro.core import NoiseFirst, PublishResult, Publisher, StructureFirst
from repro.exceptions import (
    BudgetExceededError,
    DomainMismatchError,
    PartitionError,
    ReproError,
)
from repro.hist import Domain, Histogram, RangeQuery
from repro.workloads import Workload

__version__ = "1.0.0"

__all__ = [
    # subpackages
    "accounting",
    "baselines",
    "core",
    "datasets",
    "hist",
    "io",
    "mechanisms",
    "metrics",
    "partition",
    "postprocess",
    "spatial",
    "streaming",
    "workloads",
    # core types
    "Accountant",
    "Publisher",
    "PublishResult",
    "NoiseFirst",
    "StructureFirst",
    # baselines
    "Ahp",
    "DworkIdentity",
    "Boost",
    "Privelet",
    "Mwem",
    "FourierPublisher",
    "UniformFlat",
    # data types
    "Domain",
    "Histogram",
    "RangeQuery",
    "Workload",
    # exceptions
    "ReproError",
    "BudgetExceededError",
    "PartitionError",
    "DomainMismatchError",
    "__version__",
]
