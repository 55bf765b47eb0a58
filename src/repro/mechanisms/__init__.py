"""Differentially private noise primitives.

Each mechanism is a small, stateless function (or callable class) over
numpy arrays, parameterized by the privacy budget ``epsilon`` and the
query sensitivity.  They deliberately do **not** track budget — that is
the job of :mod:`repro.accounting` — so they compose freely inside
higher-level publishers.
"""

from repro.mechanisms.laplace import LaplaceMechanism, laplace_noise, laplace_scale
from repro.mechanisms.exponential import (
    exponential_mechanism,
    exponential_probabilities,
    gumbel_argmax,
)
from repro.mechanisms.sensitivity import (
    contract_sensitivity,
    histogram_sensitivity,
    range_sum_sensitivity,
    sse_sensitivity_bound,
)

__all__ = [
    "LaplaceMechanism",
    "laplace_noise",
    "laplace_scale",
    "exponential_mechanism",
    "exponential_probabilities",
    "gumbel_argmax",
    "histogram_sensitivity",
    "contract_sensitivity",
    "range_sum_sensitivity",
    "sse_sensitivity_bound",
]
