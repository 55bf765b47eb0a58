"""Sensitivity derivations used by the publishers.

Differential privacy calibrates noise to the worst-case change a single
record can cause.  The functions here encode the standard facts used
throughout the library, with the neighbouring-dataset convention made
explicit:

* ``unbounded`` — neighbours differ by *adding or removing* one record
  (one bin count changes by 1).
* ``bounded`` — neighbours differ by *changing* one record (one count
  goes up by 1 and another goes down by 1).
"""

from __future__ import annotations

from repro._validation import check_integer, check_non_negative

__all__ = [
    "histogram_sensitivity",
    "contract_sensitivity",
    "range_sum_sensitivity",
    "sse_sensitivity_bound",
]

_VALID_NEIGHBOURS = ("unbounded", "bounded")


def _check_neighbours(neighbours: str) -> str:
    if neighbours not in _VALID_NEIGHBOURS:
        raise ValueError(
            f"neighbours must be one of {_VALID_NEIGHBOURS}, got {neighbours!r}"
        )
    return neighbours


def histogram_sensitivity(neighbours: str = "unbounded") -> float:
    """L1 sensitivity of the full histogram count vector.

    Unbounded: one count changes by 1, so L1 distance is 1.
    Bounded: one record moves between bins, two counts change by 1 each.
    """
    _check_neighbours(neighbours)
    return 1.0 if neighbours == "unbounded" else 2.0


def contract_sensitivity(meta: dict) -> float:
    """:func:`histogram_sensitivity` of the ``neighbours`` convention a
    publish records in its ``meta``; unbounded when the key is missing,
    as in journals written before the publishers recorded it."""
    return histogram_sensitivity(meta.get("neighbours", "unbounded"))


def range_sum_sensitivity(neighbours: str = "unbounded") -> float:
    """L1 sensitivity of a single range-count query.

    A range either contains the changed record's bin(s) or not; in the
    bounded case the moved record can leave one in-range bin and enter
    another in-range bin (net 0) or cross the range boundary (net 1), so
    the sensitivity stays 1 for a *single* range.  For a *vector* of
    disjoint ranges the unbounded sensitivity is also 1 (parallel
    composition over bins).
    """
    _check_neighbours(neighbours)
    return 1.0


def sse_sensitivity_bound(count_cap: float, neighbours: str = "unbounded") -> float:
    """Upper bound on the sensitivity of a bucket's sum of squared errors.

    StructureFirst scores candidate bucket boundaries by the SSE of the
    bucket ``B``: ``SSE(B) = sum_i (c_i - mean(B))**2``.  If one count
    inside a bucket of width ``b`` changes by 1 (unbounded neighbours),
    algebra on ``SSE = sum c_i^2 - b * mean^2`` gives

        |Delta SSE| = |2 (c_i - mean) + 1 - 1/b| <= 2 * spread + 1

    where ``spread = max_i |c_i - mean(B)|``.  The spread is data-
    dependent, so a *public* per-bin count cap ``C`` (from the dataset
    schema, never the data) yields the worst-case bound ``2C + 1``.  In
    the bounded model two counts change, doubling the bound.

    This is the documented substitution for the sensitivity constant of
    the original paper (see DESIGN.md): it rescales the exponential
    mechanism's effective budget by a constant and leaves the relative
    ordering of algorithms intact.
    """
    check_non_negative(count_cap, "count_cap")
    _check_neighbours(neighbours)
    base = 2.0 * float(count_cap) + 1.0
    return base if neighbours == "unbounded" else 2.0 * base
