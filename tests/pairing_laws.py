"""Laws of the cross-edge count X(k, m) the tests use as oracles: by
enumeration and in closed form, on the package's exact counts."""

from __future__ import annotations

import math

from annealed_ising.matching import _closed_count, _cross_counts

__all__ = ["brute_force_law", "cross_count_law"]


def brute_force_law(k: int, m: int) -> dict[int, float]:
    """Exact law of X(k, m) by enumerating all (m-1)!! perfect matchings.

    Deliberately naive; this is the oracle everything else is checked against.
    """
    _check_km(k, m)
    if m > 14:
        raise ValueError(f"m={m} too large to enumerate ((m-1)!! growth, cap m=14)")
    row = _cross_counts(m)[k]
    total = sum(row)
    return {x: c / total for x, c in enumerate(row) if c}


def cross_count_law(k: int, m: int) -> dict[int, float]:
    """Closed-form law of X(k, m), each probability the correctly rounded count / (m-1)!!.

    P(X=x) = C(k,x) C(m-k,x) x! (k-x-1)!! (m-k-x-1)!! / (m-1)!!
    over the support x = k mod 2, ..., min(k, m-k) in steps of 2, with the
    convention (-1)!! = 1 covering the boundary terms. The counts are Python
    integers (`_closed_count`) and int / int true division rounds once.
    """
    _check_km(k, m)
    total = math.prod(range(m - 1, 0, -2))
    return {x: _closed_count(k, m, x) / total for x in range(k & 1, min(k, m - k) + 1, 2)}


def _check_km(k: int, m: int) -> None:
    if m % 2:
        raise ValueError(f"m={m}: perfect matching needs an even point count")
    if not 0 <= k <= m:
        raise ValueError(f"k={k} outside 0..{m}")
