"""Gauss-Legendre nodes: the panel `criticality._ks_distance` integrates the
quartic law with, the one quadrature left in the package."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__: list[str] = []


@lru_cache(maxsize=None)
def _nodes(npts: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w
