"""Gauss-Legendre quadrature the tests use as an oracle: fixed panels plus
adaptive bisection, on the package's node table."""

from __future__ import annotations

from typing import Callable

import numpy as np

from annealed_ising.quadrature import _nodes

__all__ = ["fixed_quad", "adaptive_quad"]


def fixed_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, npts: int = 64) -> float:
    """One Gauss-Legendre panel on [a, b]; f must accept an ndarray."""
    x, w = _nodes(npts)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, f(0.5 * (a + b) + half * x)))


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-13,
    npts: int = 64,
    max_depth: int = 48,
) -> float:
    """Composite Gauss-Legendre with interval bisection.

    A panel is accepted once splitting it moves the estimate by less than its
    share of the absolute tolerance; smooth integrands rarely need more than
    the first split.
    """
    if a == b:
        return 0.0
    return _refine(f, a, b, fixed_quad(f, a, b, npts), tol, npts, max_depth)


def _refine(f, a, b, whole, tol, npts, depth) -> float:
    mid = 0.5 * (a + b)
    left = fixed_quad(f, a, mid, npts)
    right = fixed_quad(f, mid, b, npts)
    if abs(left + right - whole) <= tol:
        return left + right
    if depth <= 0:
        raise RuntimeError(f"quadrature failed to converge on [{a}, {b}]")
    return _refine(f, a, mid, left, 0.5 * tol, npts, depth - 1) + _refine(
        f, mid, b, right, 0.5 * tol, npts, depth - 1
    )
