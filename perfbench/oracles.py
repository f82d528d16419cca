"""Reference values the benchmark checks the CLI's output against.

None of these reuse the computation under test: the pairing law is summed
term by term with the standard library (``math.lgamma`` and ``math.fsum``),
and the limit pressure is maximized by golden section over H(t) + 2Bt
instead of by the package's bracket-and-Newton root finding.
"""

from __future__ import annotations

import math

_LN2 = math.log(2.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _log_dfact(o: int) -> float:
    """log o!! for odd o >= -1, with (-1)!! = 1."""
    q = (o + 1) // 2  # o!! = (2q)! / (2^q q!)
    return math.lgamma(2.0 * q + 1.0) - q * _LN2 - math.lgamma(q + 1.0)


def _log_choose(a: int, b: int) -> float:
    return math.lgamma(a + 1.0) - math.lgamma(b + 1.0) - math.lgamma(a - b + 1.0)


def log_g(k: int, m: int, beta: float) -> float:
    """log E[exp(-2 beta X)] for the cross count X of a uniform pairing of m points.

    P(X = x) = C(k,x) C(m-k,x) x! (k-x-1)!! (m-k-x-1)!! / (m-1)!! on
    x = k mod 2, ..., min(k, m-k) in steps of 2.
    """
    terms = [
        _log_choose(k, x)
        + _log_choose(m - k, x)
        + math.lgamma(x + 1.0)
        + _log_dfact(k - x - 1)
        + _log_dfact(m - k - x - 1)
        - 2.0 * beta * x
        for x in range(k & 1, min(k, m - k) + 1, 2)
    ]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms)) - _log_dfact(m - 1)


def finite_observables(d: int, n: int, beta: float, B: float, log_g_row) -> tuple[float, float, float]:
    """(psi_n, M_n, chi_n) from a g-table row, summed with math.fsum.

    psi_n = beta d/2 - B + (1/n) log sum_j C(n,j) g_j e^{2Bj}; M_n and chi_n
    are the mean and n times the variance of S/n = (2j - n)/n.
    """
    logs = [_log_choose(n, j) + float(log_g_row[j]) + 2.0 * B * j for j in range(n + 1)]
    top = max(logs)
    w = [math.exp(v - top) for v in logs]
    z = math.fsum(w)
    psi = beta * d / 2.0 - B + (top + math.log(z)) / n
    m1 = math.fsum(wj * (2 * j - n) for j, wj in enumerate(w)) / z
    m2 = math.fsum(wj * (2 * j - n) ** 2 for j, wj in enumerate(w)) / z
    return psi, m1 / n, (m2 - m1 * m1) / n


def golden_max(f, a: float, b: float, tol: float) -> float:
    """Largest value of f seen while golden section narrows [a, b] below tol.

    f must be unimodal on [a, b]; a maximum at an endpoint is approached to
    within tol.
    """
    c, e = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fe = f(c), f(e)
    best = max(fc, fe)
    while b - a > tol:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            best = max(best, fc)
        else:
            a, c, fc = c, e, fe
            e = a + _INVPHI * (b - a)
            fe = f(e)
            best = max(best, fe)
    return best


def limit_pressure(H, d: int, beta: float, B: float) -> float:
    """beta d/2 - B + max over [1/2, 1) of H(t) + 2Bt, by golden section.

    H(t) + 2Bt is unimodal on [1/2, 1) for B >= 0 (one sign change of its
    slope at most), and its maximum over (0, 1) lies there.
    """
    top = golden_max(lambda t: H(t, d, beta) + 2.0 * B * t, 0.5, 1.0 - 1e-12, 1e-13)
    return beta * d / 2.0 - B + top
