"""Thermodynamic-limit pressure and its derivatives for the annealed model.

The annealed pressure on d-regular configuration-model graphs is the Bethe
pressure of the d-regular tree (Dembo & Montanari 2010; Can 2017). With
theta = tanh(beta), h the largest root of the fixed-point equation

    h = B + (d-1) atanh(theta tanh h)

and x = theta tanh h,

    psi = (d/2) log cosh(beta) - (d/2) log(1 + theta tanh^2 h)
          + log(e^B (1+x)^d + e^-B (1-x)^d),
    M   = tanh(B + d atanh x).

chi = dM/dB and C = d^2 psi/dbeta^2 follow by implicit differentiation of
the fixed-point equation: one Newton solve gives all four, with no quadrature,
started near beta_c from the root of the equation's Landau cubic.
`thermo_point` is that solve and the one way to evaluate the limit: it
returns psi, M, chi, C, the maximizer t_hat and the fixed-point residual
together. Its input `ModelParams` (checked when built) and its output
`ThermoPoint` are named tuples: read-only, and cheap to build per point.

The same pressure is the variational form

    psi(beta, B) = beta*d/2 - B + max_t [ H(t) + 2*B*t ],

with H(t) = (t-1)log(1-t) - t log t + d*F(t) and F the integral of log f from
0 to tau = min(t, 1-t), maximised at t_hat = (1 + M)/2. The edge-weight
generating function f on [0, 1/2] is, with c = exp(-2 beta) and u = 1 - 2s,

    f(s) = (c u + sqrt(1 + (c^2 - 1) u^2)) / (2 - 2s),

and the module evaluates it only as its logarithm, `_logf`. log f has an
elementary antiderivative: with v = 1 - 2 tau and
R = sqrt(c^2 + (1 - c^2) 4 tau (1 - tau)),

    F(t) = tau log((c v + R)/2) + (1/2) log1p(2 c tau/(c v + R))
           + (1/2) v log1p(-tau),

every term O(tau), so F needs no quadrature. F_beta, H_beta and dH_beta
keep the variational form as the documented statement of the problem and as
an independent oracle; the closed-form H'' that checks chi and C against
them is a test oracle, in tests/test_thermo.py.
`criticality.taylor_check` differentiates dH_beta (and log f, for the F
part) at t = 1/2, beta_c; `thermo_point` never evaluates the variational
form.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import NamedTuple

__all__ = [
    "ModelParams",
    "ThermoPoint",
    "RootBracketError",
    "F_beta",
    "H_beta",
    "dH_beta",
    "critical_beta",
    "thermo_point",
]

# A maximizer is reported only while 1 - t_hat >= T_GUARD. The solver never
# forms 1 - t, but t_hat = (1 + M)/2 is a float on a 2^-53 grid, so below the
# guard 1 - t_hat keeps fewer than two significant digits (it is one ulp at
# d=3, beta=6, B=0, and t_hat rounds to 1 at d=3, beta=0.3, B=50).
T_GUARD = 1e-14


class RootBracketError(RuntimeError):
    """The limit point has no float answer.

    Raised when tanh(beta) rounds to 1, when Newton does not settle in 100
    steps, and when t_hat lies within T_GUARD of t = 1.
    """


class ModelParams(namedtuple("ModelParams", ("d", "beta", "B"))):
    """Degree d >= 2, inverse temperature beta >= 0, external field B >= 0.

    Negative B is the caller's business via the spin-flip symmetry
    (B -> -B, M -> -M); it never enters here. A named tuple: its fields
    cannot be assigned, and building one costs a tuple and the three checks.
    """

    __slots__ = ()

    def __new__(cls, d: int, beta: float, B: float = 0.0):
        if int(d) != d or d < 2:
            raise ValueError(f"d={d}: need an integer >= 2")
        if not math.isfinite(beta) or beta < 0:
            raise ValueError(f"beta={beta}: need a finite beta >= 0")
        if not math.isfinite(B) or B < 0:
            raise ValueError(f"B={B}: need a finite B >= 0; flip spins for B < 0")
        return tuple.__new__(cls, (d, beta, B))

    @classmethod
    def _make(cls, iterable):  # so _replace checks its fields too
        return cls(*iterable)


class ThermoPoint(NamedTuple):
    """The limit at one (d, beta, B); B = 0 means the 0+ limit.

    psi is the pressure, M = dpsi/dB the magnetization, chi = dM/dB the
    susceptibility and C = d^2 psi/dbeta^2 the specific heat. t_hat =
    (1 + M)/2 maximizes L(t) = H(t) + 2Bt; it is exactly 1/2 on the trivial
    branch (B = 0, beta <= beta_c). residual is |h - B - (d-1) atanh(theta
    tanh h)| at the returned h. Exactly at (beta_c, 0) chi is inf and C is
    nan: chi diverges there, and the two one-sided limits of C differ.
    """

    psi: float
    M: float
    chi: float
    C: float
    t_hat: float
    residual: float


# ---------------------------------------------------------------------------
# the elementary functions


def _logf(s: float, c: float) -> float:
    """log f(s), written so the value stays accurate to ~1 ulp *absolute* as f -> 1.

    log f = log1p(c*u + (c^2-1)u^2/(1+R)) - log1p(u) with R the radical; both
    pieces vanish smoothly at s = 1/2 (u = 0), so no cancellation is left.
    """
    u = 1.0 - 2.0 * s
    a = c * c - 1.0
    r = math.sqrt(1.0 + a * u * u)
    return math.log1p(c * u + a * u * u / (1.0 + r)) - math.log1p(u)


def F_beta(t: float, beta: float) -> float:
    """F(t) = integral of log f over [0, tau], tau = min(t, 1-t); F(t) = F(1-t).

    The closed form of the module docstring; 1 - c^2 is -expm1(-4 beta), so
    R keeps its precision as beta -> 0, and at tau = 1/2 F is
    (1/2) log((1 + c)/2).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    tau = min(t, 1.0 - t)
    if tau == 0.0 or beta == 0.0:
        return 0.0
    c = math.exp(-2.0 * beta)
    v = 1.0 - 2.0 * tau
    w = c * v + math.sqrt(c * c - math.expm1(-4.0 * beta) * 4.0 * tau * (1.0 - tau))
    return tau * math.log(0.5 * w) + 0.5 * math.log1p(2.0 * c * tau / w) + 0.5 * v * math.log1p(-tau)


def H_beta(t: float, d: int, beta: float) -> float:
    """H(t) = (t-1)log(1-t) - t log t + d F(t) on the open interval (0, 1)."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t={t}: endpoint is singular, domain is (0, 1)")
    ent = (t - 1.0) * math.log1p(-t) - t * math.log(t)
    return ent + d * F_beta(t, beta)


def dH_beta(t: float, d: int, beta: float) -> float:
    """dH/dt = log((1-t)/t) + d log f(t) for t <= 1/2, minus branch mirrored.

    Continuous at 1/2 since log f(1/2) = 0.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t={t}: endpoint is singular, domain is (0, 1)")
    s = t - 0.5
    ent = math.log1p(-2.0 * s) - math.log1p(2.0 * s)  # log((1-t)/t), exact near 1/2
    c = math.exp(-2.0 * beta)
    if t < 0.5:
        return ent + d * _logf(t, c)
    return ent - d * _logf(1.0 - t, c)


def critical_beta(d: int) -> float:
    """atanh(1/(d-1)) = (1/2) log(d/(d-2)); infinite for d = 2."""
    if d < 2:
        raise ValueError(f"d={d}: need d >= 2")
    if d == 2:
        return math.inf
    return 0.5 * math.log(d / (d - 2.0))


# ---------------------------------------------------------------------------
# the Bethe fixed point


def _tanh_pair(z: float) -> tuple[float, float]:
    """(tanh z, 1 - tanh z) for z >= 0, each to full relative precision."""
    e = math.exp(-2.0 * z)
    return -math.expm1(-2.0 * z) / (1.0 + e), 2.0 * e / (1.0 + e)


def thermo_point(params: ModelParams) -> ThermoPoint:
    """psi, M, chi and C at the fixed point of h = B + (d-1) atanh(theta tanh h).

    The trivial branch, B = 0 at or below beta_c, takes h = 0. Otherwise Newton
    starts from h = B + (d-1) beta, where g(h) = h - B - (d-1) atanh(theta
    tanh h) is positive because the atanh term stays below beta. g is convex
    on h > 0 (the slope theta / (1 + (1-theta^2) sinh^2 h) of the atanh term
    falls), so the iterates fall monotonically onto its largest root, which
    is its only positive one: for B > 0 because g(B) < 0, and for B = 0 above
    beta_c because g(0) = 0 with g'(0) = 1 - (d-1) theta < 0. Near beta_c
    (d >= 3, B < 1, |alpha| < 0.1 with alpha = 1 - (d-1) theta) Newton starts
    instead from the largest root of the Landau cubic gamma h^3 + alpha h - B,
    gamma = (d-1) theta (1-theta^2)/3, which is g to order h^3, if it lies in
    (lo, hi). The atanh term exceeds its cubic truncation (its h^5 coefficient
    theta (1-theta^2)(2-3 theta^2)/15 is positive for theta <= 1/2), so g < 0
    there, just below the root, and by convexity the first step lands above
    it. Outside the window the cubic is the poorer start. The guard is for
    rounding alone: a step that leaves the bracket [lo, hi] bisects it
    (geometrically while lo > 0, so a field of 1e-300 takes a handful of
    steps), and the loop stops once a step no longer moves h.

    1 - tanh^2 and 1 - x^2 are formed as (1 - y)(1 + y) from exponentials, so
    deep in the ordered phase every output keeps its relative precision.
    """
    d, beta, B = params.d, params.beta, params.B
    bc = critical_beta(d)
    th, om_th = _tanh_pair(beta)
    if om_th == 0.0:
        raise RootBracketError(f"tanh(beta) rounds to 1 at beta={beta}: no finite fixed point")
    lo, hi = B, B + (d - 1) * beta  # g(lo) <= 0 < g(hi)
    h = 0.0 if B == 0.0 and beta <= bc else hi
    alpha = 1.0 - (d - 1) * th
    if h > 0.0 and d > 2 and abs(alpha) < 0.1 and B < 1.0:  # largest root of t^3 + p t = q
        gamma = (d - 1) * th * om_th * (1.0 + th) / 3.0
        p, q = alpha / gamma, float(B) / gamma  # a numpy B would take numpy's complex power
        u = (0.5 * q + cmath.sqrt(0.25 * q * q + p**3 / 27.0)) ** (1.0 / 3.0)
        t = (u - p / (3.0 * u)).real if u else 0.0
        h = t if lo < t < hi else hi
    for _ in range(100):
        y, om_y = _tanh_pair(h)
        x, om_x, om_y2 = th * y, om_th + th * om_y, om_y * (1.0 + y)
        u = 0.5 * math.log1p(2.0 * x / om_x)  # atanh x
        g = h - B - (d - 1) * u
        den = om_th * (1.0 + x * y) - (d - 2) * th * om_y2  # (1 - x^2) g'(h)
        if g == 0.0:
            break
        if g > 0.0:
            hi = h
        else:
            lo = h
        nxt = h - g * om_x * (1.0 + x) / den if den > 0.0 else math.nan
        if nxt == h:
            break
        if not lo < nxt < hi:
            nxt = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
            if not lo < nxt < hi:
                break
        h = nxt
    else:
        raise RootBracketError(f"Newton did not settle in 100 steps (d={d}, beta={beta}, B={B})")

    H = B + d * u
    q = math.exp(-2.0 * H)
    t_hat = 0.5 - 0.5 * math.expm1(-2.0 * H) / (1.0 + q)
    if 1.0 - t_hat < T_GUARD:
        raise RootBracketError(
            f"t_hat={t_hat!r} lies within {T_GUARD} of t = 1 for d={d}, beta={beta}, B={B}"
        )
    om_th2 = om_th * (1.0 + th)  # 1 - theta^2 = 1 / cosh^2(beta)
    psi = B + d * math.log1p(x) + math.log1p(q) - 0.25 * d * math.log(om_th2)
    psi -= 0.5 * d * math.log1p(x * y)
    M = 2.0 * t_hat - 1.0
    if B == 0.0 and beta == bc:
        return ThermoPoint(psi, M, math.inf, math.nan, t_hat, abs(g))
    chi = 4.0 * q / (1.0 + q) ** 2 * (1.0 + th) * (om_th + th * om_y2) / den
    dh_dbeta = (d - 1) * om_th2 * y / den
    C = 0.5 * d * om_th2 * om_y2 / (1.0 + x * y) ** 2 * (1.0 + y * y + 2.0 * y * dh_dbeta)
    return ThermoPoint(psi, M, chi, C, t_hat, abs(g))
