"""Thermodynamic-limit pressure and its derivatives for the annealed model.

Everything reduces to the scalar variational problem

    psi(beta, B) = beta*d/2 - B + max_t [ H(t) + 2*B*t ],

with H(t) = (t-1)log(1-t) - t log t + d*F(t) and F the integral of log f from
0 to min(t, 1-t). Stationary points of L(t) = H(t) + 2Bt are bracketed on a
log-spaced grid of s = t - 1/2 and polished by Newton using the closed-form
curvature. Magnetization, susceptibility and the specific heat all come from
derivatives of L at the maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_quad

__all__ = [
    "ModelParams",
    "CriticalPoint",
    "ThermoPoint",
    "RootBracketError",
    "NoNontrivialRootError",
    "UndefinedAtCriticalityError",
    "f_beta",
    "F_beta",
    "H_beta",
    "dH_beta",
    "d2H_beta",
    "critical_beta",
    "find_t_star",
    "find_t_plus",
    "pressure",
    "magnetization",
    "susceptibility",
    "specific_heat",
    "thermo_point",
]

T_GUARD = 1e-12  # evaluations clamped to [T_GUARD, 1 - T_GUARD]


class RootBracketError(RuntimeError):
    """No (or more than one) sign change where a unique root was required."""


class NoNontrivialRootError(RuntimeError):
    """dH has no root in (1/2, 1): beta is at or below the critical point."""


class UndefinedAtCriticalityError(ArithmeticError):
    """One-sided limits disagree exactly at (beta_c, B=0)."""


@dataclass(frozen=True)
class ModelParams:
    """Degree d >= 2, inverse temperature beta >= 0, external field B >= 0.

    Negative B is the caller's business via the spin-flip symmetry
    (B -> -B, M -> -M); it never enters here.
    """

    d: int
    beta: float
    B: float = 0.0

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 2:
            raise ValueError(f"d={self.d}: need an integer >= 2")
        if self.beta < 0:
            raise ValueError(f"beta={self.beta} negative")
        if self.B < 0:
            raise ValueError(f"B={self.B} negative; flip spins instead")


@dataclass(frozen=True)
class CriticalPoint:
    """A stationary point of L(t) = H(t) + 2Bt on (0, 1).

    kind: 'field' for dH + 2B = 0 with B > 0, 'spontaneous' for dH = 0 with
    beta > beta_c, 'trivial' for t = 1/2. residual is the achieved |dL/dt|.
    """

    t_star: float
    kind: str
    residual: float


@dataclass(frozen=True)
class ThermoPoint:
    """Limit pressure, magnetization, susceptibility, specific heat at one (d, beta, B)."""

    psi: float
    M: float
    chi: float
    C: float
    point: CriticalPoint


# ---------------------------------------------------------------------------
# the elementary functions


def _f(s, c):
    """f(s) for array/scalar s in [0, 1/2]; c = exp(-2 beta). No domain check."""
    u = 1.0 - 2.0 * np.asarray(s, dtype=np.float64)
    return (c * u + np.sqrt(1.0 + (c * c - 1.0) * u * u)) / (2.0 - 2.0 * np.asarray(s))


def _logf(s, c):
    """log f(s), written so the value stays accurate to ~1 ulp *absolute* as f -> 1.

    log f = log1p(c*u + (c^2-1)u^2/(1+R)) - log1p(u) with R the radical; both
    pieces vanish smoothly at s = 1/2 (u = 0), so no cancellation is left.
    """
    s = np.asarray(s, dtype=np.float64)
    u = 1.0 - 2.0 * s
    a = c * c - 1.0
    r = np.sqrt(1.0 + a * u * u)
    return np.log1p(c * u + a * u * u / (1.0 + r)) - np.log1p(u)


def f_beta(s: float, beta: float) -> float:
    """The edge-weight generating function f(s) on [0, 1/2]."""
    if not 0.0 <= s <= 0.5:
        raise ValueError(f"s={s} outside [0, 1/2]")
    return float(_f(s, math.exp(-2.0 * beta)))


def F_beta(t: float, beta: float) -> float:
    """F(t) = integral of log f over [0, min(t, 1-t)]; F(t) = F(1-t)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    upper = min(t, 1.0 - t)
    if upper == 0.0 or beta == 0.0:
        return 0.0
    c = math.exp(-2.0 * beta)
    return adaptive_quad(lambda s: _logf(s, c), 0.0, upper, tol=1e-13)


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
        return ent + d * float(_logf(t, c))
    return ent - d * float(_logf(1.0 - t, c))


def d2H_beta(t: float, d: int, beta: float) -> float:
    """Closed-form d^2H/dt^2; written for t in [1/2, 1), extended by symmetry.

    -P/Q with theta2 = f(1-t); Q > 0 on (0, 1) for beta >= 0, so a vanishing
    Q is a hard error rather than a value.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t={t}: endpoint is singular, domain is (0, 1)")
    tt = max(t, 1.0 - t)
    c = math.exp(-2.0 * beta)
    th2 = float(_f(1.0 - tt, c))
    one_m = 1.0 - tt
    P = d * one_m * (c * th2 - 1.0) + c * (2.0 * tt - 1.0) * th2 + 2.0 * one_m
    Q = tt * one_m * (c * (2.0 * tt - 1.0) * th2 + 2.0 * one_m)
    if Q == 0.0:
        raise ArithmeticError(f"curvature denominator vanished at t={t}, beta={beta}")
    return -P / Q


def critical_beta(d: int) -> float:
    """atanh(1/(d-1)) = (1/2) log(d/(d-2)); infinite for d = 2."""
    if d < 2:
        raise ValueError(f"d={d}: need d >= 2")
    if d == 2:
        return math.inf
    return 0.5 * math.log(d / (d - 2.0))


# ---------------------------------------------------------------------------
# stationary points


def _dL(s: float, d: int, beta: float, B: float) -> float:
    return dH_beta(0.5 + s, d, beta) + 2.0 * B


def _dL_upper(s: np.ndarray, d: int, beta: float, B: float) -> np.ndarray:
    """_dL element by element over offsets s > 0, by dH_beta's t >= 1/2 branch.

    The same expression in the same order, so a scan over these values takes
    the branch the scalar loop would; the values only ever decide signs.
    """
    t = 0.5 + s
    s = t - 0.5
    ent = np.log1p(-2.0 * s) - np.log1p(2.0 * s)
    return ent - d * _logf(1.0 - t, math.exp(-2.0 * beta)) + 2.0 * B


def _newton_polish(s: float, lo: float, hi: float, d: int, beta: float, B: float) -> float:
    """Newton inside a bracket with bisection fallback.

    Stops at residual 1e-12, or at bracket exhaustion (no representable point
    left strictly between lo and hi): when the root sits close to t = 1 the
    cancellation in 1 - t floors the evaluation noise of dL above 1e-12, so
    the target is unreachable there and the best point seen is the answer.
    The achieved residual travels on the CriticalPoint either way.
    """
    best_s, best_r = s, math.inf
    for _ in range(120):
        r = _dL(s, d, beta, B)
        if abs(r) < best_r:
            best_s, best_r = s, abs(r)
        if abs(r) <= 1e-12:
            return s
        curv = d2H_beta(0.5 + s, d, beta)
        nxt = s - r / curv if curv != 0.0 else math.nan
        if not lo < nxt < hi:
            # a step outside the bracket, or onto an end of it, cannot shrink it
            nxt = 0.5 * (lo + hi)
        if _dL(nxt, d, beta, B) * _dL(lo, d, beta, B) < 0:
            hi = nxt
        else:
            lo = nxt
        s = nxt
        if math.nextafter(lo, hi) >= hi:
            return best_s
    raise RootBracketError(f"Newton failed to reach residual 1e-12 (d={d}, beta={beta}, B={B})")


def _bisect(lo: float, hi: float, flo: float, d: int, beta: float, B: float) -> tuple[float, float]:
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if flo * _dL(mid, d, beta, B) <= 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


_LOG_GRID = np.geomspace(1e-9, 0.5 - T_GUARD, 180)  # bracket scans, s = t - 1/2
_UNIQUE_GRID = np.arange(0.5 + 1e-3, 1.0 - 0.5e-3, 1e-3) - 0.5  # uniqueness scan


def _scan(grid: np.ndarray, lo: float, flo: float, d: int, beta: float, B: float):
    """First sign change of dL along the increasing grid, starting from (lo, flo).

    Returns (lo, flo, hi): hi is the first grid point whose value times the
    previous one is <= 0, lo and flo the point before it. hi is None when no
    such point exists.
    """
    vals = _dL_upper(grid, d, beta, B)
    prev = np.concatenate(([flo], vals[:-1]))
    hits = np.flatnonzero(prev * vals <= 0)
    if hits.size == 0:
        return lo, flo, None
    i = int(hits[0])
    if i > 0:
        lo, flo = grid[i - 1], vals[i - 1]
    return lo, flo, grid[i]


def _count_sign_changes(d: int, beta: float, B: float) -> int:
    """Sign changes of dL on a 1e-3 grid of (1/2, 1), anchored at both ends.

    The anchors matter: for small B or beta near beta_c the root sits below
    the first grid point, and deep in the ordered phase it sits above the
    last one; only the near-boundary evaluations see those.
    """
    first = 2.0 * B if B > 0 else _dL(1e-6, d, beta, 0.0)
    last = _dL(0.5 - T_GUARD, d, beta, B)  # same reach as the bracket scans
    signs = np.sign(np.concatenate(([first], _dL_upper(_UNIQUE_GRID, d, beta, B), [last])))
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def find_t_star(params: ModelParams) -> CriticalPoint:
    """Unique maximizer of L on (1/2, 1) for B > 0: root of dH + 2B.

    Log-spaced bracket scan in s = t - 1/2 (the root can sit anywhere between
    ~B/|d2H| and 1/2), bisection to 1e-8, Newton to residual 1e-12. A 1e-3
    grid check confirms the sign change is unique.
    """
    d, beta, B = params.d, params.beta, params.B
    if B <= 0:
        raise ValueError(f"B={B}: find_t_star needs B > 0")
    lo, flo, hi = _scan(_LOG_GRID, 0.0, 2.0 * B, d, beta, B)  # dL(1/2) = 2B > 0 analytically
    if hi is None:
        raise RootBracketError(
            f"dH + 2B has no sign change on (1/2, 1-{T_GUARD}) for d={d}, beta={beta}, B={B}"
        )
    if _count_sign_changes(d, beta, B) != 1:
        raise RootBracketError(f"multiple stationary points for d={d}, beta={beta}, B={B}")
    lo, hi = _bisect(lo, hi, flo, d, beta, B)
    s = _newton_polish(0.5 * (lo + hi), lo, hi, d, beta, B)
    return CriticalPoint(0.5 + s, "field", abs(_dL(s, d, beta, B)))


def find_t_plus(params: ModelParams) -> CriticalPoint:
    """Nontrivial root t_+ of dH on (1/2, 1) for B = 0, beta > beta_c.

    Seeded by the near-critical asymptotic s_+ ~ sqrt(3 d^2 (beta-beta_c) /
    (4(d-1))); the scan falls back to the full log grid when the seed's
    bracket fails (far above beta_c).
    """
    d, beta = params.d, params.beta
    if d < 3:
        raise ValueError(f"d={d}: no finite critical point below d=3")
    bc = critical_beta(d)
    if beta <= bc:
        raise NoNontrivialRootError(f"beta={beta} <= beta_c={bc:.12g}: only the trivial root 1/2")
    s_max = 0.5 - T_GUARD
    seed = math.sqrt(3.0 * d * d * (beta - bc) / (4.0 * (d - 1.0)))
    lo = min(0.25 * seed, 0.25)
    hi = min(4.0 * seed, s_max)
    flo = _dL(lo, d, beta, 0.0)
    if not (flo > 0 and _dL(hi, d, beta, 0.0) < 0):
        # sign of dL(1/2+) is + since d2H(1/2) > 0
        lo, flo, hi = _scan(_LOG_GRID, 0.0, 1.0, d, beta, 0.0)
        if hi is None:
            raise RootBracketError(f"dH has no sign change on (1/2, 1) for d={d}, beta={beta}")
    if _count_sign_changes(d, beta, 0.0) != 1:
        raise RootBracketError(f"nontrivial root not unique for d={d}, beta={beta}")
    lo, hi = _bisect(lo, hi, flo, d, beta, 0.0)
    s = _newton_polish(0.5 * (lo + hi), lo, hi, d, beta, 0.0)
    return CriticalPoint(0.5 + s, "spontaneous", abs(_dL(s, d, beta, 0.0)))


def _t_hat(params: ModelParams) -> CriticalPoint:
    """The maximizer used by all limit quantities (B = 0 means the 0+ limit)."""
    if params.B > 0:
        return find_t_star(params)
    if params.d >= 3 and params.beta > critical_beta(params.d):
        return find_t_plus(params)
    return CriticalPoint(0.5, "trivial", 0.0)


# ---------------------------------------------------------------------------
# limit quantities


def pressure(params: ModelParams) -> float:
    """psi(beta, B) = beta d/2 - B + L(t_hat)."""
    point = _t_hat(params)
    t = point.t_star
    L = H_beta(t, params.d, params.beta) + 2.0 * params.B * t
    return params.beta * params.d / 2.0 - params.B + L


def magnetization(params: ModelParams) -> float:
    """M = 2 t_hat - 1; at B = 0 this is the spontaneous (0+) value."""
    return 2.0 * _t_hat(params).t_star - 1.0


def susceptibility(params: ModelParams) -> float:
    """chi = -4 / d2H(t_hat) > 0 on the uniqueness region; +inf at (beta_c, 0)."""
    if _at_criticality(params):
        return math.inf
    return -4.0 / d2H_beta(_t_hat(params).t_star, params.d, params.beta)


def specific_heat(params: ModelParams) -> float:
    """C = d^2 psi/d beta^2 = dbbL(t_hat) - dtbL(t_hat)^2 / dttL(t_hat).

    The mixed term vanishes at t_hat = 1/2, so below beta_c (at B = 0) only
    the quadrature term survives. Exactly at (beta_c, 0) the two one-sided
    limits differ and no value is returned.
    """
    if _at_criticality(params):
        raise UndefinedAtCriticalityError(
            f"specific heat has unequal one-sided limits at beta_c={params.beta!r}, B=0"
        )
    point = _t_hat(params)
    t = point.t_star
    dbb = _dbb_L(t, params.d, params.beta)
    if t == 0.5:
        return dbb
    dtb = _dtb_L(t, params.d, params.beta)
    return dbb - dtb * dtb / d2H_beta(t, params.d, params.beta)


def thermo_point(params: ModelParams) -> ThermoPoint:
    """Assemble psi, M, chi, C at one parameter point.

    At exactly (beta_c, 0) chi is reported infinite and C as nan rather than
    raising; scans are expected to straddle the critical point.
    """
    point = _t_hat(params)
    t = point.t_star
    psi = params.beta * params.d / 2.0 - params.B + H_beta(t, params.d, params.beta) + 2.0 * params.B * t
    M = 2.0 * t - 1.0
    if _at_criticality(params):
        return ThermoPoint(psi, M, math.inf, math.nan, point)
    chi = -4.0 / d2H_beta(t, params.d, params.beta)
    dbb = _dbb_L(t, params.d, params.beta)
    if t == 0.5:
        C = dbb
    else:
        dtb = _dtb_L(t, params.d, params.beta)
        C = dbb - dtb * dtb / d2H_beta(t, params.d, params.beta)
    return ThermoPoint(psi, M, chi, C, point)


def _at_criticality(params: ModelParams) -> bool:
    return params.B == 0.0 and params.d >= 3 and params.beta == critical_beta(params.d)


def _dtb_L(t: float, d: int, beta: float) -> float:
    """Mixed derivative d^2L/dt dbeta = 2 d c (2t-1) / sqrt(1 + (c^2-1)(2t-1)^2)."""
    c = math.exp(-2.0 * beta)
    u = 2.0 * t - 1.0
    return 2.0 * d * c * u / math.sqrt(1.0 + (c * c - 1.0) * u * u)


def _dbb_L(t: float, d: int, beta: float) -> float:
    """d^2L/dbeta^2 = 2 d c * integral_{|2t-1|}^{1} u(1-u^2)/(1+(c^2-1)u^2)^{3/2} du."""
    c = math.exp(-2.0 * beta)
    a = c * c - 1.0

    def integrand(u):
        return u * (1.0 - u * u) / np.power(1.0 + a * u * u, 1.5)

    return 2.0 * d * c * adaptive_quad(integrand, abs(2.0 * t - 1.0), 1.0, tol=1e-13)
