"""Critical-point diagnostics: Taylor coefficients, exponent fits, the
specific-heat jump, and the quartic scaling limit.

Everything here probes the neighborhood of beta_c = atanh(1/(d-1)) at B = 0,
where the maximizer of the variational problem bifurcates: the magnetization
onsets like (beta - beta_c)^{1/2}, the susceptibility diverges like
|beta - beta_c|^{-1} from both sides, the specific heat stays bounded with a
finite jump, and the total spin scaled by n^{3/4} converges to the quartic
law with density proportional to exp(-a x^4).

Check functions return JSON-ready dicts shaped
{check, d, grid, estimates, targets, tolerances, pass}; the constants they
compare against live in one place here, next to their formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finiten import build_table, mgf_scaled, spin_law
from .quadrature import fixed_quad, _nodes
from .thermo import (
    ModelParams,
    _logf,
    critical_beta,
    magnetization,
    specific_heat,
    susceptibility,
)

__all__ = [
    "ExponentFit",
    "ScalingLimit",
    "scaling_limit",
    "taylor_check",
    "fit_exponent_beta",
    "fit_exponent_delta",
    "fit_exponent_gamma",
    "exponent_report",
    "specific_heat_jump",
    "scaling_limit_check",
]


@dataclass(frozen=True)
class ExponentFit:
    """A log-log slope plus the prefactor read off at the finest grid point."""

    exponent_estimate: float
    amplitude_estimate: float
    r_squared: float
    grid: tuple[float, ...]
    target_exponent: float
    target_amplitude: float | None


@dataclass(frozen=True)
class ScalingLimit:
    """The law with density exp(-a x^4) / normalizer on the real line.

    quartic_coeff a = (d-1)(d-2)/(12 d^2); alpha_star = -16 a (the division
    by 16 is exact in floating point, so alpha_star/16 + a == 0 holds
    bitwise). normalizer is the total integral Gamma(1/4) / (2 a^{1/4}).
    """

    d: int
    alpha_star: float
    quartic_coeff: float
    normalizer: float
    moment2: float
    moment4: float

    def moment(self, k: int) -> float:
        """E[X^k]; odd moments vanish, E[X^{2m}] = Gamma((2m+1)/4)/Gamma(1/4) a^{-m/2}."""
        if k < 0 or int(k) != k:
            raise ValueError(f"k={k}: need a nonnegative integer")
        if k % 2:
            return 0.0
        return math.gamma((k + 1) / 4.0) / math.gamma(0.25) * self.quartic_coeff ** (-k / 4.0)

    def density(self, y):
        y = np.asarray(y, dtype=np.float64)
        return np.exp(-self.quartic_coeff * y**4) / self.normalizer

    def mgf(self, r: float) -> float:
        """E[exp(r X)] = sum_k r^{2k}/(2k)! E[X^{2k}], summed with math.fsum.

        Every term is positive. E[X^{2k+4}] = (2k+1)/(4a) E[X^{2k}], so each
        term is the one two places back times r^4 / (4a (2k+2)(2k+3)(2k+4));
        r^{2k} and (2k)! are never formed, and |r| = 10 needs about 70 terms.
        The sum stops once the factor is below 1/2 and the newest two terms
        are below 2^-60 of the sum so far.
        """
        if not math.isfinite(r):
            raise ValueError(f"r={r}: need a finite tilt")
        q = r**4 / (4.0 * self.quartic_coeff)
        terms = [1.0, 0.5 * r * r * self.moment2]
        k = 0
        while True:
            step = q / ((2 * k + 2) * (2 * k + 3) * (2 * k + 4))
            terms.append(terms[k] * step)
            if not math.isfinite(terms[-1]):
                raise OverflowError(f"mgf({r!r}) is beyond the float range")
            k += 1
            if step < 0.5 and terms[-1] + terms[-2] < 2.0**-60 * math.fsum(terms):
                return math.fsum(terms)


def scaling_limit(d: int) -> ScalingLimit:
    """Limit law of S_n / n^{3/4} at (beta_c, B=0)."""
    if d < 3:
        raise ValueError(f"d={d}: the quartic limit needs d >= 3")
    a = (d - 1.0) * (d - 2.0) / (12.0 * d * d)
    return ScalingLimit(
        d=d,
        alpha_star=-16.0 * a,
        quartic_coeff=a,
        normalizer=math.gamma(0.25) / (2.0 * a**0.25),
        moment2=math.gamma(0.75) / math.gamma(0.25) / math.sqrt(a),
        moment4=0.25 / a,
    )


# ---------------------------------------------------------------------------
# Taylor coefficients of H at 1/2


def _increments(d: int, c: float, h: float) -> tuple[dict[int, float], dict[int, float]]:
    """G(kh) = H(1/2 + kh) - H(1/2) and the F-part alone, k in {+-1, +-2, +-4}.

    Both pieces are evaluated as increments from 1/2 -- the entropy part via
    log1p, the F part as a single short integral -- so the near-total
    cancellation between them (G ~ 1e-13 at h = 1e-3) costs no precision.
    """
    gvals: dict[int, float] = {}
    fvals: dict[int, float] = {}
    for k in (-4, -2, -1, 1, 2, 4):
        u = k * h
        phi = -(0.5 - u) * math.log1p(-2.0 * u) - (0.5 + u) * math.log1p(2.0 * u)
        finc = -fixed_quad(lambda s: _logf(s, c), 0.5 - abs(u), 0.5, 64)
        fvals[k] = finc
        gvals[k] = phi + d * finc
    return gvals, fvals


def _stencil_derivatives(g: dict[int, float], h: float) -> tuple[float, float, float, float]:
    """Central-difference d1..d4 at 0, Richardson-extrapolated from steps h and 2h.

    Uses g(0) = 0 (the increments vanish at the center) and the evenness of
    the underlying function, which makes every stencil's error series clean
    in powers of h^2: orders 4, 4, 2, 2 before extrapolation.
    """

    def d1(k):
        return (g[-2 * k] - 8.0 * g[-k] + 8.0 * g[k] - g[2 * k]) / (12.0 * k * h)

    def d2(k):
        return (-g[-2 * k] + 16.0 * g[-k] + 16.0 * g[k] - g[2 * k]) / (12.0 * (k * h) ** 2)

    def d3(k):
        return (-g[-2 * k] + 2.0 * g[-k] - 2.0 * g[k] + g[2 * k]) / (2.0 * (k * h) ** 3)

    def d4(k):
        return (g[-2 * k] - 4.0 * g[-k] - 4.0 * g[k] + g[2 * k]) / (k * h) ** 4

    def rich(p, fine, coarse):
        return (2.0**p * fine - coarse) / (2.0**p - 1.0)

    return (
        rich(4, d1(1), d1(2)),
        rich(4, d2(1), d2(2)),
        rich(2, d3(1), d3(2)),
        rich(2, d4(1), d4(2)),
    )


def taylor_check(d: int, beta: float | None = None, h: float = 1e-3) -> dict:
    """Verify H', H'', H''' vanish at t = 1/2 and H'''' hits its closed form.

    Only valid exactly at the critical temperature; any other beta is
    rejected rather than silently producing nonzero low-order terms.
    """
    bc = critical_beta(d)
    if beta is None:
        beta = bc
    if beta != bc:
        raise ValueError(f"beta={beta!r} is not the critical value {bc!r} for d={d}")
    c = math.exp(-2.0 * beta)
    gvals, fvals = _increments(d, c, h)
    h1, h2, h3, h4 = _stencil_derivatives(gvals, h)
    f2, f4 = _stencil_derivatives(fvals, h)[1::2]

    t4 = -32.0 * (d - 1.0) * (d - 2.0) / (d * d)
    tf2 = 2.0 * (1.0 - c)
    tf4 = 24.0 * (1.0 - c) ** 2 - 8.0 * (1.0 - c) ** 3
    ok = (
        abs(h1) <= 1e-7
        and abs(h2) <= 1e-7
        and abs(h3) <= 1e-7
        and abs(h4 - t4) <= 1e-4 * abs(t4)
        and abs(f2 - tf2) <= 1e-7
        and abs(f4 - tf4) <= 1e-4 * abs(tf4)
    )
    return {
        "check": "taylor_expansion",
        "d": d,
        "grid": [h, 2.0 * h],
        "estimates": {"dH1": h1, "dH2": h2, "dH3": h3, "dH4": h4, "dF2": f2, "dF4": f4},
        "targets": {"dH1": 0.0, "dH2": 0.0, "dH3": 0.0, "dH4": t4, "dF2": tf2, "dF4": tf4},
        "tolerances": {"dH123_abs": 1e-7, "dH4_rel": 1e-4, "dF2_abs": 1e-7, "dF4_rel": 1e-4},
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# exponent fits


def _loglog_fit(grid: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    lx, ly = np.log(grid), np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), min(1.0, max(0.0, r2))


def fit_exponent_beta(d: int) -> ExponentFit:
    """Spontaneous magnetization onset: M ~ A (beta - beta_c)^{1/2}."""
    bc = critical_beta(d)
    grid = np.geomspace(1e-7, 1e-3, 8)
    vals = np.array([magnetization(ModelParams(d, bc + dl, 0.0)) for dl in grid])
    slope, r2 = _loglog_fit(grid, vals)
    amp = float(vals[0] / grid[0] ** 0.5)
    return ExponentFit(slope, amp, r2, tuple(grid), 0.5, d * math.sqrt(3.0 / (d - 1.0)))


def fit_exponent_delta(d: int) -> ExponentFit:
    """Critical isotherm: M(beta_c, B) ~ A B^{1/3}."""
    bc = critical_beta(d)
    grid = np.geomspace(1e-9, 1e-4, 8)
    vals = np.array([magnetization(ModelParams(d, bc, B)) for B in grid])
    slope, r2 = _loglog_fit(grid, vals)
    amp = float(vals[0] / grid[0] ** (1.0 / 3.0))
    target_amp = 2.0 * (3.0 * d * d / (8.0 * (d - 1.0) * (d - 2.0))) ** (1.0 / 3.0)
    return ExponentFit(slope, amp, r2, tuple(grid), 1.0 / 3.0, target_amp)


def fit_exponent_gamma(d: int, side: str) -> ExponentFit:
    """Susceptibility divergence chi ~ A |beta - beta_c|^{-1} on either side."""
    if side not in ("below", "above"):
        raise ValueError(f"side={side!r}: expected 'below' or 'above'")
    bc = critical_beta(d)
    grid = np.geomspace(1e-7, 1e-3, 8)
    sign = -1.0 if side == "below" else 1.0
    vals = np.array([susceptibility(ModelParams(d, bc + sign * dl, 0.0)) for dl in grid])
    slope, r2 = _loglog_fit(grid, vals)
    amp = float(vals[0] * grid[0])
    if side == "below":
        target_amp = 1.0 / (d - 2.0)
    else:
        target_amp = (d - 1.0) / ((d - 2.0) * (2.0 * d + 1.0))
    return ExponentFit(slope, amp, r2, tuple(grid), -1.0, target_amp)


def exponent_report(
    check: str,
    d: int,
    fit: ExponentFit,
    slope_tol: float = 0.02,
    amp_rel_tol: float = 0.05,
    r2_min: float = 0.9999,
) -> dict:
    """Wrap a fit as a report, keeping slope and amplitude verdicts separate."""
    slope_ok = abs(fit.exponent_estimate - fit.target_exponent) <= slope_tol and fit.r_squared >= r2_min
    amp_ok = True
    if fit.target_amplitude is not None:
        amp_ok = abs(fit.amplitude_estimate - fit.target_amplitude) <= amp_rel_tol * abs(fit.target_amplitude)
    return {
        "check": check,
        "d": d,
        "grid": list(fit.grid),
        "estimates": {
            "slope": fit.exponent_estimate,
            "amplitude": fit.amplitude_estimate,
            "r_squared": fit.r_squared,
        },
        "targets": {"slope": fit.target_exponent, "amplitude": fit.target_amplitude},
        "tolerances": {"slope_abs": slope_tol, "amplitude_rel": amp_rel_tol, "r_squared_min": r2_min},
        "exponent_pass": bool(slope_ok),
        "amplitude_pass": bool(amp_ok),
        "pass": bool(slope_ok and amp_ok),
    }


# ---------------------------------------------------------------------------
# specific-heat jump


def specific_heat_jump(d: int) -> dict:
    """One-sided limits of C at beta_c by linear extrapolation in the offset.

    C is analytic in the offset on each side, so the two finest offsets
    determine the limit to O(1e-9), far inside the 1e-3 comparison.
    """
    bc = critical_beta(d)
    deltas = (1e-3, 1e-4, 1e-5)
    below = [specific_heat(ModelParams(d, bc - dl, 0.0)) for dl in deltas]
    above = [specific_heat(ModelParams(d, bc + dl, 0.0)) for dl in deltas]

    d1, d2 = deltas[1], deltas[2]

    def extrap(v1, v2):
        return (d1 * v2 - d2 * v1) / (d1 - d2)

    below_limit = extrap(below[1], below[2])
    above_limit = extrap(above[1], above[2])
    jump = above_limit - below_limit

    c = (d - 2.0) / d
    below_target = 2.0 * d * c / (1.0 + c) ** 2  # = d^2 (d-2) / (2 (d-1)^2)
    jump_target = 3.0 * d * d * (d - 2.0) / (2.0 * d + 1.0)
    above_target = below_target + jump_target
    tol = 1e-3
    ok = (
        math.isfinite(below_limit)
        and math.isfinite(above_limit)
        and abs(below_limit - below_target) <= tol
        and abs(above_limit - above_target) <= tol
        and abs(jump - jump_target) <= tol
    )
    return {
        "check": "specific_heat_jump",
        "d": d,
        "grid": list(deltas),
        "estimates": {
            "below_limit": below_limit,
            "above_limit": above_limit,
            "jump": jump,
            "below_values": below,
            "above_values": above,
        },
        "targets": {"below_limit": below_target, "above_limit": above_target, "jump": jump_target},
        "tolerances": {"abs": tol},
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# scaling limit at finite n


def _ks_distance(law, limit: ScalingLimit) -> float:
    """sup-distance between the CDF of S/n^{3/4} and the quartic-law CDF.

    The model CDF is a step function on evenly spaced atoms. The limit CDF
    adds a 16-node panel per gap to half the mass outside all panels (the law
    is symmetric and normalised); both are compared at each side of every
    jump. The panels square their nodes twice in place for y^4, about ten
    times cheaper than ys**4 (libm pow) and within two ulps of it.
    """
    n = law.n
    atoms = (2.0 * np.arange(n + 1, dtype=np.float64) - n) / n**0.75
    cum = np.cumsum(law.masses)
    a = limit.quartic_coeff
    x16, w16 = _nodes(16)
    half = 1.0 / n**0.75  # half-width of each gap
    mids = 0.5 * (atoms[:-1] + atoms[1:])
    ys = mids[:, None] + half * x16[None, :]
    ys *= ys
    ys *= ys
    gaps = half * (np.exp(-a * ys) @ w16) / limit.normalizer
    anchor = 0.5 * (1.0 - gaps.sum())
    cdf = anchor + np.concatenate(([0.0], np.cumsum(gaps)))
    cum_prev = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(np.abs(cdf - cum)), np.max(np.abs(cdf - cum_prev))))


def scaling_limit_check(
    d: int,
    n_list: tuple[int, ...] = (500, 1000, 2000, 4000),
    cache_dir: str | None = None,
    rs: tuple[float, ...] = (0.5, 1.0, 2.0),
) -> dict:
    """Convergence of the rescaled spin law toward the quartic limit.

    Tracks E[(S/n^{3/4})^2], E[(S/n^{3/4})^4] (must approach the limit moment
    monotonically and land within 3% at the largest n), the KS distance
    (strictly decreasing), and the scaled mgf at the largest n (within 2% of
    the limit's moment-series values, `ScalingLimit.mgf`).
    """
    n_list = tuple(sorted(n_list))
    if len(n_list) < 2 or len(set(n_list)) != len(n_list):
        raise ValueError(f"n_list={n_list}: need at least two distinct sizes")
    limit = scaling_limit(d)
    bc = critical_beta(d)
    m2s, m4s, kss = [], [], []
    table = None
    for n in n_list:
        table = build_table(d, n, bc, cache_dir=cache_dir)
        law = spin_law(table, 0.0)
        m2s.append(law.moment(2) / n**1.5)
        m4s.append(law.moment(4) / n**3.0)
        kss.append(_ks_distance(law, limit))
    mgf_est = {r: mgf_scaled(table, r) for r in rs}
    mgf_target = {r: limit.mgf(r) for r in rs}

    gaps = [abs(m - limit.moment4) for m in m4s]
    m4_ok = gaps[-1] <= 0.03 * limit.moment4
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    ks_ok = all(kss[i + 1] < kss[i] for i in range(len(kss) - 1))
    mgf_ok = all(abs(mgf_est[r] - mgf_target[r]) <= 0.02 * abs(mgf_target[r]) for r in rs)
    return {
        "check": "scaling_limit",
        "d": d,
        "grid": list(n_list),
        "estimates": {
            "moment2": m2s,
            "moment4": m4s,
            "ks_distance": kss,
            "mgf": {r: mgf_est[r] for r in rs},
        },
        "targets": {
            "moment2": limit.moment2,
            "moment4": limit.moment4,
            "mgf": {r: mgf_target[r] for r in rs},
        },
        "tolerances": {"moment4_rel": 0.03, "mgf_rel": 0.02},
        "pass": bool(m4_ok and monotone and ks_ok and mgf_ok),
    }
