"""Critical-point diagnostics: Taylor coefficients, exponent fits, the
specific-heat jump, and the quartic scaling limit.

Everything here probes the neighborhood of beta_c = atanh(1/(d-1)) at B = 0,
where the maximizer of the variational problem bifurcates: the magnetization
onsets like (beta - beta_c)^{1/2}, the susceptibility diverges like
|beta - beta_c|^{-1} from both sides, the specific heat stays bounded with a
finite jump, and the total spin scaled by n^{3/4} converges to the quartic
law with density proportional to exp(-a x^4). `ScalingLimit` holds that law
as its coefficient, normalizer, second and fourth moments and mgf. The limit
rests on H', H'' and H''' vanishing at t = 1/2, beta_c with H'''' < 0; the
Taylor check measures all four by central stencils on the closed-form H' of
`thermo.dH_beta`.

Each check returns a JSON-ready dict shaped
{check, d, grid, estimates, targets, tolerances, pass}: `taylor_check`,
the four power-law fits of `exponent_checks` (which add separate
exponent_pass and amplitude_pass verdicts), `specific_heat_jump` and
`scaling_limit_check`. Each compares against constants written next to their formulas, and each
takes beta_c from `_critical_point`, which rejects d < 3.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .finiten import _distinct_sizes, _grid, spin_law
from .matching import log_g_table
from .quadrature import _nodes
from .thermo import ModelParams, _logf, critical_beta, dH_beta, thermo_point

__all__ = [
    "ScalingLimit",
    "scaling_limit",
    "taylor_check",
    "exponent_checks",
    "specific_heat_jump",
    "scaling_limit_check",
]


class ScalingLimit(NamedTuple):
    """The law with density exp(-a x^4) / normalizer on the real line.

    quartic_coeff a = (d-1)(d-2)/(12 d^2); normalizer is the total integral
    Gamma(1/4) / (2 a^{1/4}). moment2 and moment4 are E[X^2] and E[X^4],
    from E[X^{2m}] = Gamma((2m+1)/4)/Gamma(1/4) a^{-m/2}; odd moments vanish.
    """

    d: int
    quartic_coeff: float
    normalizer: float
    moment2: float
    moment4: float

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


def _critical_point(d: int) -> float:
    """beta_c = atanh(1/(d-1)), which is finite only for d >= 3."""
    if d < 3:
        raise ValueError(f"d={d}: the critical point needs d >= 3")
    return critical_beta(d)


def scaling_limit(d: int) -> ScalingLimit:
    """Limit law of S_n / n^{3/4} at (beta_c, B=0)."""
    _critical_point(d)
    a = (d - 1.0) * (d - 2.0) / (12.0 * d * d)
    return ScalingLimit(
        d=d,
        quartic_coeff=a,
        normalizer=math.gamma(0.25) / (2.0 * a**0.25),
        moment2=math.gamma(0.75) / math.gamma(0.25) / math.sqrt(a),
        moment4=0.25 / a,
    )


# ---------------------------------------------------------------------------
# Taylor coefficients of H at 1/2


# stencil step of taylor_check; 2h is the coarse step of each Richardson pair
_STEP = 1e-3


def _stencil_derivatives(g: dict[int, float], h: float) -> tuple[float, float, float, float]:
    """g and its first three derivatives at 0 from g[k] = g(kh), k in {+-1, +-2, +-4}.

    Each central stencil takes the points +-k, +-2k (k = 1, 2) and is
    Richardson-extrapolated from steps h and 2h; its error series runs in
    powers of h^2 from order 4, 4, 2, 2. The value at 0 is interpolated, not
    sampled, so every estimate is measured from both sides.
    """

    def d0(k):
        return (4.0 * (g[-k] + g[k]) - g[-2 * k] - g[2 * k]) / 6.0

    def d1(k):
        return (g[-2 * k] - 8.0 * g[-k] + 8.0 * g[k] - g[2 * k]) / (12.0 * k * h)

    def d2(k):
        return (g[-2 * k] - g[-k] - g[k] + g[2 * k]) / (3.0 * (k * h) ** 2)

    def d3(k):
        return (-g[-2 * k] + 2.0 * g[-k] - 2.0 * g[k] + g[2 * k]) / (2.0 * (k * h) ** 3)

    def rich(p, fine, coarse):
        return (2.0**p * fine - coarse) / (2.0**p - 1.0)

    return (
        rich(4, d0(1), d0(2)),
        rich(4, d1(1), d1(2)),
        rich(2, d2(1), d2(2)),
        rich(2, d3(1), d3(2)),
    )


def taylor_check(d: int) -> dict:
    """Verify H', H'', H''' vanish at t = 1/2 and H'''' hits its closed form.

    The expansion is taken at beta_c(d), the one temperature at which the
    low-order terms vanish. The stencils sample the closed-form H'
    (`thermo.dH_beta`) on both sides of 1/2, and, for the F part alone,
    F' = log f below 1/2, mirrored to -log f(1 - t) above. At the samples H' is
    ~1e-9 while each of its two terms is ~4e-3, so a sample's rounding is
    ~1e-18 and moves the H'''' estimate by ~1e-9.
    """
    h = _STEP
    beta = _critical_point(d)
    c = math.exp(-2.0 * beta)
    dh, df = {}, {}
    for k in (1, 2, 4):
        dh[-k], dh[k] = dH_beta(0.5 - k * h, d, beta), dH_beta(0.5 + k * h, d, beta)
        df[-k] = _logf(0.5 - k * h, c)
        df[k] = -df[-k]
    h1, h2, h3, h4 = _stencil_derivatives(dh, h)
    f2, f4 = _stencil_derivatives(df, h)[1::2]

    t4 = -32.0 * (d - 1.0) * (d - 2.0) / (d * d)
    tf2 = 2.0 * (1.0 - c)
    tf4 = 24.0 * (1.0 - c) ** 2 - 8.0 * (1.0 - c) ** 3
    tol = {"dH123_abs": 1e-7, "dH4_rel": 1e-4, "dF2_abs": 1e-7, "dF4_rel": 1e-4}
    ok = (
        abs(h1) <= tol["dH123_abs"]
        and abs(h2) <= tol["dH123_abs"]
        and abs(h3) <= tol["dH123_abs"]
        and abs(h4 - t4) <= tol["dH4_rel"] * abs(t4)
        and abs(f2 - tf2) <= tol["dF2_abs"]
        and abs(f4 - tf4) <= tol["dF4_rel"] * abs(tf4)
    )
    return {
        "check": "taylor_expansion",
        "d": d,
        "grid": [h, 2.0 * h],
        "estimates": {"dH1": h1, "dH2": h2, "dH3": h3, "dH4": h4, "dF2": f2, "dF4": f4},
        "targets": {"dH1": 0.0, "dH2": 0.0, "dH3": 0.0, "dH4": t4, "dF2": tf2, "dF4": tf4},
        "tolerances": tol,
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# exponent fits


def _power_law_report(
    check: str, d: int, grid: np.ndarray, vals: np.ndarray, amp: float, slope_target: float, amp_target: float
) -> dict:
    """Fit log vals against log grid; the slope and the amplitude amp get separate verdicts.

    The least-squares slope and r^2 in closed form on the centred logs cx, cy."""
    cx, cy = np.log(grid), np.log(vals)
    cx, cy = cx - cx.mean(), cy - cy.mean()
    sxx, sxy, syy = float(cx @ cx), float(cx @ cy), float(cy @ cy)
    slope = sxy / sxx
    r2 = min(1.0, 1.0 if syy == 0.0 else sxy * sxy / (sxx * syy))
    slope_tol, amp_rel_tol, r2_min = 0.02, 0.05, 0.9999
    slope_ok = abs(slope - slope_target) <= slope_tol and r2 >= r2_min
    amp_ok = abs(amp - amp_target) <= amp_rel_tol * abs(amp_target)
    return {
        "check": check,
        "d": d,
        "grid": grid.tolist(),
        "estimates": {"slope": slope, "amplitude": amp, "r_squared": r2},
        "targets": {"slope": slope_target, "amplitude": amp_target},
        "tolerances": {"slope_abs": slope_tol, "amplitude_rel": amp_rel_tol, "r_squared_min": r2_min},
        "exponent_pass": bool(slope_ok),
        "amplitude_pass": bool(amp_ok),
        "pass": bool(slope_ok and amp_ok),
    }


# thermo_point gets each point as a Python float (.tolist()): the same bits as
# the numpy scalar, without numpy-scalar arithmetic in the solve
_OFFSETS = np.geomspace(1e-7, 1e-3, 8)  # |beta - beta_c| of the beta and gamma fits
_FIELDS = np.geomspace(1e-9, 1e-4, 8)  # B of the delta fit
_OFFSETS.flags.writeable = _FIELDS.flags.writeable = False


def exponent_checks(d: int) -> list[dict]:
    """The `exponents` verify suite: beta, delta, and gamma from below and above.

    Four power laws, each fitted on eight points near beta_c: the spontaneous
    magnetization onset M ~ A (beta - beta_c)^{1/2}, the critical isotherm
    M(beta_c, B) ~ A B^{1/3}, and the susceptibility divergence
    chi ~ A |beta - beta_c|^{-1} from below and from above. Each (beta, B)
    point is solved once, 24 in all: the points above beta_c give both the M
    of the beta fit and the chi of the gamma fit above.
    """
    bc = _critical_point(d)
    above = [thermo_point(ModelParams(d, bc + dl, 0.0)) for dl in _OFFSETS.tolist()]
    m_above, chi_above = np.array([p.M for p in above]), np.array([p.chi for p in above])
    chi_below = np.array([thermo_point(ModelParams(d, bc - dl, 0.0)).chi for dl in _OFFSETS.tolist()])
    m_iso = np.array([thermo_point(ModelParams(d, bc, B)).M for B in _FIELDS.tolist()])
    beta_amp = d * math.sqrt(3.0 / (d - 1.0))
    delta_amp = 2.0 * (3.0 * d * d / (8.0 * (d - 1.0) * (d - 2.0))) ** (1.0 / 3.0)
    below_amp, above_amp = 1.0 / (d - 2.0), (d - 1.0) / ((d - 2.0) * (2.0 * d + 1.0))
    return [
        _power_law_report(
            "exponent_beta", d, _OFFSETS, m_above, float(m_above[0] / _OFFSETS[0] ** 0.5), 0.5, beta_amp
        ),
        _power_law_report(
            "exponent_delta", d, _FIELDS, m_iso, float(m_iso[0] / _FIELDS[0] ** (1.0 / 3.0)), 1.0 / 3.0, delta_amp
        ),
        _power_law_report(
            "exponent_gamma_below", d, _OFFSETS, chi_below, float(chi_below[0] * _OFFSETS[0]), -1.0, below_amp
        ),
        _power_law_report(
            "exponent_gamma_above", d, _OFFSETS, chi_above, float(chi_above[0] * _OFFSETS[0]), -1.0, above_amp
        ),
    ]


# ---------------------------------------------------------------------------
# specific-heat jump


def specific_heat_jump(d: int) -> dict:
    """One-sided limits of C at beta_c by linear extrapolation in the offset.

    C is analytic in the offset on each side, so the two finest offsets
    determine the limit to O(1e-9), far inside the 1e-3 comparison.
    """
    bc = _critical_point(d)
    deltas = (1e-3, 1e-4, 1e-5)
    below = [thermo_point(ModelParams(d, bc - dl, 0.0)).C for dl in deltas]
    above = [thermo_point(ModelParams(d, bc + dl, 0.0)).C for dl in deltas]

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
    adds a 6-node panel per gap to half the mass outside all panels (the law
    is symmetric and normalised); both are compared at each side of every
    jump. A panel of width w errs by w^13 (6!)^4 / (13 (12!)^3) max|f^(12)|,
    with |f^(12)| < 1.2e6 for d <= 8: summed over the gaps, under 6e-17 for
    n >= 16 (1e-11 at n = 4), below the cumsum's rounding. The panels square
    their nodes twice in place for y^4, about ten times cheaper than ys**4
    (libm pow) and within two ulps of it.

    Only the panels of the gaps left of 0 (and the middle gap at odd n) are
    evaluated; the rest are their mirror images. The atoms s/n^{3/4} are
    exactly antisymmetric (s = 2j - n is), and the leggauss nodes and
    weights exactly symmetric, so gap n-1-k evaluates its integrand at the
    negated nodes of gap k, in reverse order: the same six values with the
    same weights. Mirroring moves only the order of each 6-term sum of
    positive terms, so a gap moves by a few ulps at most.
    """
    n = law.n
    atoms = _grid(n)[1] / n**0.75
    cum = np.cumsum(law.masses)
    a = limit.quartic_coeff
    x6, w6 = _nodes(6)
    half = 1.0 / n**0.75  # half-width of each gap
    left = (n + 1) // 2  # gaps 0..left-1 lie left of 0 or straddle it
    mids = 0.5 * (atoms[:left] + atoms[1 : left + 1])
    ys = mids[:, None] + half * x6[None, :]
    ys *= ys
    ys *= ys
    gaps = half * (np.exp(-a * ys) @ w6) / limit.normalizer
    gaps = np.concatenate((gaps, gaps[: n - left][::-1]))
    anchor = 0.5 * (1.0 - gaps.sum())
    cdf = anchor + np.concatenate(([0.0], np.cumsum(gaps)))
    cum_prev = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.abs(cdf - cum).max(), np.abs(cdf - cum_prev).max()))


def scaling_limit_check(
    d: int,
    n_list: tuple[int, ...] = (500, 1000, 2000, 4000),
    cache_dir: str | None = None,
) -> dict:
    """Convergence of the rescaled spin law toward the quartic limit.

    Tracks E[(S/n^{3/4})^2], E[(S/n^{3/4})^4] (must approach the limit moment
    monotonically and land within 3% at the largest n), the KS distance
    (strictly decreasing), and the scaled mgf E[e^{r S/n^{3/4}}] =
    law.mgf(r / n^{3/4}) at the largest n (within 2% of the limit's
    moment-series values, `ScalingLimit.mgf`).
    """
    n_list = _distinct_sizes(n_list)
    rs = (0.5, 1.0, 2.0)
    bc = _critical_point(d)
    limit = scaling_limit(d)
    m2s, m4s, kss = [], [], []
    for n in n_list:
        law = spin_law(log_g_table(d, n, bc, cache_dir=cache_dir), 0.0)
        m2s.append(law.moment(2) / n**1.5)
        m4s.append(law.moment(4) / n**3.0)
        kss.append(_ks_distance(law, limit))
    mgf_est = {r: law.mgf(r / law.n**0.75) for r in rs}  # the law at the largest n
    mgf_target = {r: limit.mgf(r) for r in rs}

    tol = {"moment4_rel": 0.03, "mgf_rel": 0.02}
    gaps = [abs(m - limit.moment4) for m in m4s]
    m4_ok = gaps[-1] <= tol["moment4_rel"] * limit.moment4
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    ks_ok = all(kss[i + 1] < kss[i] for i in range(len(kss) - 1))
    mgf_ok = all(abs(mgf_est[r] - mgf_target[r]) <= tol["mgf_rel"] * abs(mgf_target[r]) for r in rs)
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
        "tolerances": tol,
        "pass": bool(m4_ok and monotone and ks_ok and mgf_ok),
    }
