"""Taylor expansion, exponent fits, the heat jump, and the quartic limit."""

import math

import numpy as np
import pytest

from annealed_ising import (
    ScalingLimit,
    critical_beta,
    exponent_report,
    fit_exponent_beta,
    fit_exponent_delta,
    fit_exponent_gamma,
    scaling_limit,
    scaling_limit_check,
    specific_heat_jump,
    spin_law,
    taylor_check,
)
from annealed_ising.criticality import _ks_distance
from annealed_ising.quadrature import adaptive_quad

BC3 = critical_beta(3)


# ---------------------------------------------------------------------------
# the quartic limit law


def test_scaling_limit_identities():
    lim = scaling_limit(3)
    assert isinstance(lim, ScalingLimit)
    assert lim.quartic_coeff == (3.0 - 1.0) * (3.0 - 2.0) / (12.0 * 9.0)
    assert lim.alpha_star / 16.0 + lim.quartic_coeff == 0.0  # exact, by construction
    a = lim.quartic_coeff
    assert lim.normalizer == pytest.approx(math.gamma(0.25) / (2.0 * a**0.25), rel=1e-13)
    assert lim.moment2 == pytest.approx(
        math.gamma(0.75) / (math.gamma(0.25) * math.sqrt(a)), rel=1e-13
    )
    assert lim.moment4 == pytest.approx(1.0 / (4.0 * a), rel=1e-14)
    assert lim.moment4 == pytest.approx(13.5, rel=1e-14)
    with pytest.raises(ValueError):
        scaling_limit(2)


def test_scaling_limit_density_and_moments():
    lim = scaling_limit(3)
    a = lim.quartic_coeff
    L = (60.0 / a) ** 0.25
    assert adaptive_quad(lim.density, -L, L, tol=1e-12) == pytest.approx(1.0, rel=1e-10)
    assert adaptive_quad(lambda y: y**2 * lim.density(y), -L, L, tol=1e-12) == pytest.approx(
        lim.moment2, rel=1e-9
    )
    assert lim.moment(1) == 0.0 and lim.moment(3) == 0.0
    assert lim.moment(2) == pytest.approx(lim.moment2, rel=1e-14)
    assert lim.moment(4) == pytest.approx(lim.moment4, rel=1e-14)


def test_scaling_limit_mgf_values():
    lim = scaling_limit(3)
    assert lim.mgf(0.0) == 1.0
    assert lim.mgf(1.0) == pytest.approx(lim.mgf(-1.0), rel=1e-12)
    # frozen quadrature values for d=3
    assert lim.mgf(0.5) == pytest.approx(1.347893, rel=2e-6)
    assert lim.mgf(1.0) == pytest.approx(2.969528, rel=2e-6)
    assert lim.mgf(2.0) == pytest.approx(33.663694, rel=2e-6)
    # small-r expansion: 1 + r^2 m2/2 + r^4 m4/24 + ...
    r = 1e-2
    expect = 1.0 + r * r * lim.moment2 / 2.0 + r**4 * lim.moment4 / 24.0
    assert lim.mgf(r) == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_scaling_limit_mgf_rejects_a_non_finite_r(r):
    # nan fails every comparison, so it must be caught before the series runs
    with pytest.raises(ValueError):
        scaling_limit(3).mgf(r)


def _gl_mgf(a, r, panels=200, npts=32):
    """E[exp(rX)] under exp(-a x^4) by composite Gauss-Legendre on [-L, L].

    Each integrand is divided by its peak value exp(max_y (-a y^4 + r y)),
    so both integrals stay O(1) at any r and the peak returns as one factor.
    L puts both integrands below 1e-34 of their peaks at the ends (asserted).
    """
    x, w = np.polynomial.legendre.leggauss(npts)
    y0 = math.copysign((abs(r) / (4.0 * a)) ** (1.0 / 3.0), r)
    top = -a * y0**4 + r * y0
    L = abs(y0) + (100.0 / a) ** 0.25
    edges = np.linspace(-L, L, panels + 1)
    half = 0.5 * np.diff(edges)
    ys = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x[None, :]

    def integral(rr, peak):
        vals = np.exp(-a * ys**4 + rr * ys - peak)
        assert vals[0, 0] < 1e-34 and vals[-1, -1] < 1e-34
        return float(np.sum(half * (vals @ w)))

    return math.exp(top) * integral(r, top) / integral(0.0, 0.0)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("r", [-3.5, 3.5, 5.0, 10.0])
def test_scaling_limit_mgf_at_large_r(d, r):
    """mgf holds to 1e-12 relative over the range |r| <= 10 that mgf_scaled
    accepts, where it grows to ~1e16 at d=3 and r=10."""
    lim = scaling_limit(d)
    assert lim.mgf(r) == pytest.approx(_gl_mgf(lim.quartic_coeff, r), rel=1e-12)


# ---------------------------------------------------------------------------
# Taylor structure of H at the critical temperature


@pytest.mark.parametrize("d", [3, 4, 5])
def test_taylor_check_passes(d):
    rep = taylor_check(d)
    assert rep["pass"] is True
    est, tgt = rep["estimates"], rep["targets"]
    assert tgt["dH4"] == -32.0 * (d - 1.0) * (d - 2.0) / (d * d)
    assert est["dH4"] == pytest.approx(tgt["dH4"], rel=1e-4)
    assert abs(est["dH1"]) <= 1e-7 and abs(est["dH2"]) <= 1e-7 and abs(est["dH3"]) <= 1e-7
    assert est["dF2"] == pytest.approx(tgt["dF2"], abs=1e-7)
    assert est["dF4"] == pytest.approx(tgt["dF4"], rel=1e-4)


def test_taylor_check_rejects_noncritical_beta():
    with pytest.raises(ValueError):
        taylor_check(3, beta=0.5)


# ---------------------------------------------------------------------------
# exponent fits (d = 3); slopes and the three amplitudes with closed forms


def test_magnetization_onset_fit():
    fit = fit_exponent_beta(3)
    assert fit.exponent_estimate == pytest.approx(0.5, abs=0.02)
    assert fit.r_squared >= 0.9999
    assert fit.target_amplitude == pytest.approx(3.0 * math.sqrt(1.5), rel=1e-15)
    assert fit.amplitude_estimate == pytest.approx(fit.target_amplitude, rel=1e-4)


def test_critical_isotherm_fit():
    fit = fit_exponent_delta(3)
    assert fit.exponent_estimate == pytest.approx(1.0 / 3.0, abs=0.02)
    assert fit.r_squared >= 0.9999
    assert fit.target_amplitude == pytest.approx(2.0 * (27.0 / 16.0) ** (1.0 / 3.0), rel=1e-15)
    assert fit.amplitude_estimate == pytest.approx(fit.target_amplitude, rel=1e-4)


def test_susceptibility_fit_below():
    fit = fit_exponent_gamma(3, "below")
    assert fit.exponent_estimate == pytest.approx(-1.0, abs=0.02)
    assert fit.r_squared >= 0.9999
    assert fit.target_amplitude == 1.0
    assert fit.amplitude_estimate == pytest.approx(1.0, rel=1e-3)


def test_susceptibility_fit_above():
    fit = fit_exponent_gamma(3, "above")
    assert fit.exponent_estimate == pytest.approx(-1.0, abs=0.02)
    assert fit.r_squared >= 0.9999
    # the computed one-sided amplitude is 1/(2(d-2)); the 2/7 target the
    # report carries does not match it, and the report says so
    assert fit.amplitude_estimate == pytest.approx(0.5, rel=1e-3)
    rep = exponent_report("exponent_gamma_above", 3, fit)
    assert rep["exponent_pass"] is True
    assert rep["amplitude_pass"] is False
    assert rep["pass"] is False
    with pytest.raises(ValueError):
        fit_exponent_gamma(3, "sideways")


def test_exponent_report_structure():
    rep = exponent_report("exponent_beta", 3, fit_exponent_beta(3))
    assert rep["pass"] is True and rep["exponent_pass"] is True and rep["amplitude_pass"] is True
    for key in ("check", "d", "grid", "estimates", "targets", "tolerances"):
        assert key in rep


# ---------------------------------------------------------------------------
# specific-heat limits at the critical temperature


@pytest.mark.parametrize(
    "d,jump_true",
    [(3, 6.75), (4, 16.0), (5, 28.125)],  # 3 d^2 (d-2) / (2 (d-1))
)
def test_heat_limits_measured_values(d, jump_true):
    rep = specific_heat_jump(d)
    est = rep["estimates"]
    below_true = d * d * (d - 2.0) / (2.0 * (d - 1.0) ** 2)
    assert math.isfinite(est["below_limit"]) and math.isfinite(est["above_limit"])
    assert est["below_limit"] == pytest.approx(below_true, abs=1e-3)
    assert est["jump"] == pytest.approx(jump_true, abs=1e-3)
    assert est["above_limit"] == pytest.approx(below_true + jump_true, abs=2e-3)
    # shrinking the offset tightens both one-sided values toward their limits
    assert abs(est["below_values"][2] - below_true) < abs(est["below_values"][0] - below_true)
    assert abs(est["above_values"][2] - (below_true + jump_true)) < abs(
        est["above_values"][0] - (below_true + jump_true)
    )
    # the report's jump target is 3d^2(d-2)/(2d+1), which the computed jump
    # does not meet; the report records the failure
    assert rep["targets"]["jump"] == 3.0 * d * d * (d - 2.0) / (2.0 * d + 1.0)
    assert rep["pass"] is False


# ---------------------------------------------------------------------------
# convergence toward the quartic law


def test_scaling_check_small_sizes(cache_dir):
    rep = scaling_limit_check(3, n_list=(250, 500), cache_dir=cache_dir)
    est = rep["estimates"]
    assert rep["grid"] == [250, 500]
    assert est["moment4"][0] < est["moment4"][1] < rep["targets"]["moment4"]
    assert est["ks_distance"][1] < est["ks_distance"][0]
    assert est["moment2"][1] < rep["targets"]["moment2"]
    # at these sizes the transform is still ~5-20% off: the check reports red
    assert rep["pass"] is False
    for r in (0.5, 1.0, 2.0):
        assert est["mgf"][r] < rep["targets"]["mgf"][r]


def test_scaling_check_rejects_degenerate_grid(cache_dir):
    with pytest.raises(ValueError):
        scaling_limit_check(3, n_list=(500,), cache_dir=cache_dir)
    with pytest.raises(ValueError):
        scaling_limit_check(3, n_list=(500, 500), cache_dir=cache_dir)


def _reg_lower_gamma(s, z):
    """P(s, z) = gamma(s, z) / Gamma(s) for s > 0, z >= 0.

    For z < s + 1 the positive-term series z^s e^-z / Gamma(s) * sum_k z^k /
    (s (s+1) ... (s+k)); beyond, 1 - Q with Q from its continued fraction
    (modified Lentz), which converges fast there.
    """
    if z == 0.0:
        return 0.0
    lead = math.exp(s * math.log(z) - z - math.lgamma(s))
    if z < s + 1.0:
        term = total = 1.0 / s
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= z / (s + k)
            total += term
        return lead * total
    tiny = 1e-300
    b = z + 1.0 - s
    c, dd = 1.0 / tiny, 1.0 / b
    h = dd
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        dd = an * dd + b
        dd = 1.0 / (dd if abs(dd) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= dd * c
        if abs(dd * c - 1.0) < 1e-16:
            return 1.0 - lead * h
    raise AssertionError(f"continued fraction for Q({s}, {z}) did not converge")


def test_incomplete_gamma_oracle_reproduces_erf():
    # P(1/2, z) = erf(sqrt z): checks both branches of the oracle below
    for z in (1e-8, 0.01, 0.3, 1.0, 1.49, 1.51, 2.0, 5.0, 12.0, 40.0):
        assert abs(_reg_lower_gamma(0.5, z) - math.erf(math.sqrt(z))) <= 4e-16


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in (250, 1000, 4000) for d in (3, 4, 5)] + [(1001, 4)]  # odd n too
)
def test_ks_distance_against_the_closed_form_cdf(get_table, d, n):
    # the quartic-law CDF in closed form: F(x) = 1/2 +- P(1/4, a x^4) / 2
    lim = scaling_limit(d)
    a = lim.quartic_coeff
    law = spin_law(get_table(d, n, critical_beta(d)), 0.0)
    cum = np.cumsum(law.masses)
    cum_prev = np.concatenate(([0.0], cum[:-1]))
    xs = (2.0 * np.arange(n + 1) - n) / n**0.75
    half_p = [0.5 * _reg_lower_gamma(0.25, a * x**4) for x in xs.tolist()]
    cdf = np.array([0.5 + p if x >= 0.0 else 0.5 - p for x, p in zip(xs.tolist(), half_p)])
    oracle = max(np.max(np.abs(cdf - cum)), np.max(np.abs(cdf - cum_prev)))
    assert abs(_ks_distance(law, lim) - oracle) <= 1e-12
