"""Limit pressure, stationary points, and response functions."""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from annealed_ising import (
    F_beta,
    H_beta,
    ModelParams,
    RootBracketError,
    ThermoPoint,
    critical_beta,
    dH_beta,
    thermo_point,
)
from annealed_ising.thermo import T_GUARD, _logf, _tanh_pair
from gauss_legendre import adaptive_quad, fixed_quad

BC3 = critical_beta(3)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _sign_change_near(s, d, beta, B):
    """dH + 2B changes sign within four ulps of the offset s = t - 1/2."""
    window = [s]
    for _ in range(4):
        window.insert(0, math.nextafter(window[0], 0.0))
        window.append(math.nextafter(window[-1], 1.0))
    vals = [dH_beta(0.5 + w, d, beta) + 2.0 * B for w in window]
    return min(vals) < 0.0 < max(vals)


def _golden_section_pressure(d, beta, B):
    """beta d/2 - B + max of H + 2Bt over [1/2, 1 - 1e-12], by golden section.

    H + 2Bt is unimodal there for B >= 0, so no root finding is involved.
    """
    a, b = 0.5, 1.0 - 1e-12
    L = lambda t: H_beta(t, d, beta) + 2.0 * B * t  # noqa: E731
    c, e = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fe = L(c), L(e)
    best = max(fc, fe)
    while b - a > 1e-13:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - _INVPHI * (b - a)
            fc = L(c)
            best = max(best, fc)
        else:
            a, c, fc = c, e, fe
            e = a + _INVPHI * (b - a)
            fe = L(e)
            best = max(best, fe)
    return beta * d / 2.0 - B + best


# ---------------------------------------------------------------------------
# parameters and the critical temperature


def test_params_validation():
    ModelParams(3, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^d=1: need an integer >= 2$"):
        ModelParams(1, 0.5)
    with pytest.raises(ValueError, match=r"^d=2.5: need an integer >= 2$"):
        ModelParams(2.5, 0.5)
    with pytest.raises(ValueError, match=r"^beta=-0.1: need a finite beta >= 0$"):
        ModelParams(3, -0.1)
    with pytest.raises(ValueError, match=r"^B=-1.0: need a finite B >= 0; flip spins for B < 0$"):
        ModelParams(3, 0.5, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^beta={bad}: need a finite beta >= 0$"):
            ModelParams(3, bad)
        with pytest.raises(ValueError, match=rf"^B={bad}: need a finite B >= 0"):
            ModelParams(3, 0.5, bad)


def test_params_and_points_are_read_only_records():
    p = ModelParams(3, 0.5)
    assert (p.d, p.beta, p.B) == (3, 0.5, 0.0) and p == ModelParams(3, 0.5, 0.0)
    tp = thermo_point(p)
    for rec, field in [(p, "d"), (p, "beta"), (p, "B"), *((tp, f) for f in ThermoPoint._fields)]:
        with pytest.raises(AttributeError):
            setattr(rec, field, 1.0)
    with pytest.raises(AttributeError):
        p.extra = 1  # no instance dict either
    assert p._replace(B=0.25) == ModelParams(3, 0.5, 0.25)
    with pytest.raises(ValueError, match=r"^B=-1.0: "):
        p._replace(B=-1.0)  # a replaced field is checked like a new one


def test_critical_beta_values():
    assert critical_beta(3) == 0.5493061443340549
    assert critical_beta(4) == 0.34657359027997264
    assert critical_beta(5) == 0.25541281188299536
    assert critical_beta(2) == math.inf
    with pytest.raises(ValueError):
        critical_beta(1)
    for d in (3, 4, 5):
        assert critical_beta(d) == 0.5 * math.log(d / (d - 2.0))
        # atanh(1/(d-1)) is the same number up to one ulp of route difference
        assert critical_beta(d) == pytest.approx(math.atanh(1.0 / (d - 1.0)), rel=1e-15)
        # the weight at criticality is the rational (d-2)/d on the nose
        assert math.exp(-2.0 * critical_beta(d)) == (d - 2.0) / d


# ---------------------------------------------------------------------------
# f, F, H and derivatives


def _f(s: float, c: float) -> float:
    """f(s) for s in [0, 1/2]; c = exp(-2 beta). No domain check."""
    u = 1.0 - 2.0 * s
    return (c * u + math.sqrt(1.0 + (c * c - 1.0) * u * u)) / (2.0 - 2.0 * s)


def d2H_beta(t: float, d: int, beta: float) -> float:
    """Closed-form d^2H/dt^2; written for t in [1/2, 1), extended by symmetry.

    -P/Q with theta2 = f(1-t); Q > 0 on (0, 1) for beta >= 0, so a vanishing
    Q is a hard error rather than a value.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t={t}: endpoint is singular, domain is (0, 1)")
    tt = max(t, 1.0 - t)
    c = math.exp(-2.0 * beta)
    th2 = _f(1.0 - tt, c)
    one_m = 1.0 - tt
    P = d * one_m * (c * th2 - 1.0) + c * (2.0 * tt - 1.0) * th2 + 2.0 * one_m
    Q = tt * one_m * (c * (2.0 * tt - 1.0) * th2 + 2.0 * one_m)
    if Q == 0.0:
        raise ArithmeticError(f"curvature denominator vanished at t={t}, beta={beta}")
    return -P / Q


def test_f_endpoints_and_domain():
    for beta in (0.0, 0.3, 1.1):
        c = math.exp(-2.0 * beta)
        assert _logf(0.5, c) == 0.0
        assert _logf(0.0, c) == pytest.approx(-2.0 * beta, abs=1e-15)
    assert _logf(0.2, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_F_symmetry_sign_and_derivative():
    beta = 0.5
    assert F_beta(0.0, beta) == 0.0
    assert F_beta(1.0, beta) == 0.0
    # F(t) == F(1 - t) bitwise wherever 1 - t is exact, which holds for every
    # float t in [1/2, 1] (Sterbenz): both sides then evaluate at one tau.
    for t in (0.625, 0.7, 0.9):
        assert F_beta(t, beta) == F_beta(1.0 - t, beta)
    # The literal 0.3 is not the mirror of the float 0.7 (1 - 0.7 is
    # 0.30000000000000004 in binary64), so this pair evaluates at taus one ulp
    # apart and may differ by a few ulp of F.
    assert F_beta(0.3, beta) == pytest.approx(F_beta(0.7, beta), rel=0.0, abs=1e-15)
    assert F_beta(0.3, 0.0) == 0.0
    # log f < 0 below 1/2, so F decreases toward t = 1/2
    assert F_beta(0.25, beta) < F_beta(0.1, beta) < 0.0
    h = 1e-6
    fd = (F_beta(0.3 + h, beta) - F_beta(0.3 - h, beta)) / (2.0 * h)
    assert fd == pytest.approx(_logf(0.3, math.exp(-2.0 * beta)), abs=1e-9)


def _F_graded(t, beta):
    """F by 32-node Gauss-Legendre panels graded toward s = 0.

    The panels are [0, tau 2^-60] and [tau 2^-k-1, tau 2^-k] for k = 0..59,
    and log f is written directly from s, not in the package's closed form.
    The branch point of log f sits about c^2/4 below s = 0, so the panels
    shrink toward it geometrically.
    """
    tau = min(t, 1.0 - t)
    c = math.exp(-2.0 * beta)

    def logf(s):
        rad = np.sqrt(c * c + (1.0 - c * c) * 4.0 * s * (1.0 - s))
        return np.log(c * (1.0 - 2.0 * s) + rad) - np.log(2.0 - 2.0 * s)

    edges = [0.0] + [tau * 2.0**-k for k in range(60, -1, -1)]
    return math.fsum(fixed_quad(logf, a, b, 32) for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("beta", [1e-6, 0.01, 0.3, BC3, 1.5, 3.0, 5.0, 8.0, 12.0, 50.0, 300.0])
def test_F_closed_form_matches_graded_quadrature(beta):
    for t in (1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.49, 0.5, 0.999):
        assert F_beta(t, beta) == pytest.approx(_F_graded(t, beta), rel=0.0, abs=1e-15), t
    c = math.exp(-2.0 * beta)
    assert F_beta(0.5, beta) == pytest.approx(0.5 * math.log((1.0 + c) / 2.0), rel=0.0, abs=1e-16)


def test_F_and_H_are_finite_for_every_finite_beta():
    tiny = 5e-324
    for beta in (0.0, 1e-300, 1e-8, 372.0, 400.0, 1e300, 1.7976931348623157e308):
        for t in (tiny, 1e-300, 1e-12, 0.25, 0.5, 0.75, 1.0 - 2.0**-53):
            assert math.isfinite(F_beta(t, beta)), (beta, t)
            assert math.isfinite(H_beta(t, 3, beta)), (beta, t)
        assert F_beta(0.0, beta) == F_beta(1.0, beta) == 0.0


@pytest.mark.parametrize(
    "d, beta, B",
    [(3, 4.0, 0.0), (3, 4.0, 0.3), (3, 4.5, 0.0), (3, 4.5, 0.3), (3, 5.0, 0.0), (3, 5.0, 0.3), (4, 4.0, 0.0)],
)
def test_variational_form_reaches_the_deep_ordered_phase(d, beta, B):
    """Golden section over H + 2Bt still gives the fixed point's psi at beta >= 4.

    There c = e^{-2 beta} is below 4e-4 and log f turns within about c^2 of
    s = 0, too sharply for an adaptive quadrature of F to converge; the
    closed form has no such limit.
    """
    psi = thermo_point(ModelParams(d, beta, B)).psi
    assert psi == pytest.approx(_golden_section_pressure(d, beta, B), rel=0.0, abs=1e-10)


def test_H_symmetry_and_endpoints():
    assert H_beta(0.5, 3, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    for t in (0.15, 0.4):
        # the entropy term takes different log routes on the two sides
        assert H_beta(t, 3, 0.6) == pytest.approx(H_beta(1.0 - t, 3, 0.6), rel=1e-13)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            H_beta(bad, 3, 0.6)
        with pytest.raises(ValueError):
            dH_beta(bad, 3, 0.6)
        with pytest.raises(ValueError):
            d2H_beta(bad, 3, 0.6)


def test_dH_odd_and_matches_difference_quotient():
    d, beta = 3, 0.45
    assert dH_beta(0.5, d, beta) == 0.0
    for t in (0.31, 0.62, 0.9):
        assert dH_beta(t, d, beta) == pytest.approx(-dH_beta(1.0 - t, d, beta), abs=1e-13)
        h = 1e-5
        fd = (H_beta(t + h, d, beta) - H_beta(t - h, d, beta)) / (2.0 * h)
        assert dH_beta(t, d, beta) == pytest.approx(fd, abs=1e-8)


def test_d2H_closed_form_values():
    # at t = 1/2 the curvature is -4 + 2d(1-c); beta=0 gives exactly -4,
    # and at the critical temperature it vanishes
    assert d2H_beta(0.5, 3, 0.0) == -4.0
    for d in (3, 4, 5):
        assert d2H_beta(0.5, d, critical_beta(d)) == pytest.approx(0.0, abs=1e-14)
        assert d2H_beta(0.5, d, 0.3) == pytest.approx(
            -4.0 + 2.0 * d * (1.0 - math.exp(-0.6)), rel=1e-14
        )
    for t in (0.3, 0.7):
        h = 1e-4
        fd = (H_beta(t + h, 3, 0.4) - 2.0 * H_beta(t, 3, 0.4) + H_beta(t - h, 3, 0.4)) / h**2
        assert d2H_beta(t, 3, 0.4) == pytest.approx(fd, rel=1e-5)
        assert d2H_beta(t, 3, 0.4) == d2H_beta(1.0 - t, 3, 0.4)


# ---------------------------------------------------------------------------
# stationary points


def test_field_root_small_B_linear_response():
    d, beta = 3, 0.3
    chi0 = thermo_point(ModelParams(d, beta, 0.0)).chi
    for B in (1e-9, 1e-6, 1e-3):
        pt = thermo_point(ModelParams(d, beta, B))
        assert pt.residual <= 1e-12
        assert 0.5 < pt.t_hat < 1.0
        assert (2.0 * pt.t_hat - 1.0) / B == pytest.approx(chi0, rel=2e-3 + 2.0 * B)


def test_field_root_requires_positive_B_and_can_fail_loudly():
    # at B this large the maximizer is squeezed into the guarded endpoint
    with pytest.raises(RootBracketError):
        thermo_point(ModelParams(3, 0.3, 50.0))


def test_spontaneous_root_onset_asymptotics():
    d = 3
    for delta, tol in ((1e-6, 0.01), (1e-4, 0.05)):
        pt = thermo_point(ModelParams(d, BC3 + delta, 0.0))
        assert pt.residual <= 1e-12
        seed = math.sqrt(3.0 * d * d * delta / (4.0 * (d - 1.0)))
        assert (pt.t_hat - 0.5) / seed == pytest.approx(1.0, abs=tol)
    pt = thermo_point(ModelParams(3, 2.0, 0.0))
    assert 0.9 < pt.t_hat < 1.0 and pt.residual <= 1e-12


def test_spontaneous_root_deep_in_ordered_phase():
    """Near t = 1 the cancellation in 1 - t floors the evaluation noise of dH
    above the 1e-12 polish target (measured ~1.4e-10 at beta = 2.5, where the
    root sits at 1 - t ~ 3e-7); the solver must return the best float with an
    honest residual rather than give up."""
    pt = thermo_point(ModelParams(3, 2.5, 0.0))
    assert 0.5 < pt.t_hat < 1.0
    assert pt.residual <= 1e-9
    # the sign change of dH sits within a few ulps of the returned point
    assert _sign_change_near(pt.t_hat - 0.5, 3, 2.5, 0.0)
    # magnetization keeps saturating monotonically toward 1
    ms = [2.0 * thermo_point(ModelParams(3, b, 0.0)).t_hat - 1.0 for b in (2.0, 2.5, 3.0, 4.0)]
    assert all(lo < hi < 1.0 for lo, hi in zip(ms, ms[1:]))
    # past the endpoint guard the root is unrepresentable and fails loudly
    with pytest.raises(RootBracketError):
        thermo_point(ModelParams(3, 6.0, 0.0))


@pytest.mark.parametrize(
    "beta,B", [(1.5973451404888028, 0.0), (1.5847433736937233, 0.2263774618976614)]
)
def test_newton_steps_onto_a_bracket_end_fall_back_to_bisection(beta, B):
    """At these points bisection leaves a bracket two ulps wide (~1.1e-16 at
    s ~ 0.49992) and every Newton step lands exactly on one of its ends. Such
    a step cannot shrink the bracket, so it must count as no progress."""
    tp = thermo_point(ModelParams(3, beta, B))
    assert all(math.isfinite(v) for v in (tp.psi, tp.M, tp.chi, tp.C))
    assert tp.residual <= 1e-9
    assert _sign_change_near(tp.t_hat - 0.5, 3, beta, B)
    assert tp.psi == pytest.approx(_golden_section_pressure(3, beta, B), rel=0.0, abs=1e-9)


def _near_critical_points(d):
    """The (beta, B) the exponents and jump suites solve off the trivial branch."""
    bc = critical_beta(d)
    offsets = np.geomspace(1e-7, 1e-3, 8).tolist() + [1e-4, 1e-5]
    return [(bc + dl, 0.0) for dl in offsets] + [(bc, B) for B in np.geomspace(1e-9, 1e-4, 8).tolist()]


@pytest.mark.parametrize("d", [3, 4, 5])
def test_newton_from_the_landau_root_settles_in_a_few_steps(d, monkeypatch):
    """Started from B + (d-1) beta, Newton took 12 to 26 steps a point here,
    18 on average. From the Landau cubic's root it takes 4 to 5 on
    average, and the mean must stay at most 6. No cap holds point by point:
    g is quantized at ulp(h) while g'(h*) ~ 2|alpha| is small, so the last
    steps may bisect a bracket inside that noise (14 steps at d = 3, B = 7e-7)."""
    from annealed_ising import thermo

    calls = []
    tanh_pair = thermo._tanh_pair
    monkeypatch.setattr(thermo, "_tanh_pair", lambda z: calls.append(z) or tanh_pair(z))
    steps = []
    for beta, B in _near_critical_points(d):
        calls.clear()
        tp = thermo_point(ModelParams(d, beta, B))
        assert tp.residual <= 1e-15 and tp.M > 0.0, (beta, B)
        steps.append(len(calls) - 1)  # one call for tanh(beta), then one per step
    assert sum(steps) <= 6 * len(steps), steps


def test_the_landau_start_when_alpha_rounds_to_zero():
    # one ulp above beta_c at d = 4, 1 - 3 tanh(beta) rounds to 0 and the cubic to t^3 = 0
    beta = math.nextafter(critical_beta(4), 1.0)
    assert 1.0 - 3.0 * _tanh_pair(beta)[0] == 0.0
    tp = thermo_point(ModelParams(4, beta, 0.0))
    assert 0.0 <= tp.M < 1e-7 and tp.residual == 0.0


def test_spontaneous_root_rejections():
    # with no nontrivial root (d = 2, or beta <= beta_c at d = 3) B = 0 is the trivial point
    for p in (ModelParams(2, 1.0, 0.0), ModelParams(3, BC3, 0.0), ModelParams(3, BC3 - 0.01, 0.0)):
        tp = thermo_point(p)
        assert tp.t_hat == 0.5 and tp.M == 0.0


# ---------------------------------------------------------------------------
# the variational t-form as the oracle for the Bethe solver

_ULP1 = 2.0**-52  # ulp(1)


def _dL(s, d, beta, B):
    return dH_beta(0.5 + s, d, beta) + 2.0 * B


def _sign_changes(d, beta, B):
    """Sign changes of dH + 2B on a 1e-3 grid of (1/2, 1), anchored at both ends.

    The anchors matter: for small B or beta near beta_c the root sits below
    the first grid point, and deep in the ordered phase it sits above the
    last one; only the near-boundary evaluations see those.
    """
    vals = [2.0 * B if B > 0 else _dL(1e-6, d, beta, 0.0)]
    vals += [_dL(t - 0.5, d, beta, B) for t in np.arange(0.5 + 1e-3, 1.0 - 0.5e-3, 1e-3)]
    vals.append(_dL(0.5 - 0.5 * T_GUARD, d, beta, B))
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _root_straddled(t, d, beta, B):
    """dH + 2B is positive below t and negative above it, four ulps out.

    Where the t-form cannot resolve its own root that finely, the window
    widens by four times its noise band: the evaluation error of dL (8 ulps
    of each of its terms) over the curvature |d2H(t)|.
    """
    s = t - 0.5
    parts = (math.log1p(-2.0 * s), math.log1p(2.0 * s), d * _logf(1.0 - t, math.exp(-2.0 * beta)))
    noise = 8.0 * _ULP1 * (sum(abs(v) for v in parts) + 2.0 * B)
    width = 4.0 * 2.0**-53 + 4.0 * noise / abs(d2H_beta(t, d, beta))
    return _dL(s - width, d, beta, B) > 0.0 > _dL(s + width, d, beta, B)


def _dtb_L(t, d, beta):
    """Mixed derivative d^2L/dt dbeta = 2 d c (2t-1) / sqrt(1 + (c^2-1)(2t-1)^2)."""
    c = math.exp(-2.0 * beta)
    u = 2.0 * t - 1.0
    return 2.0 * d * c * u / math.sqrt(1.0 + (c * c - 1.0) * u * u)


def _dbb_L(t, d, beta):
    """d^2L/dbeta^2 = 2 d c * integral_{|2t-1|}^{1} u(1-u^2)/(1+(c^2-1)u^2)^{3/2} du."""
    c = math.exp(-2.0 * beta)
    a = c * c - 1.0

    def integrand(u):
        return u * (1.0 - u * u) / np.power(1.0 + a * u * u, 1.5)

    return 2.0 * d * c * adaptive_quad(integrand, abs(2.0 * t - 1.0), 1.0, tol=1e-13)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_bethe_point_is_the_maximizer_of_the_t_form(d):
    """The Bethe fixed point against the variational form it replaces.

    t_hat must sit at the one sign change of dH + 2B; psi must be the golden-
    section maximum of H + 2Bt; chi and C must match -4/d2H and the
    dbb - dtb^2/d2H quadrature form at t_hat. Those two forms lose
    ulp(1)/(1 - t_hat) to the cancellation in 1 - t and ulp(1)/|d2H| near
    beta_c, so they are held to 16 times that.
    """
    rng = random.Random(d)
    bc = critical_beta(d)
    betas = [0.0, 3.0, bc - 1e-7, bc + 1e-7] + [rng.uniform(0.0, 3.0) for _ in range(3)]
    for beta in betas:
        for B in (0.0, 1e-9, 1e-3, 0.05, 0.3, 1.0):
            tp = thermo_point(ModelParams(d, beta, B))
            t = tp.t_hat
            if B == 0.0 and beta <= bc:  # the trivial branch
                assert t == 0.5 and tp.M == 0.0
            else:
                assert _sign_changes(d, beta, B) == 1, (beta, B)
                assert _root_straddled(t, d, beta, B), (beta, B, t)
            assert tp.psi == pytest.approx(_golden_section_pressure(d, beta, B), rel=0.0, abs=1e-9)
            d2 = d2H_beta(t, d, beta)
            C = _dbb_L(t, d, beta)
            if t != 0.5:
                C -= _dtb_L(t, d, beta) ** 2 / d2
            tol = 16.0 * _ULP1 * (1.0 / (1.0 - t) + 1.0 / abs(d2))
            assert tp.chi == pytest.approx(-4.0 / d2, rel=tol), (beta, B)
            assert tp.C == pytest.approx(C, rel=tol), (beta, B)


def test_roots_beyond_the_guard_lie_there():
    """Points refused for 1 - t_hat < T_GUARD have dH + 2B > 0 at 1 - 2 T_GUARD."""
    for d, beta, B in ((3, 6.0, 0.0), (3, 0.3, 50.0), (5, 3.0, 1.5), (4, 4.5, 0.0)):
        with pytest.raises(RootBracketError):
            thermo_point(ModelParams(d, beta, B))
        assert _dL(0.5 - 2.0 * T_GUARD, d, beta, B) > 0.0


# ---------------------------------------------------------------------------
# a 60-digit Decimal oracle


def _dec_tanh(z):
    e = (-2 * z).exp()
    return (1 - e) / (1 + e)


def _dec_atanh(x):
    return ((1 + x) / (1 - x)).ln() / 2


def _dec_bethe(d, beta, B, h=None):
    """(psi, M, h) of the Bethe form in Decimal, by Newton on the fixed point.

    Newton starts at h (or at B + (d-1) beta, above the largest root) and
    stops once a step is below 1e-40; the error of h is then the square of
    that, or the 60-digit noise floor over g' (~1e-52 at beta_c +- 1e-7).
    """
    th = _dec_tanh(beta)
    h = B + (d - 1) * beta if h is None else h
    for _ in range(200):
        y = _dec_tanh(h)
        x = th * y
        g = h - B - (d - 1) * _dec_atanh(x)
        step = g / (1 - (d - 1) * th * (1 - y * y) / (1 - x * x))
        h -= step
        if abs(step) < Decimal("1e-40"):
            break
    else:
        raise AssertionError("Decimal Newton did not settle")
    y = _dec_tanh(h)
    x = th * y
    cosh = ((beta).exp() + (-beta).exp()) / 2
    psi = (
        d * cosh.ln() / 2
        - d * (1 + th * y * y).ln() / 2
        + (B.exp() * (1 + x) ** d + (-B).exp() * (1 - x) ** d).ln()
    )
    return psi, _dec_tanh(B + d * _dec_atanh(x)), h


def _dec_point(d, beta, B):
    """psi, M, chi and C in Decimal; chi and C by central differences of M and psi.

    B = 0 means the 0+ branch: the differences in B start Newton from the
    positive root, so B - delta stays on it.
    """
    beta, B = Decimal(beta), Decimal(B)
    psi, M, h = _dec_bethe(d, beta, B)
    db, dbeta = Decimal("1e-20"), Decimal("1e-15")
    chi = (_dec_bethe(d, beta, B + db, h)[1] - _dec_bethe(d, beta, B - db, h)[1]) / (2 * db)
    up = _dec_bethe(d, beta + dbeta, B, h)[0]
    down = _dec_bethe(d, beta - dbeta, B, h)[0]
    return psi, M, chi, (up - 2 * psi + down) / (dbeta * dbeta)


def _decimal_grid():
    rng = random.Random(2024)
    pts = [(5, 2.9, 0.0), (5, 2.7, 0.9), (5, 3.0, 1.0)]
    for d in (3, 4, 5):
        bc = critical_beta(d)
        pts += [(d, bc - 1e-7, 0.0), (d, bc + 1e-7, 0.0)]
        pts += [(d, rng.uniform(0.0, 3.0), rng.choice([0.0, 1e-3, 0.05, 0.3, 1.0])) for _ in range(5)]
        pts += [(d, bc + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.1), 0.0) for _ in range(2)]
    for d in (3, 4):  # where Newton starts from the Landau cubic's root, or would
        bc = critical_beta(d)
        pts += [(d, bc, 1e-9), (d, bc, 1e-4), (d, bc - 1e-3, 0.0)]
    return pts


def test_limit_quantities_match_a_decimal_oracle():
    """psi, chi and C within 1e-12 relative and M within 2.3e-16 absolute away
    from beta_c (|beta - beta_c| >= 1e-3 or B >= 1e-3); all four within 1e-8
    relative at beta_c +- 1e-7, B = 0, where 1 - (d-1) theta ~ 1e-7 sets the
    conditioning. The oracle shares only the closed form of psi and M: chi and
    C are its own finite differences."""
    with localcontext() as ctx:
        ctx.prec = 60
        for d, beta, B in _decimal_grid():
            tp = thermo_point(ModelParams(d, beta, B))
            ref = [float(v) for v in _dec_point(d, beta, B)]
            far = abs(beta - critical_beta(d)) >= 1e-3 or B >= 1e-3
            rel = 1e-12 if far else 1e-8
            where = (d, beta, B)
            assert tp.psi == pytest.approx(ref[0], rel=rel, abs=0.0), where
            if far:
                assert abs(tp.M - ref[1]) <= 2.3e-16, where
            else:  # below beta_c the oracle's Newton ends ~1e-52 above the root h = 0
                assert tp.M == pytest.approx(ref[1], rel=rel, abs=1e-40), where
            assert tp.chi == pytest.approx(ref[2], rel=rel, abs=0.0), where
            assert tp.C == pytest.approx(ref[3], rel=rel, abs=0.0), where


@pytest.mark.parametrize("d", [3, 4])
def test_one_offset_above_beta_c_matches_the_decimal_oracle(d):
    """At beta_c + 1e-3, psi, chi and C within 1e-12 relative and M within
    1e-14 absolute. 1 - (d-1) theta ~ 1.5e-3 makes g'(h*) as small while g
    is rounded at ulp(h), so M is off by up to 7e-15 from either Newton start:
    the 2.3e-16 the decimal-oracle test asks further out does not hold here."""
    beta = critical_beta(d) + 1e-3
    tp = thermo_point(ModelParams(d, beta, 0.0))
    with localcontext() as ctx:
        ctx.prec = 60
        ref = [float(v) for v in _dec_point(d, beta, 0.0)]
    assert abs(tp.M - ref[1]) <= 1e-14
    for got, want in zip((tp.psi, tp.chi, tp.C), (ref[0], ref[2], ref[3])):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_thermo_point_evaluates_no_variational_form(monkeypatch):
    """The limit path runs on the fixed point alone: no quadrature, no H."""
    from annealed_ising import thermo

    def forbidden(*args, **kwargs):
        raise AssertionError("the limit path evaluated the variational form")

    for name in ("F_beta", "H_beta", "dH_beta"):
        monkeypatch.setattr(thermo, name, forbidden)
    for p in (ModelParams(3, 0.3, 0.0), ModelParams(3, BC3, 0.0), ModelParams(3, 0.8, 0.0),
              ModelParams(4, 0.4, 0.2), ModelParams(5, 2.9, 0.0)):
        thermo_point(p)


# ---------------------------------------------------------------------------
# thermodynamic quantities


def test_free_spin_values():
    for d in (3, 4):
        tp = thermo_point(ModelParams(d, 0.0, 0.0))
        assert tp.psi == pytest.approx(math.log(2.0), rel=1e-15)
        assert tp.M == 0.0
        assert tp.chi == 1.0
        assert tp.C == pytest.approx(d / 2.0, abs=1e-13)


def test_magnetization_monotone_in_field():
    ms = [thermo_point(ModelParams(3, 0.4, B)).M for B in (0.1, 0.2, 0.5)]
    assert 0.0 < ms[0] < ms[1] < ms[2] < 1.0


def test_chi_is_dM_dB():
    p = ModelParams(3, 0.4, 0.1)
    h = 1e-5
    fd = (
        thermo_point(ModelParams(3, 0.4, 0.1 + h)).M - thermo_point(ModelParams(3, 0.4, 0.1 - h)).M
    ) / (2.0 * h)
    assert thermo_point(p).chi == pytest.approx(fd, rel=1e-6)


def test_M_is_dpsi_dB():
    h = 1e-6
    fd = (
        thermo_point(ModelParams(3, 0.4, 0.1 + h)).psi - thermo_point(ModelParams(3, 0.4, 0.1 - h)).psi
    ) / (2.0 * h)
    assert thermo_point(ModelParams(3, 0.4, 0.1)).M == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("beta,B", [(0.4, 0.1), (0.7, 0.0), (0.3, 0.0)])
def test_C_is_d2psi_dbeta2(beta, B):
    h = 1e-3
    ps = [thermo_point(ModelParams(3, beta + k * h, B)).psi for k in (-2, -1, 0, 1, 2)]
    fd = (-ps[0] + 16.0 * ps[1] - 30.0 * ps[2] + 16.0 * ps[3] - ps[4]) / (12.0 * h * h)
    C = thermo_point(ModelParams(3, beta, B)).C
    assert C == pytest.approx(fd, rel=1e-5)
    assert C > 0.0


def test_spontaneous_onset_amplitude():
    delta = 1e-8
    m = thermo_point(ModelParams(3, BC3 + delta, 0.0)).M
    assert m == pytest.approx(3.0 * math.sqrt(3.0 / 2.0) * math.sqrt(delta), rel=0.01)
    assert thermo_point(ModelParams(3, BC3 - 1e-6, 0.0)).M == 0.0


def test_exactly_critical_point_is_special():
    tp = thermo_point(ModelParams(3, BC3, 0.0))
    assert tp.chi == math.inf
    assert math.isnan(tp.C)
    assert tp.M == 0.0
    assert tp.t_hat == 0.5


def test_pressure_increases_with_field_and_beta():
    base = thermo_point(ModelParams(3, 0.4, 0.0)).psi
    assert thermo_point(ModelParams(3, 0.4, 0.3)).psi > base
    assert thermo_point(ModelParams(3, 0.6, 0.0)).psi > base
