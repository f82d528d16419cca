"""Limit pressure, stationary points, and response functions."""

import math
import random

import numpy as np
import pytest

from annealed_ising import (
    F_beta,
    H_beta,
    ModelParams,
    NoNontrivialRootError,
    RootBracketError,
    UndefinedAtCriticalityError,
    critical_beta,
    d2H_beta,
    dH_beta,
    f_beta,
    find_t_plus,
    find_t_star,
    magnetization,
    pressure,
    specific_heat,
    susceptibility,
    thermo_point,
)
from annealed_ising.thermo import T_GUARD, _LOG_GRID, _count_sign_changes, _dL, _scan

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
    with pytest.raises(ValueError):
        ModelParams(1, 0.5)
    with pytest.raises(ValueError):
        ModelParams(2.5, 0.5)
    with pytest.raises(ValueError):
        ModelParams(3, -0.1)
    with pytest.raises(ValueError):
        ModelParams(3, 0.5, -1.0)


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


def test_f_endpoints_and_domain():
    for beta in (0.0, 0.3, 1.1):
        assert f_beta(0.5, beta) == 1.0
        assert f_beta(0.0, beta) == pytest.approx(math.exp(-2.0 * beta), rel=1e-15)
    assert f_beta(0.2, 0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        f_beta(-0.01, 0.3)
    with pytest.raises(ValueError):
        f_beta(0.51, 0.3)


def test_F_symmetry_sign_and_derivative():
    beta = 0.5
    assert F_beta(0.0, beta) == 0.0
    assert F_beta(1.0, beta) == 0.0
    # F(t) == F(1 - t) bitwise wherever 1 - t is exact, which holds for every
    # float t in [1/2, 1] (Sterbenz): both sides then integrate to one upper limit.
    for t in (0.625, 0.7, 0.9):
        assert F_beta(t, beta) == F_beta(1.0 - t, beta)
    # The literal 0.3 is not the mirror of the float 0.7 (1 - 0.7 is
    # 0.30000000000000004 in binary64), so this pair integrates to upper limits
    # one ulp apart and may differ by a few ulp of F (measured: 1 ulp, 2.8e-17).
    assert F_beta(0.3, beta) == pytest.approx(F_beta(0.7, beta), rel=0.0, abs=1e-15)
    assert F_beta(0.3, 0.0) == 0.0
    # log f < 0 below 1/2, so F decreases toward t = 1/2
    assert F_beta(0.25, beta) < F_beta(0.1, beta) < 0.0
    h = 1e-6
    fd = (F_beta(0.3 + h, beta) - F_beta(0.3 - h, beta)) / (2.0 * h)
    assert fd == pytest.approx(math.log(f_beta(0.3, beta)), abs=1e-9)


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
    chi0 = susceptibility(ModelParams(d, beta, 0.0))
    for B in (1e-9, 1e-6, 1e-3):
        pt = find_t_star(ModelParams(d, beta, B))
        assert pt.kind == "field"
        assert pt.residual <= 1e-12
        assert 0.5 < pt.t_star < 1.0
        assert (2.0 * pt.t_star - 1.0) / B == pytest.approx(chi0, rel=2e-3 + 2.0 * B)


def test_field_root_requires_positive_B_and_can_fail_loudly():
    with pytest.raises(ValueError):
        find_t_star(ModelParams(3, 0.3, 0.0))
    # at B this large the maximizer is squeezed into the guarded endpoint
    with pytest.raises(RootBracketError):
        find_t_star(ModelParams(3, 0.3, 50.0))


def test_spontaneous_root_onset_asymptotics():
    d = 3
    for delta, tol in ((1e-6, 0.01), (1e-4, 0.05)):
        pt = find_t_plus(ModelParams(d, BC3 + delta, 0.0))
        assert pt.kind == "spontaneous"
        assert pt.residual <= 1e-12
        seed = math.sqrt(3.0 * d * d * delta / (4.0 * (d - 1.0)))
        assert (pt.t_star - 0.5) / seed == pytest.approx(1.0, abs=tol)
    pt = find_t_plus(ModelParams(3, 2.0, 0.0))
    assert 0.9 < pt.t_star < 1.0 and pt.residual <= 1e-12


def test_spontaneous_root_deep_in_ordered_phase():
    """Near t = 1 the cancellation in 1 - t floors the evaluation noise of dH
    above the 1e-12 polish target (measured ~1.4e-10 at beta = 2.5, where the
    root sits at 1 - t ~ 3e-7); the solver must return the best float with an
    honest residual rather than give up."""
    pt = find_t_plus(ModelParams(3, 2.5, 0.0))
    assert pt.kind == "spontaneous"
    assert 0.5 < pt.t_star < 1.0
    assert pt.residual <= 1e-9
    # the sign change of dH sits within a few ulps of the returned point
    assert _sign_change_near(pt.t_star - 0.5, 3, 2.5, 0.0)
    # magnetization keeps saturating monotonically toward 1
    ms = [2.0 * find_t_plus(ModelParams(3, b, 0.0)).t_star - 1.0 for b in (2.0, 2.5, 3.0, 4.0)]
    assert all(lo < hi < 1.0 for lo, hi in zip(ms, ms[1:]))
    # past the endpoint guard the root is unrepresentable and fails loudly
    with pytest.raises(RootBracketError):
        find_t_plus(ModelParams(3, 6.0, 0.0))


@pytest.mark.parametrize(
    "beta,B", [(1.5973451404888028, 0.0), (1.5847433736937233, 0.2263774618976614)]
)
def test_newton_steps_onto_a_bracket_end_fall_back_to_bisection(beta, B):
    """At these points bisection leaves a bracket two ulps wide (~1.1e-16 at
    s ~ 0.49992) and every Newton step lands exactly on one of its ends. Such
    a step cannot shrink the bracket, so it must count as no progress."""
    tp = thermo_point(ModelParams(3, beta, B))
    assert all(math.isfinite(v) for v in (tp.psi, tp.M, tp.chi, tp.C))
    assert tp.point.residual <= 1e-9
    assert _sign_change_near(tp.point.t_star - 0.5, 3, beta, B)
    assert tp.psi == pytest.approx(_golden_section_pressure(3, beta, B), rel=0.0, abs=1e-9)


def test_spontaneous_root_rejections():
    with pytest.raises(ValueError):
        find_t_plus(ModelParams(2, 1.0, 0.0))
    with pytest.raises(NoNontrivialRootError):
        find_t_plus(ModelParams(3, BC3, 0.0))
    with pytest.raises(NoNontrivialRootError):
        find_t_plus(ModelParams(3, BC3 - 0.01, 0.0))


# ---------------------------------------------------------------------------
# the array scans against the scalar loops they replace


def scalar_scan(grid, lo, flo, d, beta, B):
    """The bracket scan as one scalar _dL call per grid point: the oracle for _scan."""
    for s in grid:
        val = _dL(s, d, beta, B)
        if flo * val <= 0:
            return lo, flo, s
        lo, flo = s, val
    return lo, flo, None


def scalar_sign_changes(d, beta, B):
    """The uniqueness scan as one scalar _dL call per grid point."""
    grid = np.arange(0.5 + 1e-3, 1.0 - 0.5e-3, 1e-3)
    vals = [2.0 * B if B > 0 else _dL(1e-6, d, beta, 0.0)]
    vals += [_dL(t - 0.5, d, beta, B) for t in grid]
    vals.append(_dL(0.5 - T_GUARD, d, beta, B))
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_array_scans_match_scalar_loops(d):
    rng = random.Random(d)
    bc = critical_beta(d)
    betas = [0.0, 3.0, bc - 1e-7, bc + 1e-7] + [rng.uniform(0.0, 3.0) for _ in range(12)]
    for beta in betas:
        for B in (0.0, 1e-9, 1e-3, 0.3, 1.0):
            assert _count_sign_changes(d, beta, B) == scalar_sign_changes(d, beta, B)
            flo = 2.0 * B if B > 0 else 1.0  # the finders' starting values
            lo, f, hi = _scan(_LOG_GRID, 0.0, flo, d, beta, B)
            lo_ref, f_ref, hi_ref = scalar_scan(_LOG_GRID, 0.0, flo, d, beta, B)
            assert hi == hi_ref
            if hi is not None:
                assert lo == lo_ref and np.sign(f) == np.sign(f_ref)


# ---------------------------------------------------------------------------
# thermodynamic quantities


def test_free_spin_values():
    for d in (3, 4):
        p = ModelParams(d, 0.0, 0.0)
        assert pressure(p) == pytest.approx(math.log(2.0), rel=1e-15)
        assert magnetization(p) == 0.0
        assert susceptibility(p) == 1.0
        assert specific_heat(p) == pytest.approx(d / 2.0, abs=1e-13)


def test_magnetization_monotone_in_field():
    ms = [magnetization(ModelParams(3, 0.4, B)) for B in (0.1, 0.2, 0.5)]
    assert 0.0 < ms[0] < ms[1] < ms[2] < 1.0


def test_chi_is_dM_dB():
    p = ModelParams(3, 0.4, 0.1)
    h = 1e-5
    fd = (
        magnetization(ModelParams(3, 0.4, 0.1 + h)) - magnetization(ModelParams(3, 0.4, 0.1 - h))
    ) / (2.0 * h)
    assert susceptibility(p) == pytest.approx(fd, rel=1e-6)


def test_M_is_dpsi_dB():
    h = 1e-6
    fd = (pressure(ModelParams(3, 0.4, 0.1 + h)) - pressure(ModelParams(3, 0.4, 0.1 - h))) / (
        2.0 * h
    )
    assert magnetization(ModelParams(3, 0.4, 0.1)) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("beta,B", [(0.4, 0.1), (0.7, 0.0), (0.3, 0.0)])
def test_C_is_d2psi_dbeta2(beta, B):
    h = 1e-3
    ps = [pressure(ModelParams(3, beta + k * h, B)) for k in (-2, -1, 0, 1, 2)]
    fd = (-ps[0] + 16.0 * ps[1] - 30.0 * ps[2] + 16.0 * ps[3] - ps[4]) / (12.0 * h * h)
    C = specific_heat(ModelParams(3, beta, B))
    assert C == pytest.approx(fd, rel=1e-5)
    assert C > 0.0


def test_spontaneous_onset_amplitude():
    delta = 1e-8
    m = magnetization(ModelParams(3, BC3 + delta, 0.0))
    assert m == pytest.approx(3.0 * math.sqrt(3.0 / 2.0) * math.sqrt(delta), rel=0.01)
    assert magnetization(ModelParams(3, BC3 - 1e-6, 0.0)) == 0.0


def test_exactly_critical_point_is_special():
    p = ModelParams(3, BC3, 0.0)
    assert susceptibility(p) == math.inf
    with pytest.raises(UndefinedAtCriticalityError):
        specific_heat(p)
    tp = thermo_point(p)
    assert tp.chi == math.inf
    assert math.isnan(tp.C)
    assert tp.M == 0.0
    assert tp.point.kind == "trivial"


def test_thermo_point_agrees_with_scalars():
    for p in (ModelParams(3, 0.4, 0.2), ModelParams(3, 0.8, 0.0)):
        tp = thermo_point(p)
        assert tp.psi == pytest.approx(pressure(p), rel=1e-15)
        assert tp.M == pytest.approx(magnetization(p), rel=1e-12)
        assert tp.chi == pytest.approx(susceptibility(p), rel=1e-12)
        assert tp.C == pytest.approx(specific_heat(p), rel=1e-12)


def test_pressure_increases_with_field_and_beta():
    base = pressure(ModelParams(3, 0.4, 0.0))
    assert pressure(ModelParams(3, 0.4, 0.3)) > base
    assert pressure(ModelParams(3, 0.6, 0.0)) > base
