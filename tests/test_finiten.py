"""Finite-size weights, the spin law, and its transforms."""

import functools
import itertools
import math
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest

from annealed_ising import (
    ModelParams,
    critical_beta,
    critical_window,
    finite_size_checks,
    spin_law,
    thermo_point,
    write_spinlaw_csv,
)
from annealed_ising import finiten
from annealed_ising.matching import cache_path, log_g_table

BC3 = critical_beta(3)


def _log_x(table):
    """The untilted log-weights log C(n, j) + log g(dj, dn) that spin_law sums, bitwise."""
    return finiten._grid(table.n)[2] + table.values


def test_table_assembly_and_immutability(get_table):
    t = get_table(3, 100, 0.4)
    assert t.n == 100 and t.d == 3
    assert t.values.shape == (101,)
    with pytest.raises(ValueError):
        t.values[0] = 1.0  # the buffer is frozen


def test_binomial_part_is_exact():
    # the row spin_law adds must be log C(n, j); math.comb is an exact
    # big-integer oracle for it
    n = 60
    row = finiten._grid(n)[2]
    for j in range(n + 1):
        assert row[j] == pytest.approx(math.log(math.comb(n, j)), abs=1e-11), j


@pytest.mark.parametrize("n", [30000, 1, 1000])  # a large size first, then smaller ones
def test_binomial_part_is_bitwise_the_lgamma_expression(n):
    # assembling log C(n, j) from one vector of log-factorials keeps every
    # double of the per-entry lgamma expression; the grid is memoised per n
    # and shared, so all three of its rows must be read-only
    lc = math.lgamma(n + 1.0)
    lbinom = lc - np.array([math.lgamma(i + 1.0) + math.lgamma(n - i + 1.0) for i in range(n + 1)])
    grid = finiten._grid(n)
    assert finiten._grid(n) is grid
    j, s, row = grid
    assert np.array_equal(row, lbinom)
    assert np.array_equal(j, np.arange(n + 1)) and np.array_equal(s, 2 * np.arange(n + 1) - n)
    for a in grid:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_a_cache_hit_gives_the_law_of_the_miss_bitwise(tmp_path):
    # the miss fills the table and builds the grid; the hit reads the table
    # back and, with the grid memo cleared, rebuilds the grid: the law must
    # keep every bit
    finiten._grid.cache_clear()
    beta = critical_beta(3)
    miss = log_g_table(3, 1000, beta, cache_dir=tmp_path)
    first = spin_law(miss)
    assert cache_path(tmp_path, 3, 1000, beta).exists()
    finiten._grid.cache_clear()
    hit = log_g_table(3, 1000, beta, cache_dir=tmp_path)
    law = spin_law(hit)
    assert finiten._grid.cache_info().misses == 1
    assert np.array_equal(hit.values, miss.values)
    assert np.array_equal(law.masses, first.masses)
    assert (law.psi, law.M, law.chi) == (first.psi, first.M, first.chi)


def test_free_spins_have_closed_forms():
    t = log_g_table(3, 200, 0.0)
    for B in (0.0, 0.7, 1.5):
        law = spin_law(t, B)
        assert law.psi == pytest.approx(math.log(2.0 * math.cosh(B)), abs=1e-12)
        assert law.M == pytest.approx(math.tanh(B), abs=1e-12)
        assert law.chi == pytest.approx(1.0 - math.tanh(B) ** 2, abs=1e-10)
    assert spin_law(t, 0.0).chi == pytest.approx(1.0, abs=1e-12)


def _fsum_susceptibility(table, B):
    """Var(S)/n under the B-tilted weights, centred and summed with math.fsum."""
    n = table.n
    logs = [float(v) + 2.0 * B * j for j, v in enumerate(_log_x(table))]
    top = max(logs)
    w = [math.exp(v - top) for v in logs]
    z = math.fsum(w)
    mean = math.fsum(wj * (2 * j - n) for j, wj in enumerate(w)) / z
    return math.fsum(wj * (2 * j - n - mean) ** 2 for j, wj in enumerate(w)) / z / n


@pytest.mark.parametrize("B", [0.1, 0.2, 0.25])
def test_ordered_phase_susceptibility_matches_fsum(get_table, B):
    # the mean is above 0.9 n here, so E[S^2] - E[S]^2 loses ~4 digits (2-4e-10 relative)
    t = get_table(3, 2000, 0.7)
    ref = _fsum_susceptibility(t, B)
    assert spin_law(t, B).chi == pytest.approx(ref, rel=1e-10, abs=0.0)


def _decimal_law(w):
    """Up-spin counts, x = w - max w, masses, mean and variance of S under log-weights w.

    Every sum runs in 40-digit decimal from the exact float inputs. Lanes more
    than 250 below the top are left out: they carry less than
    e^-250 (n+1) n^2 < 1e-90 of any sum here.
    """
    n = len(w) - 1
    top = float(np.max(w))
    with localcontext() as ctx:
        ctx.prec = 40
        keep = [(j, Decimal(float(v)) - Decimal(top)) for j, v in enumerate(w) if v - top > -250.0]
        e = [x.exp() for _, x in keep]
        z = sum(e)
        mean = sum(ej * (2 * j - n) for (j, _), ej in zip(keep, e)) / z
        var = sum(ej * (2 * j - n - mean) ** 2 for (j, _), ej in zip(keep, e)) / z
        js = np.array([j for j, _ in keep], dtype=np.float64)
        x = np.array([float(xj) for _, xj in keep])
        m = np.array([float(ej / z) for ej in e])
    return js, x, m, float(mean), float(var)


_U = 2.0**-53


def _mass_rounding(n, x, m):
    """Pairwise-sum depth and the first-order relative error of each of spin_law's masses.

    Each mass e_j / sum(e) carries the rounding of x_j = w_j - max w (u |x_j|),
    of exp (within 2 ulp, 4u) and of the division (u), plus one error common
    to all lanes: the sum of e, whose depth numpy's pairwise sum keeps
    <= 16 + 3 + log2(n) (eight accumulators of 16 terms per 128-block, then
    pairs), and the lane errors that sum collects. u = 2^-53.
    """
    u = _U
    depth = 19 + math.ceil(math.log2(n + 1))
    common = float(np.sum(m * (u * np.abs(x) + 4 * u))) + depth * u
    return depth, u * np.abs(x) + 5 * u + common


def _spin_law_error_bounds(n, js, x, m, mean, var):
    """First-order bounds on |M_n - M| and |chi_n - chi| / chi from spin_law's float steps.

    Computed from the oracle's law only, on the mass errors of _mass_rounding.
    M_n adds a product per lane, the sum of signed terms (depth u sum m|s|)
    and its /n, so relative to |M| its bound scales with sum m|s| / |sum m s|.
    chi_n sums non-negative terms: s - mean, its square, the product, the sum
    and /n add (depth + 6) u, and the mean's own error enters at second order.
    """
    u = _U
    s = 2.0 * js - n
    depth, rho = _mass_rounding(n, x, m)
    weight = m * np.abs(s)
    dmu = float(np.sum(weight * (rho + u))) + depth * u * float(np.sum(weight)) + 2 * u * abs(mean)
    dev = s - mean
    rel_chi = float(np.sum(m * dev**2 * rho)) / var + (depth + 6) * u
    rel_chi += (dmu**2 + 2 * dmu * float(np.max(rho)) * float(np.sum(m * np.abs(dev)))) / var
    return dmu / n, rel_chi


@pytest.mark.parametrize("beta, B", [(0.6, 0.1), (0.6, 0.25), (3.0, 0.25), (3.0, 0.5), (0.0, 0.7)])
def test_magnetization_and_susceptibility_match_the_decimal_oracle(get_table, beta, B):
    # the oracle sums the same float log-weights spin_law tilts to; beta = 0 is
    # the free-spin law at the field free_spin_closed_forms uses
    n = 8000
    t = get_table(3, n, beta)
    js, x, m, mean, var = _decimal_law(_log_x(t) + 2.0 * B * np.arange(n + 1, dtype=np.float64))
    abs_M, rel_chi = _spin_law_error_bounds(n, js, x, m, mean, var)
    law = spin_law(t, B)
    assert abs(law.M - mean / n) <= abs_M
    assert abs(law.chi - var / n) <= rel_chi * (var / n)


@functools.lru_cache(maxsize=None)
def _cycle_pressure(n, beta, B):
    """(1/n) log E[Z_n], M_n and chi_n at d = 2 in closed form, in 50-digit decimal.

    A 2-regular configuration graph is a union of cycles, and averaging the
    transfer-matrix traces over the pairings gives
    E[Z_n] = n!/(2n-1)!! (2 sqrt(det T))^n P_n(tr T / (2 sqrt(det T))), with
    T = [[e^{beta+B}, e^{-beta}], [e^{-beta}, e^{beta-B}]] and P_n the Legendre
    polynomial. W_k = k!/(2k-1)!! (2 sqrt(det T))^k P_k folds the prefactor
    into Legendre's recurrence: W_{k+1} = tr T W_k - det T 4k^2/(4k^2-1) W_{k-1},
    W_0 = 1, W_1 = tr T, with no square root left. tr T > 2 sqrt(det T), so P_k
    is the growing solution and the forward recurrence is stable; its n steps
    lose about n 1e-50 relative, far below a double's rounding.

    det T does not depend on B, tr T' = e^{beta+B} - e^{beta-B} and
    tr T'' = tr T, so the recurrence differentiated in B carries W_B and W_BB
    beside W, from W_B = W_BB = 0 at k = 0. Then M_n = W_B/(n W) and
    chi_n = (W_BB/W - (W_B/W)^2)/n; the difference cancels about
    log10(n M_n^2/chi_n) < 5 of the 50 digits.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        b, f = Decimal(beta), Decimal(B)
        tr = (b + f).exp() + (b - f).exp()
        tr_b = (b + f).exp() - (b - f).exp()
        det = (2 * b).exp() - (-2 * b).exp()
        prev, cur = (Decimal(1), Decimal(0), Decimal(0)), (tr, tr_b, tr)
        for k in range(1, n):
            kk = 4 * k * k
            c = det * kk / (kk - 1)
            (w, w_b, w_bb), (v, v_b, v_bb) = cur, prev
            prev, cur = cur, (
                tr * w - c * v,
                tr_b * w + tr * w_b - c * v_b,
                tr * w + 2 * tr_b * w_b + tr * w_bb - c * v_bb,
            )
        w, w_b, w_bb = cur
        mean = w_b / w
        return w.ln() / n, mean / n, (w_bb / w - mean * mean) / n


def _weight_error_bound(table, B):
    """First-order bound, over j, on the error of spin_law's float weights.

    The weights w_j = log C(n, j) + log g_j + 2Bj carry:
    - the table row's 8u(k + max(1, |log g_j|)), k = min(dj, dn - dj), from
      the kernels docstring;
    - for each log i! = lgamma(i + 1), 5 ulp <= 10u |log i!| or 1e-15, what
      CPython's own tests hold lgamma to, and u each for the sum and the
      difference that make log C(n, j);
    - u each for the two additions and the product 2Bj.
    """
    u, n, d = _U, table.n, table.d
    j = np.arange(n + 1, dtype=np.float64)
    log_g = table.values
    rows = 8 * u * (np.minimum(d * j, d * (n - j)) + np.maximum(1.0, np.abs(log_g)))
    lf = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    fact = 10 * u * lf + 1e-15
    log_binom = finiten._grid(n)[2]
    binom = fact[n] + fact + fact[::-1] + u * (lf + lf[::-1]) + u * np.abs(log_binom)
    w = log_binom + log_g + 2.0 * B * j
    assembly = u * (np.abs(log_binom + log_g) + np.abs(2.0 * B * j) + np.abs(w))
    return float(np.max(rows + binom + assembly))


def _psi_error_bound(table, law):
    """First-order bound on |psi_n - (1/n) log E[Z_n]| from the float steps behind psi_n.

    The weights carry _weight_error_bound, and log-sum-exp moves by at most
    the largest change of any weight. spin_law's sum of e_j = exp(w_j - max w)
    then errs by its lanes' roundings (u |x_j| for x_j = w_j - max w, 4u for
    exp) and its pairwise depth, as in _mass_rounding. log adds 2u |log sum|, max w + log sum adds u |z|, z/n
    adds u |z/n|, and - B and + z/n add u of their results; beta d/2 is exact
    at d = 2. The lanes spin_law leaves at 0 below the exp cut carry less
    than (n+1) e^-746 of the sum.
    """
    u, n, d, B = _U, table.n, table.d, law.B
    w = _log_x(table) + 2.0 * B * np.arange(n + 1, dtype=np.float64)
    top = float(np.max(w))
    x = w - top
    depth = _mass_rounding(n, x, law.masses)[0]
    log_total = math.log(float(np.sum(np.exp(x))))
    z = top + log_total
    lse = float(np.sum(law.masses * (u * np.abs(x) + 4 * u))) + depth * u
    lse += 2 * u * abs(log_total) + u * abs(z)
    weights = _weight_error_bound(table, B)
    return (weights + lse) / n + u * abs(z / n) + u * abs(table.beta * d / 2.0 - B) + u * abs(law.psi)


_CYCLE_POINTS = [(4, 0.3, 0.1), (100, 0.4, 0.2), (1000, 1.0, 0.05), (1000, 0.3, 0.0), (8000, 0.5, 0.1)]


@pytest.mark.parametrize("n, beta, B", _CYCLE_POINTS)
def test_cycle_graphs_match_the_legendre_closed_form(n, beta, B):
    # d = 2: the pressure from the table and spin law against the cycle-graph
    # closed form, which needs neither the Isserlis recurrence nor the law of X
    table = log_g_table(2, n, beta)
    law = spin_law(table, B)
    with localcontext() as ctx:
        ctx.prec = 50
        gap = abs(Decimal(law.psi) - _cycle_pressure(n, beta, B)[0])
    assert float(gap) <= _psi_error_bound(table, law)


@pytest.mark.parametrize("n, beta, B", _CYCLE_POINTS)
def test_cycle_graphs_match_the_legendre_closed_form_in_M_and_chi(n, beta, B):
    # M_n and chi_n against the closed form's B-derivatives. They err by
    # spin_law's float steps on its float weights (_spin_law_error_bounds),
    # and by those weights' own error: moving each weight by at most eps
    # (_weight_error_bound) moves E[S] by Cov(S, delta) <= eps E|S - mean|
    # and Var(S) by Cov((S - mean)^2, delta) <= eps E|(S - mean)^2 - Var(S)|,
    # to first order
    table = log_g_table(2, n, beta)
    law = spin_law(table, B)
    js, x, m, mean, var = _decimal_law(_log_x(table) + 2.0 * B * np.arange(n + 1, dtype=np.float64))
    abs_M, rel_chi = _spin_law_error_bounds(n, js, x, m, mean, var)
    eps = _weight_error_bound(table, B)
    dev = 2.0 * js - n - mean
    abs_M += eps * float(np.sum(m * np.abs(dev))) / n
    abs_chi = rel_chi * var / n + eps * float(np.sum(m * np.abs(dev * dev - var))) / n
    _, M, chi = _cycle_pressure(n, beta, B)
    with localcontext() as ctx:
        ctx.prec = 50
        gap_M, gap_chi = abs(Decimal(law.M) - M), abs(Decimal(law.chi) - chi)
    assert float(gap_M) <= abs_M
    assert float(gap_chi) <= abs_chi


def _decimal_mgf(w, r, inside):
    """E[exp(r S / n^{3/4}) | j in the window] under log-weights w, in 40-digit decimal.

    Sums the exact float inputs against the exact n^{3/4} (two correctly
    rounded square roots of n^3), leaving out the lanes _decimal_law does.
    """
    n = len(w) - 1
    top = float(np.max(w))
    with localcontext() as ctx:
        ctx.prec = 40
        scale = Decimal(r) / (Decimal(n) ** 3).sqrt().sqrt()
        num = den = Decimal(0)
        for j in np.flatnonzero(inside & (w - top > -250.0)):
            e = (Decimal(float(w[j])) - Decimal(top)).exp()
            num += e * ((2 * int(j) - n) * scale).exp()
            den += e
        return float(num / den)


def _window_mgf_gap(law, r=1.0):
    """|E[e^{tS}] - E[e^{tS} | |S| <= 2 n^{5/6}]| at t = r / n^{3/4}, summed over the law's masses."""
    n = law.n
    t = r / n**0.75
    s = 2.0 * np.arange(n + 1, dtype=np.float64) - n
    inside = np.abs(s) <= 2.0 * n ** (5.0 / 6.0)
    kept = law.masses[inside]
    windowed = float(np.sum(kept * np.exp(t * s[inside]))) / float(np.sum(kept))
    return abs(law.mgf(t) - windowed)


def _mgf_error_bound(n, js, x, m, t, inside, arg=4):
    """First-order bound on the relative error of sum_in(mass e^y) / sum_in(mass) from its float steps.

    Computed from the oracle's law only, with y = t s. Each lane adds to its
    mass error (_mass_rounding) the rounding of y, arg u |y|, which exp turns
    into a relative error; exp (4u) and the product (u); the sum of these
    positive terms adds depth u. arg counts the argument's roundings: 4 for
    t = r / n**0.75 (the 1-ulp pow, the division, the product t s) and 1 for
    an exact float t (the product alone). Over a window the sum of masses has
    the same depth and lane errors, and the division adds u. The full mgf has
    no such division; the bound keeps it. u more covers the oracle's own
    rounding to a float.
    """
    u = _U
    depth, rho = _mass_rounding(n, x, m)
    y = t * (2.0 * js - n)
    keep = inside[js.astype(np.int64)]
    me, mk, rk = m[keep] * np.exp(y[keep]), m[keep], rho[keep]
    num = float(np.sum(me * (rk + arg * u * np.abs(y[keep]) + 5 * u))) / float(np.sum(me)) + depth * u
    den = float(np.sum(mk * rk)) / float(np.sum(mk)) + depth * u
    return num + den + 2 * u


def test_exp_is_exactly_zero_below_the_cut():
    # spin_law leaves lanes below the cut as 0.0 without evaluating
    # them; that is bitwise np.exp only if the running numpy returns +0.0 there
    below = np.nextafter(finiten._EXP_CUT, -np.inf)
    args = np.concatenate((np.linspace(-1e4, below, 100_001), [below, -np.inf]))
    out = np.exp(args)
    assert np.array_equal(out.view(np.int64), np.zeros(len(args), dtype=np.int64))
    assert np.exp(below) == 0.0 and np.exp(-np.inf) == 0.0


def _lse_full(v):
    m = float(np.max(v))
    return m + math.log(float(np.sum(np.exp(v - m))))


def _increment_full(t, B, dB):
    """E[e^{dB S}] at field B, summed over masses taken by a full np.exp of every lane."""
    j = np.arange(t.n + 1, dtype=np.float64)
    s = 2.0 * j - t.n
    w = _log_x(t) + 2.0 * B * j
    p = np.exp(w - float(np.max(w)))
    p /= np.sum(p)
    return float(np.sum(p * np.exp(dB * s)))


@pytest.mark.parametrize(
    "n, beta, Bs, underflow",
    [(8000, 3.0, (0.0, 0.25, 0.5), True), (4000, BC3, (0.0,), False)],
)
def test_skipped_lanes_keep_every_query_bitwise(get_table, n, beta, Bs, underflow):
    # at beta = 3 most lanes of exp(w - max w) underflow to 0, at beta_c none do;
    # psi_n and the transform at a field step are bitwise the full-exp forms,
    # the scaled mgfs, and at beta_c the windowed mgf's gap (the one test c7
    # holds to the limit law), sit within the derived bound of the decimal oracle
    t = get_table(3, n, beta)
    log_x = _log_x(t)
    j = np.arange(n + 1, dtype=np.float64)
    for B in Bs:
        w = log_x + 2.0 * B * j
        zeros = np.count_nonzero(np.exp(w - float(np.max(w))) == 0.0)
        assert zeros > n // 2 if underflow else zeros == 0
        law = spin_law(t, B)
        assert law.psi == 3 * beta / 2.0 - B + _lse_full(w) / n
        for dB in (1e-5, -1e-5, 0.01):
            assert law.mgf(dB) == _increment_full(t, B, dB)
    law = spin_law(t)
    js, x, m = _decimal_law(log_x)[:3]
    everywhere = np.ones(n + 1, dtype=bool)
    for r in (0.5, 1.0, 2.0, -2.0, 10.0):
        want = _decimal_mgf(log_x, r, everywhere)
        bound = _mgf_error_bound(n, js, x, m, r / n**0.75, everywhere)
        assert abs(law.mgf(r / n**0.75) - want) <= bound * want, r
    if beta == BC3:
        gap = _window_mgf_gap(law)
        inside = np.abs(j - n // 2) <= n ** (5.0 / 6.0)
        full, windowed = _decimal_mgf(log_x, 1.0, everywhere), _decimal_mgf(log_x, 1.0, inside)
        err = _mgf_error_bound(n, js, x, m, 1.0 / n**0.75, everywhere) * full
        err += _mgf_error_bound(n, js, x, m, 1.0 / n**0.75, inside) * windowed
        assert abs(gap - abs(full - windowed)) <= err + _U * gap


@pytest.mark.parametrize("d", [3, 4])
def test_moments_are_bitwise_the_pow_expression(get_table, d):
    # repeated squaring of the integer grid is exact, as is pow, while |s|^k < 2^53
    for n in (500, 1000, 2000, 4000):
        law = spin_law(get_table(d, n, critical_beta(d)))
        s = 2.0 * np.arange(n + 1, dtype=np.float64) - n
        for k in (0, 1, 2, 3, 4):
            assert law.moment(k) == float(np.sum(law.masses * s**k)), (n, k)


def test_spin_law_is_symmetric_and_centered(get_table):
    law = spin_law(get_table(3, 100, 0.45))
    assert law.masses.shape == (101,)
    assert np.sum(law.masses) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(law.masses, law.masses[::-1])
    assert abs(law.moment(1)) <= 1e-12
    assert law.moment(2) > 0.0
    with pytest.raises(ValueError):
        law.moment(-1)
    with pytest.raises(ValueError):
        law.masses[0] = 0.5  # the stored buffer is frozen


def test_tilted_law_mean_matches_magnetization(get_table):
    t = get_table(3, 100, 0.45)
    law = spin_law(t, B=0.2)
    assert law.moment(1) / t.n == pytest.approx(law.M, abs=1e-14)
    assert law.M > 0.0


def test_pressure_gap_to_limit_halves_with_n(get_table):
    d, beta, B = 3, 0.4, 0.1
    limit = thermo_point(ModelParams(d, beta, B)).psi
    gaps = [abs(spin_law(get_table(d, n, beta), B).psi - limit) for n in (250, 500, 1000)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    # the correction is c/n + O(1/n^2): consecutive ratios sit near 2
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.2)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.2)


def test_increment_based_derivatives_beat_naive_differencing(get_table):
    t = get_table(3, 500, 0.4)
    B, h = 0.1, 1e-5
    law = spin_law(t, B)
    up = math.log(law.mgf(h)) / law.n
    dn = math.log(law.mgf(-h)) / law.n
    m_fd = (up - dn) / (2.0 * h)
    chi_fd = (up + dn) / (h * h)
    assert law.M == pytest.approx(m_fd, abs=1e-8)
    assert law.chi == pytest.approx(chi_fd, abs=1e-7)
    psi_up, psi_dn = spin_law(t, B + h).psi, spin_law(t, B - h).psi
    # the increment itself is the pressure difference, to roundoff
    assert up == pytest.approx(psi_up - law.psi, abs=1e-13)
    # differencing the pressures directly cancels ~10 digits; the increment
    # form (one tilted sum against the same base) keeps them
    naive = (psi_up - 2.0 * law.psi + psi_dn) / h**2
    chi = law.chi
    assert abs(chi_fd - chi) < abs(naive - chi)


def _decimal_increments(w, dBs):
    """psi_n(B + dB) - psi_n(B) for each dB under log-weights w at B, as 40-digit decimals.

    Tilts the exact float inputs by 2 dB j and takes the difference of the
    two log-sums, -dB + (1/n)(log sum e^{w_j + 2 dB j} - log sum e^{w_j}), so
    the identity e^{2 dB j} = e^{dB n} e^{dB s} that the transform rests on
    is not used; lanes are left out as in _decimal_law.
    """
    n = len(w) - 1
    top = float(np.max(w))
    lanes = np.flatnonzero(w - top > -250.0)
    with localcontext() as ctx:
        ctx.prec = 40
        xs = [(Decimal(float(w[j])) - Decimal(top), int(j)) for j in lanes]
        plain = sum(x.exp() for x, _ in xs).ln()
        out = []
        for dB in dBs:
            step = 2 * Decimal(dB)
            tilted = sum((x + step * j).exp() for x, j in xs).ln()
            out.append(-Decimal(dB) + (tilted - plain) / n)
        return out


@pytest.mark.parametrize("dB", [1e-5, -1e-5, 2e-4, -2e-4, 4e-4, -4e-4])
def test_log_mgf_is_the_pressure_increment_of_the_decimal_oracle(get_table, dB):
    # (1/n) log E[e^{dB S}] against psi_n(B + dB) - psi_n(B) from the tilted
    # sums. The mgf's relative error delta is _mgf_error_bound with the
    # argument dB s rounded once; log turns it into an absolute delta and adds
    # 2u |log mgf|, and the division by n and the oracle's own rounding add u
    # of the increment each
    n, beta, B = 500, 0.4, 0.1
    w = _log_x(get_table(3, n, beta)) + 2.0 * B * np.arange(n + 1, dtype=np.float64)
    js, x, m = _decimal_law(w)[:3]
    law = spin_law(get_table(3, n, beta), B)
    got = math.log(law.mgf(dB)) / n
    delta = _mgf_error_bound(n, js, x, m, dB, np.ones(n + 1, dtype=bool), arg=1)
    bound = (delta + 2 * _U * abs(got * n)) / n + 2 * _U * abs(got)
    (want,) = _decimal_increments(w, (dB,))
    assert abs(got - float(want)) <= bound


def test_increment_rejects_a_non_finite_step(get_table):
    law = spin_law(get_table(3, 100, 0.4), 0.1)
    for dB in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            law.mgf(dB)


def test_offcritical_variance_approaches_chi(get_table):
    # away from the critical point S_n/sqrt(n) is in the Gaussian regime:
    # its variance tends to the limit susceptibility
    chi = thermo_point(ModelParams(3, 0.4, 0.0)).chi
    v = {n: spin_law(get_table(3, n, 0.4)).moment(2) / n for n in (500, 2000)}
    assert abs(v[2000] - chi) < abs(v[500] - chi)
    assert v[2000] == pytest.approx(chi, rel=0.01)


def test_mgf_scaled_basics(get_table):
    n = 500
    law = spin_law(get_table(3, n, BC3))
    scale = n**0.75
    assert law.mgf(0.0) == 1.0
    for r in (0.5, 1.0, 2.0):
        a, b = law.mgf(r / scale), law.mgf(-r / scale)
        assert a == pytest.approx(b, rel=1e-13)  # the law is symmetric
        assert a > 1.0
    assert law.mgf(0.5 / scale) < law.mgf(1.0 / scale) < law.mgf(2.0 / scale)
    assert math.isfinite(law.mgf(700.0 / n)) and math.isfinite(law.mgf(-700.0 / n))  # |t| n = 700
    for t in (1.5, -1.5, math.nan, math.inf, -math.inf):  # |t| n = 750; abs(nan) * n <= 700 is False
        with pytest.raises(ValueError):
            law.mgf(t)


def test_truncation_report_shape_and_honesty(get_table):
    rep = critical_window([spin_law(get_table(3, 250, BC3))])
    assert rep["grid"] == [250]
    (tail,), (bound,) = rep["estimates"]["tail_mass"], rep["targets"]["tail_bound"]
    assert 0.0 < tail < 0.01
    assert bound == 250.0**-4.0
    # at these sizes the tail is far above n^-4; the report must say so
    assert tail > bound
    assert rep["pass"] is False


def test_truncation_tail_shrinks_with_n(get_table):
    laws = [spin_law(get_table(3, n, BC3)) for n in (250, 500, 1000)]
    tails = critical_window(laws)["estimates"]["tail_mass"]
    assert tails[0] > tails[1] > tails[2] > 0.0
    # regression pins (measured): 3.7104e-3, 2.6028e-3, 1.4457e-3
    assert tails[0] == pytest.approx(3.7104e-3, rel=1e-3)
    assert tails[1] == pytest.approx(2.6028e-3, rel=1e-3)
    assert tails[2] == pytest.approx(1.4457e-3, rel=1e-3)


def test_the_critical_window_is_symmetric_at_odd_n(get_table):
    # |2j - n| > 2 n^{5/6}, i.e. (2j - n)^6 > 64 n^5, decided in integers
    d, n = 4, 999
    law = spin_law(get_table(d, n, critical_beta(d)))
    outside = [j for j in range(n + 1) if (2 * j - n) ** 6 > 64 * n**5]
    assert sorted(n - j for j in outside) == outside
    half = len(outside) // 2
    assert (outside[half - 1], outside[half]) == (183, 816)  # the window is j = 184..815
    tail = math.fsum(float(law.masses[j]) for j in outside)
    assert critical_window([law])["estimates"]["tail_mass"] == [pytest.approx(tail, rel=1e-12)]


def test_truncation_requires_the_critical_table(get_table):
    with pytest.raises(ValueError):
        critical_window([spin_law(get_table(3, 100, 0.4))])
    with pytest.raises(ValueError):
        critical_window([spin_law(get_table(3, 100, BC3), 0.1)])


def test_spinlaw_csv_roundtrip(tmp_path, get_table):
    law = spin_law(get_table(3, 100, 0.45))
    path = tmp_path / "law.csv"
    write_spinlaw_csv(law, str(path))
    text = path.read_text()
    assert "np.float64" not in text  # cells are plain reprs
    lines = text.strip().split("\n")
    assert lines[0] == "j,s,prob"
    assert len(lines) == 102
    total = 0.0
    for j, line in enumerate(lines[1:]):
        sj, ss, sp = line.split(",")
        assert int(sj) == j
        assert int(ss) == 2 * j - 100
        total += float(sp)
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the `finiten` verify checks


@pytest.mark.parametrize("d", [2, 3])
def test_finite_size_checks_read_each_table_once(monkeypatch, cache_dir, d):
    reads = Counter()
    real = finiten.log_g_table

    def counting(d, n, beta, cache_dir=None):
        reads[n, beta] += 1
        return real(d, n, beta, cache_dir=cache_dir)

    monkeypatch.setattr(finiten, "log_g_table", counting)
    checks = finite_size_checks(d, (250, 500), cache_dir=cache_dir)
    names = ["free_spin_closed_forms", "pressure_gap_shrinks", "derivative_consistency"]
    if d >= 3:
        names.append("critical_window")
    assert [c["check"] for c in checks] == names
    keys = ["check", "d", "grid", "estimates", "targets", "tolerances", "pass"]
    assert all(list(c) == keys and c["d"] == d for c in checks)
    # one beta = 0 table, the beta = 0.4 pair shared by two checks, the beta_c pair
    want = {(250, 0.0): 1, (250, 0.4): 1, (500, 0.4): 1}
    if d >= 3:
        want.update({(250, critical_beta(d)): 1, (500, critical_beta(d)): 1})
    assert reads == want
    assert checks[2]["grid"] == [500]


@pytest.mark.parametrize("d", [3, 4])
def test_derivative_gaps_are_below_rounding_noise_of_a_plain_difference(cache_dir, d):
    # Richardson in h from 2e-4: a plain central difference at h = 1e-5 gave
    # M/chi gaps of 4.4e-10/6.4e-10 at d = 3 and 9.9e-11/1.5e-9 at d = 4
    check = finite_size_checks(d, cache_dir=cache_dir)[2]
    assert check["check"] == "derivative_consistency" and check["grid"] == [500]
    assert check["estimates"]["M_fd_gap"] <= 1e-12
    assert check["estimates"]["chi_fd_gap"] <= 2e-10
    assert check["pass"] is True


@pytest.mark.parametrize("d", [2, 3, 4])
def test_chi_fd_gap_is_the_exact_gap_within_its_rounding_bound(get_table, d):
    # the printed chi_fd_gap against the same Richardson on 40-digit increments
    # of the law's float weights, minus the 40-digit chi: the two gaps differ
    # by the rounding of the float steps (chi_fd_rounding), chi_n's own error
    # (_spin_law_error_bounds), the gap's subtraction and the oracle's chi
    n, beta, B, h = 500, 0.4, 0.1, 2e-4
    table = get_table(d, n, beta)
    w = _log_x(table) + 2.0 * B * np.arange(n + 1, dtype=np.float64)
    js, x, m, mean, var = _decimal_law(w)
    est = finiten.derivative_consistency(spin_law(table, B))["estimates"]
    up1, dn1, up2, dn2 = _decimal_increments(w, (h, -h, 2.0 * h, -2.0 * h))
    with localcontext() as ctx:
        ctx.prec = 40
        c1 = (up1 + dn1) / Decimal(h) ** 2
        c2 = (up2 + dn2) / Decimal(2.0 * h) ** 2
        exact_gap = float(abs((4 * c1 - c2) / 3 - Decimal(var) / n))
    rel_chi = _spin_law_error_bounds(n, js, x, m, mean, var)[1]
    chi = var / n
    slack = est["chi_fd_rounding"] + rel_chi * chi + _U * est["chi_fd_gap"] + 2 * _U * chi
    assert abs(est["chi_fd_gap"] - exact_gap) <= slack


@pytest.mark.parametrize("d", [2, 3])
def test_finite_size_checks_build_each_law_once(monkeypatch, cache_dir, d):
    laws = Counter()
    real = finiten.spin_law

    def counting(table, B=0.0):
        laws[table.n, table.beta, B] += 1
        return real(table, B)

    monkeypatch.setattr(finiten, "spin_law", counting)
    finite_size_checks(d, (250, 500), cache_dir=cache_dir)
    # the free-spin pair, the beta = 0.4 laws shared by two checks, the beta_c pair
    want = {(250, 0.0, 0.7): 1, (250, 0.0, 0.0): 1, (250, 0.4, 0.1): 1, (500, 0.4, 0.1): 1}
    if d >= 3:
        want.update({(250, critical_beta(d), 0.0): 1, (500, critical_beta(d), 0.0): 1})
    assert laws == want


# ---------------------------------------------------------------------------
# end to end: E[Z_n] by enumerating every pairing and every spin configuration


def _pairings(points):
    """Every perfect matching of `points`, as a tuple of pairs."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, second in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1 :]):
            yield ((first, second),) + tail


def _enumerated_counts(d, n):
    """Integer counts of (sum over edges of s_u s_v, sum of s) over every pairing and spin configuration.

    Configuration model: half-edge h sits on vertex h // d; self-loops and
    multi-edges count like any edge. Returns the counts and the pairing count.
    """
    graphs = Counter(
        tuple(sorted((a // d, b // d) for a, b in pairing)) for pairing in _pairings(list(range(d * n)))
    )
    tally = Counter()
    for spins in itertools.product((-1, 1), repeat=n):
        for edges, mult in graphs.items():
            tally[sum(spins[u] * spins[v] for u, v in edges), sum(spins)] += mult
    return tally, sum(graphs.values())


@pytest.mark.parametrize("d, n", [(3, 2), (3, 4), (2, 4), (4, 2), (2, 6)])
def test_finite_pressure_matches_enumerated_pairings(d, n):
    """psi_n, M_n and chi_n against E[Z_n] and the mean and variance of S under it.

    The oracle sums every (pairing, spins) weight e^{beta E + B S} in math.fsum
    and centres S on its own mean. All three share the pressure's 1e-14 gate:
    the masses are exp of the same log-weights minus their log-sum-exp, so a
    rounding that moves the log-weights by e moves every mass by a relative
    ~e, M_n (an average of S/n in [-1, 1]) by at most ~e, and chi_n (an
    average of (S - E S)^2/n, centred, so the mean's error enters only at
    second order) by ~2e chi_n.
    """
    tally, pairings = _enumerated_counts(d, n)
    for beta, B in ((0.0, 0.7), (0.4, 0.1), (1.3, 0.35)):
        w = {(e, s): c * math.exp(beta * e + B * s) for (e, s), c in tally.items()}
        z = math.fsum(w.values())
        mean = math.fsum(v * s for (_, s), v in w.items()) / z
        var = math.fsum(v * (s - mean) ** 2 for (_, s), v in w.items()) / z
        law = spin_law(log_g_table(d, n, beta), B)
        assert abs(law.psi - math.log(z / pairings) / n) <= 1e-14, (beta, B)
        assert abs(law.M - mean / n) <= 1e-14, (beta, B)
        assert abs(law.chi - var / n) <= 1e-14, (beta, B)
