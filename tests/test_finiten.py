"""Finite-size weights, the spin law, and its transforms."""

import math

import numpy as np
import pytest

from annealed_ising import (
    ModelParams,
    build_table,
    critical_beta,
    finite_magnetization,
    finite_pressure,
    finite_pressure_increment,
    finite_susceptibility,
    mgf_scaled,
    pressure,
    spin_law,
    susceptibility,
    truncation_check,
    write_spinlaw_csv,
)
from annealed_ising.matching import log_g_table

BC3 = critical_beta(3)


def test_table_assembly_and_immutability(get_table):
    t = get_table(3, 100, 0.4)
    assert t.n == 100 and t.d == 3 and t.j_star == 50
    assert t.log_x.shape == (101,)
    with pytest.raises(ValueError):
        t.log_x[0] = 1.0  # the buffer is frozen


def test_binomial_part_is_exact():
    # log_x minus the table's own g-part must be log C(n, j); math.comb is
    # an exact big-integer oracle for it
    n = 60
    gt = log_g_table(3, n, 0.55)
    t = build_table(3, n, 0.55, gtable=gt)
    for j in range(n + 1):
        lb = t.log_x[j] - gt.values[j]
        assert lb == pytest.approx(math.log(math.comb(n, j)), abs=1e-11), j


def test_binomial_part_is_bitwise_the_lgamma_expression():
    # assembling log C(n, j) from the log-factorial prefix keeps every double
    # of the per-entry lgamma expression it replaced
    n = 1000
    gt = log_g_table(3, n, 0.4)
    lc = math.lgamma(n + 1.0)
    lbinom = lc - np.array([math.lgamma(i + 1.0) + math.lgamma(n - i + 1.0) for i in range(n + 1)])
    assert np.array_equal(build_table(3, n, 0.4, gtable=gt).log_x, lbinom + gt.values)


def test_prebuilt_gtable_must_match():
    gt = log_g_table(3, 10, 0.3)
    assert np.array_equal(build_table(3, 10, 0.3, gtable=gt).log_x, build_table(3, 10, 0.3).log_x)
    with pytest.raises(ValueError):
        build_table(3, 12, 0.3, gtable=gt)
    with pytest.raises(ValueError):
        build_table(3, 10, 0.31, gtable=gt)


def test_free_spins_have_closed_forms():
    t = build_table(3, 200, 0.0)
    for B in (0.0, 0.7, 1.5):
        assert finite_pressure(t, B) == pytest.approx(math.log(2.0 * math.cosh(B)), abs=1e-12)
        assert finite_magnetization(t, B) == pytest.approx(math.tanh(B), abs=1e-12)
        assert finite_susceptibility(t, B) == pytest.approx(
            1.0 - math.tanh(B) ** 2, abs=1e-10
        )
    assert finite_susceptibility(t, 0.0) == pytest.approx(1.0, abs=1e-12)


def _fsum_susceptibility(table, B):
    """Var(S)/n under the B-tilted weights, centred and summed with math.fsum."""
    n = table.n
    logs = [float(v) + 2.0 * B * j for j, v in enumerate(table.log_x)]
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
    assert finite_susceptibility(t, B) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_spin_law_is_symmetric_and_centered(get_table):
    law = spin_law(get_table(3, 100, 0.45))
    assert law.masses.shape == (101,)
    assert np.sum(law.masses) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(law.masses, law.masses[::-1])
    assert abs(law.moment(1)) <= 1e-12
    assert law.moment(2) > 0.0
    with pytest.raises(ValueError):
        law.log_mass[0] = 0.5  # the stored buffer is frozen (masses is a copy)


def test_tilted_law_mean_matches_magnetization(get_table):
    t = get_table(3, 100, 0.45)
    law = spin_law(t, B=0.2)
    assert law.moment(1) / t.n == pytest.approx(finite_magnetization(t, 0.2), abs=1e-14)
    assert finite_magnetization(t, 0.2) > 0.0


def test_pressure_gap_to_limit_halves_with_n(get_table):
    d, beta, B = 3, 0.4, 0.1
    limit = pressure(ModelParams(d, beta, B))
    gaps = [abs(finite_pressure(get_table(d, n, beta), B) - limit) for n in (250, 500, 1000)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    # the correction is c/n + O(1/n^2): consecutive ratios sit near 2
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.2)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.2)


def test_increment_based_derivatives_beat_naive_differencing(get_table):
    t = get_table(3, 500, 0.4)
    B, h = 0.1, 1e-5
    up = finite_pressure_increment(t, B, h)
    dn = finite_pressure_increment(t, B, -h)
    m_fd = (up - dn) / (2.0 * h)
    chi_fd = (up + dn) / (h * h)
    assert finite_magnetization(t, B) == pytest.approx(m_fd, abs=1e-8)
    assert finite_susceptibility(t, B) == pytest.approx(chi_fd, abs=1e-7)
    # the increment itself is the pressure difference, to roundoff
    assert up == pytest.approx(finite_pressure(t, B + h) - finite_pressure(t, B), abs=1e-13)
    # differencing the pressures directly cancels ~10 digits; the increment
    # form (one tilted sum against the same base) keeps them
    naive = (finite_pressure(t, B + h) - 2.0 * finite_pressure(t, B) + finite_pressure(t, B - h)) / h**2
    chi = finite_susceptibility(t, B)
    assert abs(chi_fd - chi) < abs(naive - chi)


def test_offcritical_variance_approaches_chi(get_table):
    # away from the critical point S_n/sqrt(n) is in the Gaussian regime:
    # its variance tends to the limit susceptibility
    chi = susceptibility(ModelParams(3, 0.4, 0.0))
    v = {n: spin_law(get_table(3, n, 0.4)).moment(2) / n for n in (500, 2000)}
    assert abs(v[2000] - chi) < abs(v[500] - chi)
    assert v[2000] == pytest.approx(chi, rel=0.01)


def test_mgf_scaled_basics(get_table):
    t = get_table(3, 500, BC3)
    assert mgf_scaled(t, 0.0) == 1.0
    for r in (0.5, 1.0, 2.0):
        a, b = mgf_scaled(t, r), mgf_scaled(t, -r)
        assert a == pytest.approx(b, rel=1e-13)  # the law is symmetric
        assert a > 1.0
    assert mgf_scaled(t, 0.5) < mgf_scaled(t, 1.0) < mgf_scaled(t, 2.0)
    for r in (11.0, math.nan, math.inf, -math.inf):  # abs(nan) > 10 is False
        with pytest.raises(ValueError):
            mgf_scaled(t, r)
        with pytest.raises(ValueError):  # its mgf_full is this transform
            truncation_check(t, r=r)


def test_truncation_report_shape_and_honesty(get_table):
    t = get_table(3, 250, BC3)
    rep = truncation_check(t)
    assert rep.n == 250
    assert rep.window_halfwidth == pytest.approx(250.0 ** (5.0 / 6.0))
    assert rep.mgf_full == mgf_scaled(t, 1.0)
    assert 0.0 < rep.tail_mass < 0.01
    assert rep.tail_bound == 250.0**-4.0
    # at these sizes the tail is far above n^-4; the report must say so
    assert rep.tail_mass > rep.tail_bound
    assert rep.passed is False


def test_truncation_tail_shrinks_with_n(get_table):
    tails = [truncation_check(get_table(3, n, BC3)).tail_mass for n in (250, 500, 1000)]
    assert tails[0] > tails[1] > tails[2] > 0.0
    # regression pins (measured): 3.7104e-3, 2.6028e-3, 1.4457e-3
    assert tails[0] == pytest.approx(3.7104e-3, rel=1e-3)
    assert tails[1] == pytest.approx(2.6028e-3, rel=1e-3)
    assert tails[2] == pytest.approx(1.4457e-3, rel=1e-3)


def test_truncation_requires_the_critical_table(get_table):
    with pytest.raises(ValueError):
        truncation_check(get_table(3, 100, 0.4))


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
