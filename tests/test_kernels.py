"""The windowed table fill against the full sum and the closed form."""

import math

import numpy as np
import pytest

from annealed_ising import critical_beta
from annealed_ising.kernels import KERNEL_BACKEND, _fill_half, gtable_values, log_factorials

BETAS = ("0", "0.2", "bc", "1.2", "3.0")


def _beta(label, d):
    return critical_beta(d) if label == "bc" else float(label)


def full_sum_half(d, n, beta):
    """Rows j = 0..n//2 summed over their whole support: the O(d n^2) oracle.

    Terms are formed exactly as the kernel forms them, so any difference from
    the windowed fill is the omitted tail plus summation rounding.
    """
    m = d * n
    lnfact = log_factorials(m)
    coef = math.log(2.0) - 2.0 * beta
    out = np.empty(n // 2 + 1)
    for j in range(n // 2 + 1):
        k, mk = d * j, m - d * j
        base = lnfact[k] + lnfact[mk] + lnfact[m // 2] - lnfact[m]
        xs = np.arange(k & 1, min(k, mk) + 1, 2)
        t = base - lnfact[xs] - lnfact[(k - xs) >> 1] - lnfact[(mk - xs) >> 1] + coef * xs
        mx = t.max()
        out[j] = mx + np.log(np.exp(t - mx).sum())
    return out


def full_sum_table(d, n, beta):
    half = full_sum_half(d, n, beta)
    out = np.concatenate([half, half[: (n + 1) // 2][::-1]])
    out[0] = out[n] = 0.0
    return np.minimum(out, 0.0)


def closed_form_log_g(k, m, beta):
    """log E[exp(-2 beta X(k, m))] from the law of X, per term in lgamma, summed by fsum.

    P(X=x) = C(k,x) C(m-k,x) x! (k-x-1)!! (m-k-x-1)!! / (m-1)!!, with
    log (2q-1)!! = lgamma(2q+1) - q log 2 - lgamma(q+1).
    """

    def ldf(o):
        q = (o + 1) // 2
        return math.lgamma(2 * q + 1.0) - q * math.log(2.0) - math.lgamma(q + 1.0)

    def lch(a, b):
        return math.lgamma(a + 1.0) - math.lgamma(b + 1.0) - math.lgamma(a - b + 1.0)

    terms = [
        lch(k, x) + lch(m - k, x) + math.lgamma(x + 1.0) + ldf(k - x - 1) + ldf(m - k - x - 1)
        - ldf(m - 1) - 2.0 * beta * x
        for x in range(k & 1, min(k, m - k) + 1, 2)
    ]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def test_log_factorials_exact_small():
    lf = log_factorials(20)
    assert lf.shape == (21,)
    assert lf[0] == 0.0 and lf[1] == 0.0
    for i in range(2, 21):
        assert lf[i] == pytest.approx(math.log(math.factorial(i)), rel=1e-14)


def test_backend_name_is_sane():
    assert KERNEL_BACKEND == "numpy"


def test_values_shape_and_clamps():
    out = gtable_values(3, 101 * 2, 0.7)
    assert out.shape == (203,)
    assert out[0] == 0.0 and out[-1] == 0.0
    assert np.all(out <= 0.0)
    assert np.array_equal(out, out[::-1])


@pytest.mark.parametrize("label", BETAS)
@pytest.mark.parametrize("d,n", [(3, 2), (3, 50), (4, 101), (3, 998), (3, 4000), (4, 4000)])
def test_windowed_matches_full_sum(d, n, label):
    beta = _beta(label, d)
    got = gtable_values(d, n, beta)
    assert np.max(np.abs(got - full_sum_table(d, n, beta))) <= 1e-12


@pytest.mark.parametrize("d,n,beta", [(3, 1000, 3.0), (3, 8000, 0.2)])
def test_widened_windows_end_on_the_full_sum(d, n, beta):
    # rows that outgrow their curvature estimate (most rows at beta = 3, where
    # the mode sits near the support start; 3% of them at beta = 0.2, n = 8000)
    # are summed again over doubled windows until both ends are certified
    out = np.empty(n // 2 + 1)
    assert _fill_half(d, n, beta, log_factorials(d * n), out) > 0
    assert np.max(np.abs(out - full_sum_half(d, n, beta))) <= 1e-12


@pytest.mark.parametrize("label", BETAS)
@pytest.mark.parametrize("d,n", [(3, 600), (4, 301)])
def test_rows_at_the_support_edges(d, n, label):
    # short supports (small j), the middle row, and rows whose mode sits on
    # the support boundary (beta = 0 near j = 0, beta = 3 throughout)
    beta = _beta(label, d)
    got = gtable_values(d, n, beta)
    for j in (1, 2, 3, 4, 5, n // 2 - 1, n // 2, n - 1):
        assert got[j] == pytest.approx(closed_form_log_g(d * j, d * n, beta), abs=1e-11), j


@pytest.mark.parametrize("label", BETAS)
@pytest.mark.parametrize("d,n", [(3, 40), (3, 200), (4, 150), (5, 100)])
def test_matches_lgamma_fsum_closed_form(d, n, label):
    beta = _beta(label, d)
    got = gtable_values(d, n, beta)
    ref = [closed_form_log_g(d * j, d * n, beta) for j in range(n + 1)]
    assert np.max(np.abs(got - ref)) <= 5e-12
