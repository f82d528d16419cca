"""The windowed table fill against the full sum and the closed form."""

import math

import numpy as np
import pytest

from annealed_ising import critical_beta
from annealed_ising.kernels import KERNEL_BACKEND, _fill_half, gtable_values, log_factorials

BETAS = ("0", "0.2", "bc", "1.2", "3.0")
GATHER_CHUNK = 32


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


def gather_fill_half(d, n, beta, lnfact, out):
    """The windowed fill with every term read by its own computed-index gather.

    Same modes, windows, 32-row chunks, -inf padding and widening as the
    kernel, but each term looks up lnfact[x], lnfact[(k-x)/2] and
    lnfact[(m-k-x)/2] at indices computed per term. The kernel's strided row
    copies must reproduce it bit for bit.
    """
    m = d * n
    coef = math.log(2.0) - 2.0 * beta
    c2 = math.exp(-4.0 * beta)
    widened = 0
    for s in range(0, out.size, GATHER_CHUNK):
        k = d * np.arange(s, min(s + GATHER_CHUNK, out.size), dtype=np.int64)
        mk = m - k
        x0 = k & 1
        top = (np.minimum(k, mk) - x0) >> 1
        qa, qb = 1.0 - c2, 3.0 + c2 * m
        qc = 2.0 - c2 * k.astype(np.float64) * mk
        x = np.clip(-2.0 * qc / (qb + np.sqrt(qb * qb - 4.0 * qa * qc)), x0, x0 + 2 * top)
        centre = np.clip(np.rint((x - x0) / 2.0).astype(np.int64), 0, top)
        curv = 4.0 / (x + 1.0) + 2.0 / (k - x + 2.0) + 2.0 / (mk - x + 2.0)
        w = np.ceil(1.15 * np.sqrt(2.0 * 40.0 / curv)).astype(np.int64) + 2
        rows = np.arange(k.size)
        while rows.size:
            lo = np.maximum(centre[rows] - w, 0)
            hi = np.minimum(centre[rows] + w, top[rows])
            done, vals = _gather_window(k[rows], m, lo, hi, top[rows], coef, lnfact)
            out[s + rows[done]] = vals
            rows, w = rows[~done], 2 * w[~done]
            widened += rows.size
    return widened


def _gather_window(k, m, lo, hi, top, coef, lnfact):
    mk = m - k
    base = lnfact[k] + lnfact[mk] + lnfact[m // 2] - lnfact[m]
    span = hi - lo
    cols = np.arange(int(span.max()) + 1)
    pad = cols > span[:, None]
    xs = (k & 1)[:, None] + 2 * np.minimum(lo[:, None] + cols, hi[:, None])
    t = base[:, None] - lnfact[xs]
    t -= lnfact[(k[:, None] - xs) >> 1]
    t -= lnfact[(mk[:, None] - xs) >> 1]
    t += coef * xs
    t[pad] = -np.inf
    mx = t.max(axis=1)
    floor = mx - 40.0
    ends = t[np.arange(k.size), span]
    done = ((lo == 0) | (t[:, 0] <= floor)) & ((hi == top) | (ends <= floor))
    t = t[done]
    t -= mx[done, None]
    return done, mx[done] + np.log(np.exp(t, out=t).sum(axis=1))


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


def test_log_factorials_is_bitwise_per_entry_lgamma():
    m = 30000
    assert np.array_equal(log_factorials(m), [math.lgamma(i + 1.0) for i in range(m + 1)])


def test_backend_name_is_sane():
    assert KERNEL_BACKEND == "numpy"


@pytest.mark.parametrize("beta", [math.nan, math.inf, -0.1])
def test_values_reject_a_negative_or_non_finite_beta(beta):
    with pytest.raises(ValueError):
        gtable_values(3, 4, beta)


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


@pytest.mark.parametrize(
    "d,n",
    [(d, n) for d in range(1, 7) for n in (1, 2, 3, 7, 50, 101, 300, 998, 4000) if d * n % 2 == 0]
    + [(3, 8000)],
)
def test_fill_is_bitwise_the_gather_fill(d, n):
    # every row, widened ones included, sums the same terms in the same order
    # as the per-term gather, so the tables (and cache files) match bit for bit
    lnfact = log_factorials(d * n)
    labels = ("0.2",) if n == 8000 else ("0", "0.2", "bc", "1.2", "3.0", "8.0")
    for label in labels:
        if label == "bc" and d < 3:
            continue  # no finite critical point
        beta = _beta(label, d)
        got, ref = np.empty(n // 2 + 1), np.empty(n // 2 + 1)
        assert _fill_half(d, n, beta, lnfact, got) == gather_fill_half(d, n, beta, lnfact, ref)
        assert np.array_equal(got, ref), (label, np.max(np.abs(got - ref)))
