"""The recurrence table fill against a decimal oracle, the closed form and exact cases."""

import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from annealed_ising import critical_beta, kernels
from annealed_ising.kernels import KERNEL_BACKEND, gtable_values
from pairing_laws import brute_force_law, cross_count_law

BETAS = ("0", "0.2", "bc", "1.2", "3.0")
U = 2.0**-53


def _beta(label, d):
    return critical_beta(d) if label == "bc" else float(label)


def decimal_log_g(k, m, beta):
    """log g_beta(k, m) to 40 digits, summed over the law of X; no k-recurrence.

    The sum starts at the support's first term P(X = x0) c^x0, x0 = k mod 2,
    from an exact ratio of integer double factorials, and walks x up in
    steps of 2 by the ratio c²(k-x)(m-k-x)/((x+1)(x+2)) of neighbouring
    terms. Every term is positive; at 40 digits the ~m/2 roundings stay
    below 1e-35 relative, far under a double's ulp. The ratio falls with x,
    so once it is below 1/2 the rest of the sum is below the last term: the
    walk stops there when that term is under 1e-42 of the total.
    """
    x0 = k & 1
    with localcontext() as ctx:
        ctx.prec = 40
        c = (Decimal(-2) * Decimal(beta)).exp()
        c2 = c * c
        term = _first_mass(k, m) * c**x0
        total = term
        for x in range(x0, min(k, m - k) - 1, 2):
            ratio = c2 * ((k - x) * (m - k - x)) / ((x + 1) * (x + 2))
            term *= ratio
            total += term
            if 2 * ratio < 1 and term < total * Decimal("1e-42"):
                break
        return total.ln()


@functools.lru_cache(maxsize=4096)
def _first_mass(k, m):
    """P(X = k mod 2) to 40 digits, from an exact ratio of integers; shared by every beta."""
    x0 = k & 1
    # P(X = x0) = (k-1-x0)!! (m-k-1-x0)!! (k(m-k))^x0 / (m-1)!!; dividing out
    # (m-k-1-x0)!! leaves the top (k+x0)/2 factors of (m-1)!!
    num = math.prod(range(k - 1 - x0, 0, -2)) * (k * (m - k)) ** x0
    den = math.prod(range(m - 1, m - k - 1 - x0, -2))
    with localcontext() as ctx:
        ctx.prec = 40
        return Decimal(num) / Decimal(den)


def gather_fill(d, n, beta):
    """The recurrence one k per step, then every row read on its own.

    f_{k+1} = (w_k (m-2k) f_k + k f_{k-1}) / (m-k) with w_k = c² for odd k,
    as in the kernels docstring, for k up to the smallest odd index >= m/2.
    Each pair (f_k, f_{k+1}) with k even is multiplied by 2^830 when either
    is below 2^-830, and every index keeps its own count of such shifts.
    Row j = log f_dj minus its count times 830 ln 2, minus 2β when dj is odd.
    This is the recurrence as the kernels docstring defines it, one scalar
    step at a time; the blocked kernel must stay within both fills' derived
    bounds of it.
    """
    m = d * n
    c2 = math.exp(-4.0 * beta)
    f, depth = [1.0, 1.0], [0, 0]
    for k in range(1, (m // 2) | 1):
        w = c2 if k & 1 else 1.0
        f.append((w * (m - 2 * k) * f[k] + k * f[k - 1]) / (m - k))
        depth.append(depth[k])
        if k & 1 == 0 and min(f[k], f[k + 1]) < 2.0**-830:
            for i in (k, k + 1):
                f[i] *= 2.0**830
                depth[i] += 1
    half = np.log(np.array([f[d * j] for j in range(n // 2 + 1)]))
    for j in range(n // 2 + 1):
        half[j] -= depth[d * j] * (830 * math.log(2.0))
        if d * j & 1:
            half[j] -= 2.0 * beta
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


def test_backend_name_is_sane():
    assert KERNEL_BACKEND == "numpy"


@pytest.mark.parametrize("beta", [math.nan, math.inf, -0.1])
def test_values_reject_a_negative_or_non_finite_beta(beta):
    with pytest.raises(ValueError):
        gtable_values(3, 4, beta)


@pytest.mark.parametrize(
    "d, n, beta",
    [
        (3, 1, 0.5),  # dn = 3 odd: no perfect matching
        (1, 3, 0.2),  # dn = 3 odd
        (0, 4, 0.3),  # no half-edges
        (3, 0, 0.3),  # no vertices
    ],
)
def test_values_reject_a_size_without_a_perfect_matching(d, n, beta):
    with pytest.raises(ValueError):
        gtable_values(d, n, beta)


def test_values_shape_and_clamps():
    out = gtable_values(3, 101 * 2, 0.7)
    assert out.shape == (203,)
    assert out[0] == 0.0 and out[-1] == 0.0
    assert np.all(out <= 0.0)
    assert np.array_equal(out, out[::-1])


ORACLE_GRID = [
    (d, n, label)
    for d, n in [(3, 2), (3, 50), (4, 101), (3, 998), (3, 4000), (4, 4000)]
    for label in BETAS
] + [(3, 1000, "3.0"), (3, 8000, "0.2"), (3, 8000, "1.2")]


@pytest.mark.parametrize("d,n,label", ORACLE_GRID)
def test_windowed_matches_full_sum(d, n, label):
    """Each checked row within the fill's rounding bound of the 40-digit sum.

    The full sum is `decimal_log_g` over the whole law of X. The grid is the
    one the earlier windowed fill was held to, plus the sizes where its
    windows had to widen (n = 1000 at β = 3, n = 8000).

    The bound 8u(k + max(1, |log g_k|)), u = 2^-53, k = min(dj, dn-dj), is
    the kernels docstring's count of roundings: <= 4u per recurrence step and
    ku from c², so 5ku on f_k, then <= 7u|log g_k| + O(u) from the log, the
    rescale shift and the -2β. It is fixed by that count, not by what the
    fill prints. A flat 1e-12 cannot hold: one ulp of |log g| > 4096 is
    already 9.1e-13.
    """
    beta = _beta(label, d)
    got = gtable_values(d, n, beta)
    if n <= 101:
        rows = range(n + 1)
    else:
        rows = {1, 2, n // 8, n // 4, n // 2 - 1, n // 2, n - 2, int(np.argmin(got))}
    _assert_rows_match_oracle(d, n, beta, got, rows)


def test_rescaled_rows_match_decimal_oracle():
    # |log g| reaches ~3150 here, so the fill rescales f by 2^830 five times;
    # check every row whose log f = log g + 2β(k mod 2) lies within 15 nats
    # of a rescale level, on both sides of it
    d, n, beta = 3, 3000, 8.0
    got = gtable_values(d, n, beta)
    level = 830 * math.log(2.0)
    log_f = got[: n // 2 + 1] + 2.0 * beta * ((d * np.arange(n // 2 + 1)) & 1)
    depth = np.rint(-log_f / level)
    rows = np.flatnonzero((depth >= 1) & (np.abs(log_f + depth * level) <= 15.0))
    assert set(depth[rows]) == {1, 2, 3, 4, 5}
    _assert_rows_match_oracle(d, n, beta, got, rows.tolist())


@pytest.mark.parametrize(
    "d,n",
    [(d, n) for d in range(1, 7) for n in (1, 2, 3, 7, 50, 101, 300, 998, 4000) if d * n % 2 == 0]
    + [(3, 8000)],
)
def test_every_degree_matches_decimal_oracle(d, n):
    # d = 1..6 and beta up to 8, where c² = e^{-32}: the first rows, the
    # middle and the deepest row, under the same bound
    for label in ("0", "0.2", "bc", "1.2", "3.0", "8.0"):
        if label == "bc" and d < 3:
            continue  # no finite critical point
        beta = _beta(label, d)
        got = gtable_values(d, n, beta)
        rows = {min(1, n), n // 2, int(np.argmin(got))}
        _assert_rows_match_oracle(d, n, beta, got, rows)


@pytest.mark.parametrize(
    "d,n",
    [(d, n) for d in range(1, 7) for n in (1, 2, 3, 7, 50, 101, 300, 998, 4000) if d * n % 2 == 0]
    + [(3, 8000)],
)
def test_fill_is_bitwise_the_gather_fill(d, n):
    """Every row against the one-step gather fill: bitwise at beta = 0, else within a bound.

    At beta = 0 both fills take c² = 1 and give exactly 0. Elsewhere the
    blocked kernel rounds in another order than the one-step recurrence, and
    each is within 8u(k + max(1, |log g_k|)) of log g_k (the kernels
    docstring for the blocked fill, the same count for the one-step one), so
    they differ by at most the sum of the two, 16u(k + max(1, |log g_k|)).
    Rescaled rows (beta = 8 once dn >= 1800) are among the rows checked.
    """
    labels = ("0.2",) if n == 8000 else ("0", "0.2", "bc", "1.2", "3.0", "8.0")
    m = d * n
    k = np.minimum(d * np.arange(n + 1), m - d * np.arange(n + 1))
    for label in labels:
        if label == "bc" and d < 3:
            continue  # no finite critical point
        beta = _beta(label, d)
        got, ref = gtable_values(d, n, beta), gather_fill(d, n, beta)
        if beta == 0.0:
            assert np.array_equal(got, ref)
            continue
        bound = 16 * U * (k + np.maximum(1.0, np.abs(ref)))
        assert np.all(np.abs(got - ref) <= bound), (label, np.max(np.abs(got - ref) / bound))


@pytest.mark.parametrize("label", ["0.2", "bc", "1.2", "8.0"])
@pytest.mark.parametrize("d,n", [(3, 8000), (4, 4000)])
def test_block_seams_match_decimal_oracle(d, n, label):
    # every row whose k = dj is a block's first step k0 = iL, where the stitch
    # rescales the pair (f_k0, f_k0-1), or its last step k0 + L - 1, under the
    # unchanged 8u bound: at d = 3, L = 64 that is both ends of every third
    # block, at d = 4, L = 52 the start of every block
    beta = _beta(label, d)
    size = kernels._block_length(d * n, d * (n // 2))
    first = [j for j in range(n // 2 + 1) if d * j % size == 0]
    last = [j for j in range(n // 2 + 1) if d * j % size == size - 1]
    assert len(first) + len(last) >= 120  # 125 rows at d = 3, 154 at d = 4
    _assert_rows_match_oracle(d, n, beta, gtable_values(d, n, beta), first + last)


def test_a_table_at_n_1e5_matches_decimal_oracle():
    # rows up to k = 36000 of the d = 3, n = 1e5 table, which spans thousands of blocks
    d, n, beta = 3, 100_000, 0.6
    _assert_rows_match_oracle(d, n, beta, gtable_values(d, n, beta), [1, 2, 6000, 12000])


@pytest.mark.parametrize("d,n,beta", [(3, 8000, 0.55), (4, 4000, 8.0), (3, 100_000, 0.6)])
def test_two_fills_are_bitwise_equal(d, n, beta):
    assert np.array_equal(gtable_values(d, n, beta), gtable_values(d, n, beta))


@pytest.mark.parametrize("d,n", [(3, 8000), (3, 50), (1, 2)])
def test_a_c2_that_rounds_to_1_gives_the_free_rows(d, n):
    # e^{-4e-18} rounds to 1.0, so every step is exactly 1: even rows are
    # exactly 0 and odd rows exactly -2β, the bits of the one-step recurrence
    beta = 1e-18
    assert math.exp(-4.0 * beta) == 1.0
    want = np.where((d * np.arange(n + 1)) & 1, -2.0 * beta, 0.0)
    got = gtable_values(d, n, beta)
    assert got.tobytes() == want.tobytes() == gather_fill(d, n, beta).tobytes()


def _assert_rows_match_oracle(d, n, beta, got, rows):
    m = d * n
    for j in sorted(rows):
        k = min(d * j, m - d * j)
        ref = decimal_log_g(k, m, beta)
        bound = 8 * U * (k + max(1.0, abs(float(ref))))
        assert abs(Decimal(float(got[j])) - ref) <= Decimal(bound), (j, float(ref))


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


@pytest.mark.parametrize("d,n", [(1, 2), (3, 8000), (4, 4000)])
def test_the_free_table_is_exactly_zero(d, n):
    # at beta = 0, c² = 1 and every recurrence step is (m-k)/(m-k) = 1 exactly
    assert np.array_equal(gtable_values(d, n, 0.0), np.zeros(n + 1))


def test_an_underflowing_c2_leaves_the_lowest_cross_count():
    # at beta = 1e6, c² = e^{-4e6} is 0 in double: g_k = P(X = k mod 2) c^(k mod 2)
    d, n, beta = 3, 50, 1e6
    got = gtable_values(d, n, beta)
    for j in range(n + 1):
        k = d * j
        x0 = k & 1
        want = math.log(cross_count_law(k, d * n)[x0]) - 2.0 * beta * x0
        assert abs(got[j] - want) <= 1e-12 * max(1.0, abs(want)), j


@pytest.mark.parametrize("beta", [0.15, 0.55, 2.0])
@pytest.mark.parametrize(
    "d,n", [(d, n) for d in range(1, 13) for n in range(1, 13) if d * n <= 12 and d * n % 2 == 0]
)
def test_matches_enumerated_pairings(d, n, beta):
    # g = Σ_x P(X=x) c^x with the law counted over every perfect matching
    c = math.exp(-2.0 * beta)
    got = np.exp(gtable_values(d, n, beta))
    for j in range(n + 1):
        law = brute_force_law(d * j, d * n)
        want = math.fsum(p * c**x for x, p in law.items())
        assert got[j] == pytest.approx(want, rel=1e-14, abs=0.0), j
