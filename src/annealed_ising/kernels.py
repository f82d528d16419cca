"""The blocked O(dn) recurrence fill of the log g-table.

Row j of the table is log g_k with k = dj, m = dn and g_k = E[c^X], c =
e^{-2β}, X the cross count of a uniform perfect matching of m points with k
marked. Weighting each matching by c^(cross pairs), Isserlis' theorem makes
the weights sum to E[U^k V^{m-k}] for standard normals U, V with correlation
c, so Σ_k C(m,k) g_k s^k = (1 + 2cs + s²)^{m/2}. Differentiating in s gives

    (m-k) g_{k+1} = c (m-2k) g_k + k g_{k-1},    g_0 = 1, g_1 = c.

Parity split: X ≡ k (mod 2), so g_k = c^{k mod 2} f_k with

    f_{k+1} = a_k f_k + b_k f_{k-1},    a_k = w_k (m-2k)/(m-k),  b_k = k/(m-k),

f_0 = f_1 = 1, and w_k = 1 for even k and c² for odd k. Only c² = e^{-4β}
enters, and an odd row is log f_k - 2β, finite for every finite β even where
c² underflows to 0. The steps k = 0..K-1, K = d⌊n/2⌋, give every row up to
the middle; the rest is the k <-> m-k mirror.

Blocked solve: the steps split into blocks of L (even) steps, block i
running k = k0..k0+L-1, k0 = iL, from the pair (f_k0, f_k0-1). The
recurrence is linear, so inside a block f_k = f_k0 P_k + f_k0-1 Q_k, where
P and Q, the two entries of the basis' pair axis, are the solutions started
from (1, 0) and (0, 1). All blocks' P and Q advance together: L vectorised
steps, each broadcasting a row of the precomputed a_k and b_k over the pair,
in place of K scalar ones. A scalar stitch then carries the pair from block
to block: f_k0 P + f_k0-1 Q at k0+L and k0+L-1 is the next block's pair,
divided by the power of two 2^e that brings its larger entry into [1/2, 1)
(frexp/ldexp, exact); the e add up to each block's exponent E. A row is
then log(f_k0 P_k + f_k0-1 Q_k) + E ln 2, all rows in one vectorised pass.
The first block starts from (f_0, f_-1) = (1, 0), which step 0 (a_0 = 1,
b_0 = 0) takes to f_1 = 1. Row 0 is log(1·1 + 0·0) + 0 ln 2 = 0.0 exactly
and row n is its mirror: both ends are computed, and need no pin.

Range: a_k, b_k >= 0 and a_k + b_k <= 1 for k <= m/2, so P, Q and every
scaled f_k lie in [0, 1]: nothing overflows. b_k >= 1/m for k >= 1, and at
an even k0 < m/2, a_k0 >= 2/m, so f_k0+t >= max(f_k0, f_k0-1) m^{-(t+1)/2}:
every scaled f_k in a block is at least m^{-(L+1)/2}/2. L is the even
number near sqrt(K/3) (L vectorised steps against K/L scalar stitch turns),
capped so that m^{(L+1)/2} <= 2^500; so every f_k stays above 2^-501, far
inside the normal range, whatever c² is. A basis entry that carries only c²
terms may still go subnormal or to 0 when c² is tiny; the recurrence does
not expand absolute errors (a + b <= 1), so underflow adds at most
~3L 2^-1075 to a scaled f_k >= 2^-501, below 2^-550 of it.

Rounding: every term is >= 0, so nothing cancels and the relative error of a
sum is at most the larger relative error of its terms. A coefficient costs
two roundings (c² (m-2k), the quotient) or one (b_k), a product one and the
sum one, so a step adds <= 4u and P, Q carry <= 4tu after t steps. f_k is a
polynomial of degree <= k/2 in c² with non-negative coefficients, so the
<= 1 ulp of c² adds <= ku (where c² is subnormal or 0 the c² terms are
below 1e-290 of f_k). A seam (two products, a sum, an exact power of two)
adds <= 3u, so f_k carries <= (5k + 3⌈k/L⌉)u <= 8ku; the first block starts
from the exact pair (1, 0) and adds no seam. The final log (<= 1 ulp), E ln 2
(two roundings), the sum and the -2β (one each) add <= 7u |log g_k| + O(u).
Hence

    |error of row k| <= 8 u (k + max(1, |log g_k|)),    u = 2^-53,

with k the smaller of dj and dn - dj. No flat absolute bound can hold: one
ulp of |log g| > 4096 is already 9.1e-13. Where c² rounds to 1 (β = 0, or
β below ~1.4e-17) every step is (m-k)/(m-k) = 1 exactly, so every f_k is 1
and the rows are returned as 0 (and -2β on odd rows) without the solve; the
free table is exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

KERNEL_BACKEND = "numpy"

__all__ = ["KERNEL_BACKEND", "gtable_values"]

_LN2 = 0.6931471805599453
# the block length keeps m^((L+1)/2) <= 2^_RANGE: every scaled f_k in a block
# stays above 2^-(_RANGE+1), far inside the normal range (2^-1022)
_RANGE = 500


def _check_table_args(d: int, n: int, beta: float) -> None:
    """Reject a (d, n, beta) that names no table: dn half-edges need a perfect matching."""
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if (d * n) % 2:
        raise ValueError(f"d*n = {d * n} odd: a perfect matching needs an even half-edge count")
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta={beta}: need a finite beta >= 0")


def _block_length(m: int, top: int) -> int:
    """Steps per block for a fill of `top` steps at m = dn half-edges.

    Even, so every block starts at an even k; about sqrt(top/3), which
    balances the vectorised steps (L of them) against the scalar stitch
    (top/L blocks); and at most the L with m^((L+1)/2) <= 2^_RANGE.
    """
    cap = int(2 * _RANGE / math.log2(m)) - 1
    return max(2, min(2 * max(1, round(math.sqrt(top / 12.0))), cap - cap % 2))


def _block_basis(m: int, top: int, c2: float, size: int, blocks: int) -> np.ndarray:
    """basis[1 + t, 0, i] = P and basis[1 + t, 1, i] = Q at k = i*size + t.

    P and Q, on the pair axis, are block i's solutions from (f_k0, f_k0-1) =
    (1, 0) and (0, 1), k0 = i*size; row 0 holds those pairs' second entries.
    Each step broadcasts one row of the (size, blocks) a_k and b_k over the
    pair; steps past the last row `top` repeat its coefficients (a + b <= 1).
    """
    b = np.add.outer(np.arange(size, dtype=np.float64), np.arange(0.0, blocks * size, size))
    np.minimum(b, top, out=b)  # b[t, i] = k
    den = m - b
    a = den - b  # m - 2k
    a[1::2] *= c2  # odd t is odd k
    a /= den
    b /= den
    del den  # freed before the basis is allocated, to keep the peak small
    basis = np.empty((size + 2, 2, blocks))
    basis[0, 0] = basis[1, 1] = 0.0
    basis[0, 1] = basis[1, 0] = 1.0
    for t in range(size):
        row = basis[t + 2]
        np.multiply(a[t], basis[t + 1], out=row)
        row += b[t] * basis[t]
    return basis


def _stitch(basis: np.ndarray) -> tuple[list, list, list]:
    """Block i's starting pair (f_k0, f_k0-1) divided by 2^E_i, and E_i.

    The pair at the end of block i (the P and Q of the basis' rows -1 and
    -2) combined from its start gives block i + 1's; its larger entry is
    brought into [1/2, 1) by an exact power of two.
    """
    f0, f1, e = 1.0, 0.0, 0
    start, prev, exps = [f0], [f1], [e]
    (pas, qas), (pbs, qbs) = basis[-1].tolist(), basis[-2].tolist()
    for pa, qa, pb, qb in zip(pas[:-1], qas, pbs, qbs):  # blocks - 1 seams
        fa = f0 * pa + f1 * qa
        fb = f0 * pb + f1 * qb
        shift = math.frexp(fa if fa > fb else fb)[1]
        f0, f1, e = math.ldexp(fa, -shift), math.ldexp(fb, -shift), e + shift
        start.append(f0)
        prev.append(f1)
        exps.append(e)
    return start, prev, exps


def gtable_values(d: int, n: int, beta: float) -> np.ndarray:
    """Full table values[j] = log g_beta(dj, dn), j = 0..n.

    Only j <= n/2 is computed; the rest is the k <-> m-k mirror.
    """
    _check_table_args(d, n, beta)
    m = d * n
    top = d * (n // 2)  # the last computed row's k
    c2 = math.exp(-4.0 * float(beta))
    out = np.empty(n + 1)
    half = out[: n // 2 + 1]
    if c2 == 1.0:
        half[:] = 0.0  # every step is (m-k)/(m-k): each f_k is exactly 1
    else:
        size = _block_length(m, top)
        blocks = top // size + 1  # block i runs the steps k = i*size + t, t < size
        basis = _block_basis(m, top, c2, size, blocks)
        start, prev, exps = _stitch(basis)
        # row k = dj lies in block i at step t: f_k = 2^E_i (f_k0 P + f_k0-1 Q)
        i, t = np.divmod(np.arange(0, top + 1, d), size)
        f = np.take(start, i) * basis[t + 1, 0, i] + np.take(prev, i) * basis[t + 1, 1, i]
        np.log(f, out=half)
        half += np.take(exps, i) * _LN2
    if d & 1:
        half[1::2] -= 2.0 * beta  # the odd rows k = dj
    out[n // 2 + 1 :] = out[: (n + 1) // 2][::-1]
    np.minimum(out, 0.0, out=out)  # g <= 1: clamp any positive rounding dust
    return out
