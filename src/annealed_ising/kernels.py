"""Log-factorial prefix and the O(dn) recurrence fill of the log g-table.

Row j of the table is log g_k with k = dj, m = dn and g_k = E[c^X], c =
e^{-2β}, X the cross count of a uniform perfect matching of m points with k
marked. Weighting each matching by c^(cross pairs), Isserlis' theorem makes
the weights sum to E[U^k V^{m-k}] for standard normals U, V with correlation
c, so Σ_k C(m,k) g_k s^k = (1 + 2cs + s²)^{m/2}. Differentiating in s gives

    (m-k) g_{k+1} = c (m-2k) g_k + k g_{k-1},    g_0 = 1, g_1 = c.

Parity split: X ≡ k (mod 2), so g_k = c^{k mod 2} f_k with

    f_{k+1} = (w_k (m-2k) f_k + k f_{k-1}) / (m-k),    f_0 = f_1 = 1,

w_k = 1 for even k and c² for odd k. Only c² = e^{-4β} enters, and an odd
row is log f_k - 2β, finite for every finite β even where c² underflows to 0.
One pass over k = 0..m/2 fills the whole half table: O(dn) scalar steps.

Rescaling: every f_k <= 1, and f_{k+1} >= f_{k-1}/m. When
f_k or f_{k+1} drops below 2^-830 ~ 1.4e-250 the pair is multiplied by 2^830,
which is exact, and the count of such shifts is subtracted as 830 ln 2 each
in the vectorised log at the end; nothing comes near the subnormal range.

Rounding: both terms of the recurrence are >= 0, so nothing cancels and the
relative error of a sum is at most the larger relative error of its terms.
A step costs at most four roundings (c² (m-2k), the product with f_k, the
sum, the quotient), so f_k carries <= 4ku. f_k is a polynomial of degree
<= k/2 in c² with non-negative coefficients, so the <= 1 ulp of c² adds
<= ku (where c² is subnormal or 0 the c² terms are below 1e-290 of f_k).
The final log (<= 1 ulp), the shift count times 830 ln 2 (three roundings),
the subtraction and the -2β (one each) add <= 7u |log g_k| + O(u). Hence

    |error of row k| <= 8 u (k + max(1, |log g_k|)),    u = 2^-53,

with k the smaller of dj and dn - dj. No flat absolute bound can hold: one
ulp of |log g| > 4096 is already 9.1e-13. At β = 0, c² = 1 makes every f_k
exactly 1, so the free table is exactly 0.

`log_factorials` slices one log-factorial prefix that is shared by every
caller, read-only, and kept for the life of the process; it serves
`finiten.build_table`'s binomials, so it holds 8·max(n) bytes.
"""

from __future__ import annotations

import math

import numpy as np

KERNEL_BACKEND = "numpy"

__all__ = ["KERNEL_BACKEND", "gtable_values", "log_factorials"]

_LN2 = 0.6931471805599453
_SHIFT = 830  # a rescale multiplies f by 2^_SHIFT
_TINY = 2.0**-_SHIFT
_HUGE = 2.0**_SHIFT


# log(i!) for i = 0..size-1, shared by every caller and grown on demand
_prefix = np.empty(0)


def log_factorials(m: int) -> np.ndarray:
    """log(i!) for i = 0..m, a read-only view of the shared prefix.

    Entry i is math.lgamma(i + 1.0), within ~1 ulp, whatever order the calls
    come in; a call computes only the entries the prefix does not hold yet.
    """
    global _prefix
    have = _prefix
    if have.size <= m:
        new = map(math.lgamma, np.arange(have.size + 1.0, m + 2.0).tolist())
        have = np.concatenate([have, np.fromiter(new, np.float64, m + 1 - have.size)])
        have.setflags(write=False)
        _prefix = have
    return have[: m + 1]


def _check_table_args(d: int, n: int, beta: float) -> None:
    """Reject a (d, n, beta) that names no table: dn half-edges need a perfect matching."""
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if (d * n) % 2:
        raise ValueError(f"d*n = {d * n} odd: a perfect matching needs an even half-edge count")
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta={beta}: need a finite beta >= 0")


def gtable_values(d: int, n: int, beta: float) -> np.ndarray:
    """Full table values[j] = log g_beta(dj, dn), j = 0..n.

    Only j <= n/2 is computed; the rest is the k <-> m-k mirror.
    """
    _check_table_args(d, n, beta)
    m = d * n
    c2 = math.exp(-4.0 * float(beta))
    # f_0..f_{m/2}, two steps (odd k, then even k + 1) per turn; the floats
    # a, kf hold m - k and k exactly. The last turn may add f_{m/2+1}.
    f = [1.0, 1.0]
    shifts = []  # the first k carrying one more rescale
    f_prev = f_cur = 1.0
    mf, kf = float(m), 1.0
    for k in range(1, m // 2, 2):
        a = mf - kf
        f_even = (c2 * (a - kf) * f_cur + kf * f_prev) / a
        a -= 1.0
        kf += 1.0
        f_odd = ((a - kf) * f_even + kf * f_cur) / a
        kf += 1.0
        if f_even < _TINY or f_odd < _TINY:
            f_even *= _HUGE
            f_odd *= _HUGE
            shifts.append(k + 1)
        f.append(f_even)
        f.append(f_odd)
        f_prev, f_cur = f_even, f_odd
    k = np.arange(0, d * (n // 2) + 1, d)
    out = np.empty(n + 1)
    half = out[: n // 2 + 1]
    np.log(f[: k[-1] + 1 : d], out=half)
    if shifts:
        half -= np.searchsorted(shifts, k, side="right") * (_SHIFT * _LN2)
    if d & 1:
        half[1::2] -= 2.0 * beta  # the odd rows k = dj
    out[n // 2 + 1 :] = out[: (n + 1) // 2][::-1]
    # g(0, m) = g(m, m) = 1 exactly, and g <= 1 throughout: pin the endpoints
    # and clamp any positive rounding dust.
    out[0] = 0.0
    out[n] = 0.0
    np.minimum(out, 0.0, out=out)
    return out
