"""Log-factorial prefix and the certified windowed fill of the log g-table.

Row j of the table is log g_beta(k, m) with k = dj, m = dn: a log-sum-exp
over the cross counts x = k mod 2, ..., min(k, m-k) in steps of 2 of

    t(x) = base - lnΓ(x+1) - lnΓ((k-x)/2+1) - lnΓ((m-k-x)/2+1) + (ln2 - 2β) x.

The ratio of neighbouring terms, e^{t(x+2) - t(x)} = c²(k-x)(m-k-x)/((x+1)(x+2))
with c = e^{-2β}, falls with x, so t is concave on its support. The fill
therefore sums each row only over a window around its mode and certifies the
cut: each window end sits on the support boundary or at least _CUT nats below
the row maximum. Concavity makes every omitted term smaller than the end term
beside it, so the omitted mass is at most (#omitted) e^{-_CUT} = (#omitted)
4.2e-18 of the row sum: under 5e-14 relative while rows have fewer than 12000
terms, i.e. while dn < 48000. A row that fails the check is summed again over
a doubled window; no row is left uncertified.

Each window is read as contiguous row copies out of strided views over small
padded lookups, so no term needs an index of its own; the terms and sums are
bitwise those of a per-term gather.

`log_factorials` slices one log-factorial prefix that is shared by every
caller, read-only, and kept for the life of the process. It grows only by the
entries a call is missing, so it holds 8·max(dn) bytes: 4.8 MB at dn = 6e5.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

KERNEL_BACKEND = "numpy"

__all__ = ["KERNEL_BACKEND", "gtable_values", "log_factorials"]

_LN2 = 0.6931471805599453
_CUT = 40.0  # nats below the row maximum at which a window may end
# Rows per 2-D block; part of the bitwise result, not a tuning knob: numpy's
# pairwise row sum depends on the block width, the chunk's widest window.
_CHUNK = 32


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


def gtable_values(d: int, n: int, beta: float) -> np.ndarray:
    """Full table values[j] = log g_beta(dj, dn), j = 0..n.

    Only j <= n/2 is computed; the rest is the k <-> m-k mirror.
    """
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta={beta}: need a finite beta >= 0")
    out = np.empty(n + 1)
    _fill_half(d, n, float(beta), log_factorials(d * n), out[: n // 2 + 1])
    out[n // 2 + 1 :] = out[: (n + 1) // 2][::-1]
    # g(0, m) = g(m, m) = 1 exactly, and g <= 1 throughout: pin the endpoints
    # and clamp the positive fp dust left by the lnfact cancellations.
    out[0] = 0.0
    out[n] = 0.0
    np.minimum(out, 0.0, out=out)
    return out


def _fill_half(d: int, n: int, beta: float, lnfact: np.ndarray, out: np.ndarray) -> int:
    """Write out[j] = log g_beta(dj, dn) for j = 0..n//2; return the rows widened.

    Row k's term i = 0..top, at x = x0 + 2i with x0 = k mod 2, is

        ((base - A[x0][i]) - R[h - k//2 + i] - R[h - (m-k)//2 + i]) + X[x0][i]

    with h = m/2, A[x0][i] = lnΓ(x+1), X[x0][i] = (ln2 - 2β)x and R[r] =
    lnΓ(h - r + 1), so a window is one contiguous run of each lookup.
    """
    m = d * n
    h = m // 2
    coef = _LN2 - 2.0 * beta
    c2 = math.exp(-4.0 * beta)
    k = d * np.arange(out.size, dtype=np.int64)
    mk = m - k
    x0 = k & 1
    top = (np.minimum(k, mk) - x0) >> 1
    # Mode: the stable root of (1 - c²)x² + (3 + c²m)x + (2 - c²k(m-k)) = 0,
    # which turns linear at beta = 0 and the form below handles unchanged.
    qa, qb = 1.0 - c2, 3.0 + c2 * m
    qc = 2.0 - c2 * k.astype(np.float64) * mk
    x = np.clip(-2.0 * qc / (qb + np.sqrt(qb * qb - 4.0 * qa * qc)), x0, x0 + 2 * top)
    centre = np.clip(np.rint((x - x0) / 2.0).astype(np.int64), 0, top)
    # t'' ≈ -(1/x + 1/(2(k-x)) + 1/(2(m-k-x))) per unit x, 4 t'' per step in
    # i; a parabola with that curvature drops _CUT nats at this half-width,
    # and the 15% slack covers the skew of all but a few rows.
    curv = 4.0 / (x + 1.0) + 2.0 / (k - x + 2.0) + 2.0 / (mk - x + 2.0)
    width = np.ceil(1.15 * np.sqrt(2.0 * _CUT / curv)).astype(np.int64) + 2
    del qc, x, curv
    base = lnfact[k] + lnfact[mk] + lnfact[h] - lnfact[m]
    off_a = x0 * ((h + 2) // 2)  # the odd-x run follows the even-x run
    off_b = h - (k >> 1)
    off_c = h - (mk >> 1)
    del k, mk, x0
    # A window is at most top + 1 <= m/4 + 1 wide. The zero padding lets every
    # row read that full width; the -inf mask below hides what it reads past
    # its end.
    wide = int(top[-1]) + 1

    def rows_of(*runs):
        return sliding_window_view(np.concatenate([*runs, np.zeros(wide)]), wide)

    half = lnfact[: h + 1]
    lnA = rows_of(half[0::2], half[1::2])
    lnR = rows_of(half[::-1])
    cx = rows_of(coef * np.arange(0.0, h + 1, 2), coef * np.arange(1.0, h + 1, 2))
    widened = 0
    for s in range(0, out.size, _CHUNK):
        rows = np.arange(s, min(s + _CHUNK, out.size))
        w = width[rows]
        while rows.size:
            lo = np.maximum(centre[rows] - w, 0)
            hi = np.minimum(centre[rows] + w, top[rows])
            span = hi - lo
            cols = int(span.max()) + 1
            a = off_a[rows] + lo
            t = lnA[a, :cols]
            np.subtract(base[rows, None], t, out=t)
            t -= lnR[off_b[rows] + lo, :cols]
            t -= lnR[off_c[rows] + lo, :cols]
            t += cx[a, :cols]
            t[np.arange(cols) > span[:, None]] = -np.inf
            mx = t.max(axis=1)
            floor = mx - _CUT
            ends = t[np.arange(rows.size), span]
            done = ((lo == 0) | (t[:, 0] <= floor)) & ((hi == top[rows]) | (ends <= floor))
            t = t[done]
            t -= mx[done, None]
            out[rows[done]] = mx[done] + np.log(np.exp(t, out=t).sum(axis=1))
            rows, w = rows[~done], 2 * w[~done]
            widened += rows.size
    return widened

