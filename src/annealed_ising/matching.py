"""Cross-edge law of a uniform perfect matching and the derived g-tables.

For m points with a marked k-subset, X(k, m) counts matched pairs joining the
subset to its complement. The scalar weight g_beta(k, m) = E[exp(-2*beta*X)]
is what averaging over the pairing model attaches to a spin split, and the
per-size table values[j] = log g_beta(dj, dn) feeds every finite-size
quantity; on disk it is one `.npy` file holding a record of d, n, beta and
values. Laws are exact; only `sample_cross_count` is stochastic.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import gtable_values

__all__ = [
    "LogG",
    "brute_force_law",
    "cross_count_law",
    "sample_cross_count",
    "sample_cross_counts",
    "log_g_table",
    "cache_path",
    "pairing_law_exact",
    "sampler_matches_law",
    "table_identities",
]

_LN2 = math.log(2.0)
CACHE_ENV = "ANNEALED_ISING_CACHE"


@dataclass(frozen=True)
class LogG:
    """Log matching-transform table: values[j] = log g_beta(dj, dn), j = 0..n."""

    d: int
    n: int
    beta: float
    values: np.ndarray


# ---------------------------------------------------------------------------
# exact laws


def brute_force_law(k: int, m: int) -> dict[int, float]:
    """Exact law of X(k, m) by enumerating all (m-1)!! perfect matchings.

    Deliberately naive; this is the oracle everything else is checked against.
    """
    _check_km(k, m)
    if m > 14:
        raise ValueError(f"m={m} too large to enumerate ((m-1)!! growth, cap m=14)")
    if m == 0:
        return {0: 1.0}
    counts: dict[int, int] = {}
    _enumerate(list(range(m)), k, 0, counts)
    total = sum(counts.values())
    return {x: c / total for x, c in sorted(counts.items())}


def _enumerate(points: list[int], k: int, crossings: int, counts: dict[int, int]) -> None:
    if not points:
        counts[crossings] = counts.get(crossings, 0) + 1
        return
    first = points[0]
    rest = points[1:]
    for i, second in enumerate(rest):
        cross = (first < k) != (second < k)
        _enumerate(rest[:i] + rest[i + 1 :], k, crossings + cross, counts)


def cross_count_law(k: int, m: int) -> dict[int, float]:
    """Closed-form law of X(k, m), evaluated in log space.

    P(X=x) = C(k,x) C(m-k,x) x! (k-x-1)!! (m-k-x-1)!! / (m-1)!!
    over the support x = k mod 2, ..., min(k, m-k) in steps of 2, with the
    convention (-1)!! = 1 covering the boundary terms.
    """
    _check_km(k, m)
    return {x: math.exp(_log_prob(k, m, x)) for x in range(k & 1, min(k, m - k) + 1, 2)}


def _log_prob(k: int, m: int, x: int) -> float:
    return (
        _lchoose(k, x)
        + _lchoose(m - k, x)
        + math.lgamma(x + 1.0)
        + _ldfact(k - x - 1)
        + _ldfact(m - k - x - 1)
        - _ldfact(m - 1)
    )


def _lchoose(a: int, b: int) -> float:
    return math.lgamma(a + 1.0) - math.lgamma(b + 1.0) - math.lgamma(a - b + 1.0)


def _ldfact(o: int) -> float:
    """log o!! for odd o >= -1, via log(2q-1)!! = lgamma(2q+1) - q log2 - lgamma(q+1)."""
    q = (o + 1) // 2
    return math.lgamma(2 * q + 1.0) - q * _LN2 - math.lgamma(q + 1.0)


def _check_km(k: int, m: int) -> None:
    if m % 2:
        raise ValueError(f"m={m}: perfect matching needs an even point count")
    if not 0 <= k <= m:
        raise ValueError(f"k={k} outside 0..{m}")


# ---------------------------------------------------------------------------
# sampling


def sample_cross_count(k: int, m: int, rng=None) -> int:
    """One draw of X(k, m) from a sequential uniform pairing.

    Only the unmatched counts on each side matter: repeatedly take an
    unmatched point and match it to a uniform choice among the others, which
    is distributionally the uniform perfect matching.
    """
    return int(sample_cross_counts(k, m, 1, rng)[0])


def sample_cross_counts(k: int, m: int, size: int, rng=None) -> np.ndarray:
    """Vectorized draws of X(k, m); `rng` is a seed or numpy Generator."""
    _check_km(k, m)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    a = np.full(size, k, dtype=np.int64)  # unmatched marked points
    b = np.full(size, m - k, dtype=np.int64)
    x = np.zeros(size, dtype=np.int64)
    for _ in range(m // 2):
        pick_marked = a > 0
        # partner of the chosen point is uniform among the a+b-1 others
        u = gen.random(size)
        cross = pick_marked & (u * (a + b - 1) < b)
        within_marked = pick_marked & ~cross
        ci = cross.astype(np.int64)
        a -= ci + 2 * within_marked.astype(np.int64)
        b -= ci + 2 * (~pick_marked).astype(np.int64)
        x += ci
    return x


# ---------------------------------------------------------------------------
# tables and their disk cache


def log_g_table(
    d: int,
    n: int,
    beta: float,
    cache_dir: str | os.PathLike | None = None,
) -> LogG:
    """Table of log g_beta(dj, dn) for j = 0..n, optionally cached on disk.

    The cache directory comes from `cache_dir` or the ANNEALED_ISING_CACHE
    environment variable; with neither set, nothing touches the filesystem.
    Callers sharing a cache directory across processes must serialize access.
    """
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if (d * n) % 2:
        raise ValueError(f"d*n = {d * n} odd: a perfect matching needs an even half-edge count")
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta={beta}: need a finite beta >= 0")
    beta = float(beta)
    path = cache_path(cache_dir, d, n, beta)
    if path is not None and path.exists():
        values = _read_cache(path, d, n, beta)
        if values is not None:
            return LogG(d, n, beta, values)
    values = gtable_values(d, n, beta)
    values.setflags(write=False)  # read-only, as the values of a cache hit are
    if path is not None:
        _write_cache(path, d, n, beta, values)
    return LogG(d, n, beta, values)


def cache_path(cache_dir, d: int, n: int, beta: float) -> Path | None:
    """File the (d, n, beta) table lives at, keyed by the exact beta (its repr)."""
    root = cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV)
    if root is None:
        return None
    return Path(root).expanduser() / f"gtable_d{d}_n{n}_b{float(beta)!r}.npy"


def _record(n: int) -> np.dtype:
    """The one dtype a cache file for an n-vertex table may hold."""
    return np.dtype([("d", "<i8"), ("n", "<i8"), ("beta", "<f8"), ("values", "<f8", (n + 1,))])


def _header(n: int) -> bytes:
    """The bytes np.lib.format writes ahead of a `_record(n)` record."""
    rtype = _record(n)
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.zeros((), rtype), allow_pickle=False)
    return buf.getvalue()[: -rtype.itemsize]


def _read_cache(path: Path, d: int, n: int, beta: float) -> np.ndarray | None:
    """Load a cache record; any mismatch or corruption means 'recompute'.

    The file must be exactly `_header(n)` and one record of dtype `_record(n)`,
    (d, n, beta) must equal the request bitwise, and every value must be a
    finite log-weight, so <= 0. The values returned are read-only.
    """
    head, rtype = _header(n), _record(n)
    try:
        with open(path, "rb") as fh:
            buf = fh.read(len(head) + rtype.itemsize + 1)
    except OSError:
        return None
    if len(buf) != len(head) + rtype.itemsize or not buf.startswith(head):
        return None
    rec = np.frombuffer(buf, rtype, offset=len(head)).reshape(())
    if rec["d"] != d or rec["n"] != n or rec["beta"].tobytes() != np.array(beta, "<f8").tobytes():
        return None
    values = rec["values"]
    if not (np.all(np.isfinite(values)) and np.all(values <= 0.0)):
        return None
    return values


def _write_cache(path: Path, d: int, n: int, beta: float, values: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_header(n) + np.array((d, n, beta, values), dtype=_record(n)).tobytes())
        os.replace(tmp, path)  # atomic on POSIX
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# the `matching` verify suite; each check returns a JSON-ready dict shaped
# {check, d, grid, estimates, targets, tolerances, pass}, as criticality's do


def pairing_law_exact() -> dict:
    """brute_force_law against cross_count_law for every (k, m) with m <= 12, to 1e-12 in log."""
    tol = 1e-12
    max_gap, cases = 0.0, 0
    for m in range(2, 13, 2):
        for k in range(0, m + 1):
            bf, cl = brute_force_law(k, m), cross_count_law(k, m)
            if set(bf) != set(cl):
                max_gap = math.inf
                continue
            for x, p in bf.items():
                max_gap = max(max_gap, abs(math.log(p) - math.log(cl[x])))
            cases += 1
    return {
        "check": "pairing_law_exact",
        "d": None,
        "grid": [2, 12],
        "estimates": {"max_log_gap": max_gap, "cases": cases},
        "targets": {"max_log_gap": 0.0},
        "tolerances": {"abs": tol},
        "pass": max_gap <= tol,
    }


def sampler_matches_law(seed) -> dict:
    """Mean of 100 000 sampled X(k, m) within 4 standard errors of the exact law's, at three (k, m)."""
    rng = np.random.default_rng(seed)
    draws, z_max = 100_000, 4.0
    worst = 0.0
    for k, m in ((4, 12), (7, 16), (12, 30)):
        law = cross_count_law(k, m)
        mean = sum(x * p for x, p in law.items())
        var = sum(x * x * p for x, p in law.items()) - mean * mean
        se = math.sqrt(var / draws)
        xs = sample_cross_counts(k, m, draws, rng)
        worst = max(worst, abs(float(np.mean(xs)) - mean) / se if se > 0 else 0.0)
    return {
        "check": "sampler_matches_law",
        "d": None,
        "grid": [draws],
        "estimates": {"worst_z": worst},
        "targets": {"worst_z": 0.0},
        "tolerances": {"z_max": z_max},
        "pass": worst <= z_max,
    }


def table_identities(cache_dir=None) -> dict:
    """Small tables: the (d=2, n=2) closed form, the free case, j <-> n-j symmetry, pinned ends."""
    tol = 1e-12
    beta = 0.3
    t22 = log_g_table(2, 2, beta, cache_dir=cache_dir)
    gap22 = abs(t22.values[1] - math.log((1.0 + 2.0 * math.exp(-4.0 * beta)) / 3.0))
    t_free = log_g_table(3, 40, 0.0, cache_dir=cache_dir)
    gap_free = float(np.max(np.abs(t_free.values)))
    t_sym = log_g_table(3, 50, 0.37, cache_dir=cache_dir)
    gap_sym = float(np.max(np.abs(t_sym.values - t_sym.values[::-1])))
    ends = abs(t_sym.values[0]) + abs(t_sym.values[-1])
    return {
        "check": "table_identities",
        "d": None,
        "grid": [2, 40, 50],
        "estimates": {
            "closed_form_gap": gap22,
            "free_case_max": gap_free,
            "symmetry_gap": gap_sym,
            "endpoint_values": ends,
        },
        "targets": {"all": 0.0},
        "tolerances": {"abs": tol},
        "pass": bool(gap22 <= tol and gap_free <= 1e-10 and gap_sym <= tol and ends == 0.0),
    }
