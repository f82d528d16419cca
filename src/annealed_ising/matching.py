"""Cross-edge counts of a uniform perfect matching and the derived g-tables.

For m points with a marked k-subset, X(k, m) counts matched pairs joining the
subset to its complement. `_cross_counts` enumerates how many matchings give
each X and `_closed_count` is the integer closed form; the `matching` verify
suite holds the two equal, and the float laws built on them are test oracles
(tests/pairing_laws.py). The scalar weight g_beta(k, m) = E[exp(-2 beta X)]
is what averaging over the pairing model attaches to a spin split, and the
per-size table values[j] = log g_beta(dj, dn) feeds every finite-size
quantity; on disk it is one `.bin` file, in the directory the caller names
and nowhere else, holding the key (d, n and beta packed as `struct` "<qqd",
24 bytes) and the n + 1 values as little-endian doubles. A cache hit is one
unbuffered read, a bitwise compare of the key against the request, and the
values as a read-only `np.frombuffer` view. Every count here is exact.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .kernels import _check_table_args, gtable_values

__all__ = [
    "LogG",
    "log_g_table",
    "cache_path",
    "pairing_law_exact",
    "table_identities",
]

class LogG(NamedTuple):
    """Log matching-transform table: values[j] = log g_beta(dj, dn), j = 0..n."""

    d: int
    n: int
    beta: float
    values: np.ndarray


# ---------------------------------------------------------------------------
# exact counts


@functools.cache
def _cross_counts(m: int) -> tuple[tuple[int, ...], ...]:
    """counts[k][x]: perfect matchings of 0..m-1 with x pairs across {0..k-1} (memoised per m).

    One enumeration serves every k. A pair (a, b), a < b, crosses the prefix
    {0..k-1} exactly when a < k <= b, so +1 at a+1 and -1 at b+1 in a
    difference array make its prefix sums X(0), ..., X(m) in one pass per
    matching. The rows are tuples, so no caller can alter the memo.
    """
    counts = [[0] * (m // 2 + 1) for _ in range(m + 1)]
    diff = [0] * (m + 1)

    def pair(points: list[int]) -> None:
        if not points:
            x = 0
            for k, step in enumerate(diff):
                x += step
                counts[k][x] += 1
            return
        first, rest = points[0], points[1:]
        diff[first + 1] += 1
        for i, second in enumerate(rest):
            diff[second + 1] -= 1
            pair(rest[:i] + rest[i + 1 :])
            diff[second + 1] += 1
        diff[first + 1] -= 1

    pair(list(range(m)))
    return tuple(map(tuple, counts))


def _closed_count(k: int, m: int, x: int) -> int:
    """C(k,x) C(m-k,x) x! (k-x-1)!! (m-k-x-1)!! in integers: the matchings with X(k, m) = x."""
    if (k - x) % 2:
        return 0  # off the support's parity; math.comb gives 0 beyond its ends
    return (
        math.comb(k, x)
        * math.comb(m - k, x)
        * math.factorial(x)
        * math.prod(range(k - x - 1, 0, -2))
        * math.prod(range(m - k - x - 1, 0, -2))
    )


# ---------------------------------------------------------------------------
# tables and their disk cache


def log_g_table(
    d: int,
    n: int,
    beta: float,
    cache_dir: str | os.PathLike | None = None,
) -> LogG:
    """Table of log g_beta(dj, dn) for j = 0..n, cached on disk under `cache_dir` if given.

    With no `cache_dir`, nothing touches the filesystem; an empty one is a
    ValueError. Callers sharing a cache directory across processes must
    serialize access.
    """
    _check_table_args(d, n, beta)
    beta = float(beta)
    path = None if cache_dir is None else _cache_file(cache_dir, d, n, beta)
    if path is not None:  # a missing file reads as None, like a corrupt one
        values = _read_cache(path, d, n, beta)
        if values is not None:
            return LogG(d, n, beta, values)
    values = gtable_values(d, n, beta)
    values.setflags(write=False)  # read-only, as the values of a cache hit are
    if path is not None:
        _write_cache(Path(path), d, n, beta, values)
    return LogG(d, n, beta, values)


def cache_path(cache_dir, d: int, n: int, beta: float) -> Path | None:
    """File the (d, n, beta) table lives at, keyed by the exact beta (its repr), or None with no directory."""
    if cache_dir is None:
        return None
    return Path(_cache_file(cache_dir, d, n, beta))


def _cache_file(cache_dir, d: int, n: int, beta: float) -> str:
    """cache_path as a str, which the cache-hit path opens without building a Path.

    An empty cache_dir is a ValueError: os.path would take it as the current directory.
    """
    if not cache_dir:
        raise ValueError("cache_dir '': name a directory")
    return os.path.join(os.path.expanduser(cache_dir), f"gtable_d{d}_n{n}_b{float(beta)!r}.bin")


def _read_cache(path: str, d: int, n: int, beta: float) -> np.ndarray | None:
    """Load a cache file; any mismatch or corruption means 'recompute'.

    The file must be exactly the 24-byte key and n + 1 doubles, read in one
    unbuffered read of one byte more (a short or long file is a mismatch);
    the key must equal the request's (d, n, beta) bitwise; and every value
    must be a finite log-weight, so <= 0. The values returned are read-only.
    """
    key = struct.pack("<qqd", d, n, beta)
    size = len(key) + 8 * (n + 1)
    try:
        with open(path, "rb", buffering=0) as fh:
            buf = fh.read(size + 1)
    except OSError:
        return None
    if len(buf) != size or not buf.startswith(key):
        return None
    values = np.frombuffer(buf, "<f8", n + 1, len(key))
    if not (values.max() <= 0.0 and values.min() > -np.inf):  # false for nan too
        return None
    return values


def _write_cache(path: Path, d: int, n: int, beta: float, values: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(struct.pack("<qqd", d, n, beta) + values.astype("<f8", copy=False).tobytes())
        os.replace(tmp, path)  # atomic on POSIX
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# the `matching` verify suite; each check returns a JSON-ready dict shaped
# {check, d, grid, estimates, targets, tolerances, pass}, as criticality's do


def pairing_law_exact() -> dict:
    """Enumerated counts of X(k, m) against the integer closed form, every (k, m) with m <= 12.

    Every count must equal `_closed_count` exactly, 0 off the support. The
    closed-form law divides those same counts by (m-1)!!, so the integer
    equality is the whole check.
    """
    cases, mismatches = 0, 0
    for m in range(2, 13, 2):
        for k, row in enumerate(_cross_counts(m)):
            mismatches += sum(c != _closed_count(k, m, x) for x, c in enumerate(row))
            cases += 1
    return {
        "check": "pairing_law_exact",
        "d": None,
        "grid": [2, 12],
        "estimates": {"cases": cases, "count_mismatches": mismatches},
        "targets": {"count_mismatches": 0},
        "tolerances": {"abs": 0},
        "pass": mismatches == 0,
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
    estimates = {
        "closed_form_gap": gap22,
        "free_case_max": gap_free,
        "symmetry_gap": gap_sym,
        "endpoint_values": ends,
    }
    tolerances = {"closed_form_gap": tol, "free_case_max": 0.0, "symmetry_gap": tol, "endpoint_values": 0.0}
    return {
        "check": "table_identities",
        "d": None,
        "grid": [2, 40, 50],
        "estimates": estimates,
        "targets": {"all": 0.0},
        "tolerances": tolerances,
        "pass": bool(all(estimates[k] <= tolerances[k] for k in estimates)),
    }
