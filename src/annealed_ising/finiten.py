"""Finite-size pressure, spin law, and scaled-sum transforms.

The annealed partition function factors over the number j of up spins:

    E[Z_n] = exp((beta*d/2 - B) n) * sum_j C(n, j) g(d j, d n) e^{2 B j},

so every finite-n quantity reduces to the log-weight table
log x_j = log C(n, j) + log g(d j, d n). The external field enters only at
query time as a tilt 2 B j, which keeps one table reusable across a field
scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import log_factorials
from .matching import LogG, log_g_table
from .thermo import critical_beta

__all__ = [
    "LogWeightTable",
    "SpinLaw",
    "TruncationReport",
    "build_table",
    "finite_pressure",
    "finite_pressure_increment",
    "spin_law",
    "finite_magnetization",
    "finite_susceptibility",
    "mgf_scaled",
    "truncation_check",
    "write_spinlaw_csv",
]


@dataclass(frozen=True)
class LogWeightTable:
    """log x_j for j = 0..n at fixed (d, beta); B is applied per query."""

    n: int
    d: int
    beta: float
    log_x: np.ndarray
    j_star: int

    def __post_init__(self):
        if len(self.log_x) != self.n + 1:
            raise ValueError(f"log_x has {len(self.log_x)} entries, expected n+1={self.n + 1}")


@dataclass(frozen=True)
class SpinLaw:
    """Distribution of the up-spin count j under the annealed measure."""

    n: int
    d: int
    beta: float
    B: float
    log_mass: np.ndarray  # normalized: LSE(log_mass) = 0

    @property
    def masses(self) -> np.ndarray:
        return np.exp(self.log_mass)

    def moment(self, k: int) -> float:
        """E[S^k] with S = 2j - n the total spin."""
        s = 2.0 * np.arange(self.n + 1, dtype=np.float64) - self.n
        return float(np.sum(self.masses * s**k))


@dataclass(frozen=True)
class TruncationReport:
    """How much of the spin law survives outside a central window at beta_c."""

    n: int
    window_exponent: float
    window_halfwidth: float
    tail_mass: float
    tail_bound: float
    mgf_full: float
    mgf_windowed: float
    mgf_gap: float
    passed: bool


def _lse(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + math.log(float(np.sum(np.exp(v - m))))


def build_table(
    d: int,
    n: int,
    beta: float,
    gtable: LogG | None = None,
    cache_dir: str | None = None,
) -> LogWeightTable:
    """Assemble log x_j = log C(n, j) + log g(d j, d n).

    A pre-built g-table may be passed in; it must describe exactly the same
    (d, n, beta) or the combination is rejected.
    """
    if gtable is None:
        gtable = log_g_table(d, n, beta, cache_dir=cache_dir)
    elif (gtable.d, gtable.n) != (d, n) or gtable.beta != beta:
        raise ValueError(
            f"g-table built for (d={gtable.d}, n={gtable.n}, beta={gtable.beta!r}), "
            f"requested (d={d}, n={n}, beta={beta!r})"
        )
    lf = log_factorials(n)
    lbinom = lf[n] - (lf + lf[::-1])
    log_x = lbinom + np.asarray(gtable.values, dtype=np.float64)
    log_x.setflags(write=False)
    return LogWeightTable(n=n, d=d, beta=beta, log_x=log_x, j_star=n // 2)


def _tilted(table: LogWeightTable, B: float) -> np.ndarray:
    if not math.isfinite(B):
        raise ValueError(f"B={B}: need a finite field")
    if B == 0.0:
        return table.log_x
    j = np.arange(table.n + 1, dtype=np.float64)
    return table.log_x + 2.0 * B * j


def finite_pressure(table: LogWeightTable, B: float = 0.0) -> float:
    """psi_n(beta, B) = beta d/2 - B + (1/n) log sum_j x_j e^{2Bj}."""
    return table.beta * table.d / 2.0 - B + _lse(_tilted(table, B)) / table.n


def finite_pressure_increment(table: LogWeightTable, B: float, dB: float) -> float:
    """psi_n(B + dB) - psi_n(B), evaluated without differencing.

    Equal to (1/n) log E[e^{2 dB j}] - dB under the B-tilted law; the two
    pressures share every digit for small dB, so subtracting the evaluated
    values would lose ~5 digits that this form keeps.
    """
    w = _tilted(table, B)
    m = float(np.max(w))
    p = np.exp(w - m)
    p /= np.sum(p)
    j = np.arange(table.n + 1, dtype=np.float64)
    return math.log(float(np.sum(p * np.exp(2.0 * dB * j)))) / table.n - dB


def spin_law(table: LogWeightTable, B: float = 0.0) -> SpinLaw:
    """Normalized law of the up-spin count at field B."""
    w = _tilted(table, B)
    log_mass = w - _lse(w)
    log_mass.setflags(write=False)
    return SpinLaw(n=table.n, d=table.d, beta=table.beta, B=B, log_mass=log_mass)


def finite_magnetization(table: LogWeightTable, B: float = 0.0) -> float:
    """M_n = E[S]/n = d psi_n / d B."""
    return spin_law(table, B).moment(1) / table.n


def finite_susceptibility(table: LogWeightTable, B: float = 0.0) -> float:
    """chi_n = Var(S)/n = d^2 psi_n / d B^2.

    The variance is the centred second moment under masses renormalized by
    their own sum: E[S^2] - E[S]^2 would cancel ~n-fold in the ordered phase
    and amplify the ~1e-12 normalization error of the log-masses with it.
    """
    p = spin_law(table, B).masses
    p /= np.sum(p)
    s = 2.0 * np.arange(table.n + 1, dtype=np.float64) - table.n
    s -= np.sum(p * s)
    return float(np.sum(p * s * s)) / table.n


def mgf_scaled(table: LogWeightTable, r: float) -> float:
    """E[exp(r S / n^{3/4})] at B = 0; the critical-window transform.

    |r| <= 10 keeps the tilt well inside the table's dynamic range.
    """
    if not abs(r) <= 10.0:  # written so that nan is rejected too
        raise ValueError(f"r={r}: need a finite scaled tilt with |r| <= 10")
    if r == 0.0:
        return 1.0
    s = 2.0 * np.arange(table.n + 1, dtype=np.float64) - table.n
    shift = r * s / table.n**0.75
    return math.exp(_lse(table.log_x + shift) - _lse(table.log_x))


def truncation_check(
    table: LogWeightTable, window_exponent: float = 5.0 / 6.0, r: float = 1.0
) -> TruncationReport:
    """Mass and transform error outside the window |j - j*| <= n^window_exponent.

    Only meaningful at the critical point, where the law's width is n^{3/4};
    requires the table's beta to be exactly critical_beta(d). The default
    window edge is |S|/n^{3/4} = 2 n^{1/12}, beyond which the quartic limit
    law's tail decays like exp(-16 a n^{1/3}), a = (d-1)(d-2)/(12 d^2).

    tail_bound = n^{-4} and the 1e-8 mgf gap behind `passed` are asymptotic
    targets, not bounds at reachable n: at d=3, -log(tail_mass) - 16 a n^{1/3}
    stays between 3.57 and 3.73 for n = 250..8000, so the tail would drop
    below n^{-4} only near n ~ 1e7, and `passed` is False at every size the
    tests and reports use.
    """
    if table.beta != critical_beta(table.d):
        raise ValueError(
            f"truncation bounds hold at beta_c={critical_beta(table.d)!r} only, "
            f"table has beta={table.beta!r}"
        )
    full = mgf_scaled(table, r)  # rejects a tilt that is not finite with |r| <= 10
    n = table.n
    w = n**window_exponent
    j = np.arange(n + 1, dtype=np.float64)
    inside = np.abs(j - table.j_star) <= w
    law = spin_law(table, 0.0)
    tail = float(np.sum(law.masses[~inside]))

    s = 2.0 * j - n
    shift = r * s / n**0.75
    windowed = math.exp(_lse(table.log_x[inside] + shift[inside]) - _lse(table.log_x[inside]))
    gap = abs(full - windowed)

    bound = float(n) ** -4.0
    return TruncationReport(
        n=n,
        window_exponent=window_exponent,
        window_halfwidth=w,
        tail_mass=tail,
        tail_bound=bound,
        mgf_full=full,
        mgf_windowed=windowed,
        mgf_gap=gap,
        passed=(tail <= bound and gap <= 1e-8),
    )


def write_spinlaw_csv(law: SpinLaw, path: str) -> None:
    """Rows (j, s, prob) for the full support."""
    masses = law.masses
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("j,s,prob\n")
        for j in range(law.n + 1):
            fh.write(f"{j},{2 * j - law.n},{float(masses[j])!r}\n")
