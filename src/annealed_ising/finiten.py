"""Finite-size pressure, spin law, and its transform.

The annealed partition function factors over the number j of up spins:

    E[Z_n] = exp((beta*d/2 - B) n) * sum_j C(n, j) g(d j, d n) e^{2 B j},

so every finite-n quantity reduces to the table log g(d j, d n) that
`matching.log_g_table` builds and caches. `spin_law(table, B)` is the one
evaluation at a field: it adds log C(n, j) and the tilt 2 B j, so one table
serves a whole field scan, exponentiates the weights once and carries the
law of S = 2j - n with psi_n = beta d/2 - B + (1/n) log sum_j C(n, j)
g(d j, d n) e^{2Bj}, M_n = E[S]/n and chi_n = Var(S)/n. Every other
finite-n number sums against that law's masses. One transform,
`SpinLaw.mgf(t)` = E[e^{tS}], gives the pressure increment psi_n(B + dB) -
psi_n(B) = (1/n) log mgf(dB) exactly (e^{2 dB j} = e^{dB n} e^{dB S}) and
the scaled mgf mgf(r / n^{3/4}) of the n^{3/4} limit. The `finiten` verify
suite's checks sit at the end, each measuring what it reports and returning
the report dict itself. The only state is the memo `_grid(n)` of the j, S
and log C(n, j) rows, a function of n alone.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .matching import LogG, log_g_table
from .thermo import ModelParams, critical_beta, thermo_point

__all__ = [
    "SpinLaw",
    "spin_law",
    "write_spinlaw_csv",
    "finite_size_checks",
    "free_spin_closed_forms",
    "pressure_gap_shrinks",
    "derivative_consistency",
    "critical_window",
]

# (beta, B) at which pressure_gap_shrinks and derivative_consistency share laws
_BETA_GAP, _B_GAP = 0.4, 0.1
# np.exp rounds every argument below log(2^-1075) = -745.133 to exactly 0.0, and
# is ~10x slower on such lanes than on the rest, so spin_law never evaluates them
_EXP_CUT = -746.0


class SpinLaw(NamedTuple):
    """Law of the up-spin count j under the annealed measure at field B.

    psi, M and chi are the finite-n pressure, magnetization E[S]/n and
    susceptibility Var(S)/n of that law.
    """

    n: int
    d: int
    beta: float
    B: float
    masses: np.ndarray  # e / sum(e), e = exp(w - max w) for the tilted log-weights w
    psi: float
    M: float
    chi: float

    def moment(self, k: int) -> float:
        """E[S^k] with S = 2j - n the total spin.

        S^k is formed by repeated squaring of the integer grid, so it is exact,
        and bitwise s**k, while |S|^k < 2^53 (n <= 9740 for k = 4).
        """
        if k < 0:
            raise ValueError(f"k={k}: need a non-negative power")
        power, base = None, _grid(self.n)[1]
        while k:
            if k & 1:
                power = base if power is None else power * base
            k >>= 1
            if k:
                base = base * base
        if power is None:
            return float(self.masses.sum())
        return float((self.masses * power).sum())

    def mgf(self, t: float) -> float:
        """E[e^{tS}] under the law, S = 2j - n: the sum of the masses against e^{ts}.

        |t| n <= 700 keeps every e^{ts} finite (e^700 ~ 1e304); a larger
        |t|, or a nan, is a ValueError. At t = 0 it is exactly 1.0.
        """
        if not abs(t) * self.n <= 700.0:  # written so that nan is rejected too
            raise ValueError(f"t={t}: need a finite tilt with |t| n <= 700")
        if t == 0.0:
            return 1.0
        return float((self.masses * np.exp(t * _grid(self.n)[1])).sum())


@functools.lru_cache(maxsize=64)
def _grid(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only j = 0..n, s = 2j - n and log C(n, j) as float64 (memoised per n).

    log C(n, j) = log n! - (log j! + log (n-j)!), each log i! the per-entry
    math.lgamma(i + 1.0): n + 1 lgamma calls per new n.
    """
    j = np.arange(n + 1, dtype=np.float64)
    s = 2.0 * j - n
    lf = np.fromiter(map(math.lgamma, (j + 1.0).tolist()), np.float64, n + 1)
    log_binom = lf[n] - (lf + lf[::-1])
    for row in (j, s, log_binom):
        row.setflags(write=False)
    return j, s, log_binom


def _distinct_sizes(ns: tuple[int, ...]) -> tuple[int, ...]:
    """The sizes sorted; a ValueError unless there are at least two, all distinct."""
    ns = tuple(sorted(ns))
    if len(ns) < 2 or len(set(ns)) != len(ns):
        raise ValueError(f"need at least two distinct sizes, got {ns}")
    return ns


def spin_law(table: LogG, B: float = 0.0) -> SpinLaw:
    """Normalized law of the up-spin count at field B, with psi_n, M_n and chi_n.

    The tilted log-weights are w_j = log C(n, j) + log g(dj, dn) + 2 B j.
    One exp gives e = exp(w - max w); its sum gives z = max w + log sum(e),
    so psi_n = beta d/2 - B + z/n, and the masses e / sum(e), normalised to
    a few ulp. Taking them as exp(w - z) instead would scale all of them by
    the rounding of z, ~ulp(|z|) ~ 1e-12 at n = 8000. M_n = E[S]/n =
    dpsi_n/dB sums the masses against S. chi_n = Var(S)/n = d^2 psi_n/dB^2
    is the centred second moment: E[S^2] - E[S]^2 would cancel ~n-fold in
    the ordered phase.
    """
    if not math.isfinite(B):
        raise ValueError(f"B={B}: need a finite field")
    n = table.n
    j, s, log_binom = _grid(n)
    w = log_binom + table.values
    if B:  # at B = 0 the tilt would add +0.0 to every weight: bitwise nothing
        w += 2.0 * B * j
    top = float(w.max())
    w -= top
    masses = np.zeros_like(w)
    np.exp(w, out=masses, where=~(w < _EXP_CUT))  # written so that nan lanes still propagate
    total = float(masses.sum())
    z = top + math.log(total)
    masses /= total
    mean = float((masses * s).sum())
    sq = s - mean
    sq *= sq
    chi = float((masses * sq).sum()) / n
    masses.setflags(write=False)
    psi = table.beta * table.d / 2.0 - B + z / n
    return SpinLaw(n=n, d=table.d, beta=table.beta, B=B, masses=masses, psi=psi, M=mean / n, chi=chi)


def write_spinlaw_csv(law: SpinLaw, path: str) -> None:
    """Rows (j, s, prob) for the full support."""
    masses = law.masses
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("j,s,prob\n")
        for j in range(law.n + 1):
            fh.write(f"{j},{2 * j - law.n},{float(masses[j])!r}\n")


# ---------------------------------------------------------------------------
# the `finiten` verify suite; each check returns a JSON-ready dict shaped
# {check, d, grid, estimates, targets, tolerances, pass}, as criticality's do


def finite_size_checks(
    d: int,
    ns: tuple[int, ...] = (250, 500, 1000),
    cache_dir: str | None = None,
    spinlaw_csv: str | None = None,
) -> list[dict]:
    """The four checks below, on tables and laws built once each.

    A d below 2 is a ValueError, as in `thermo.ModelParams`. The sizes are
    sorted; fewer than two, or a repeated one, is a ValueError, as in
    `criticality.scaling_limit_check`. The free-spin forms use the
    smallest size; derivative_consistency reuses the n = 500 law of the
    pressure gaps (else the largest); the critical window, only for d >= 3,
    takes the same sizes at beta_c. With `spinlaw_csv` set, the window's law
    at the largest n is written there by `write_spinlaw_csv`.
    """
    ModelParams(d, _BETA_GAP, _B_GAP)  # a d < 2 fails here, before any table is built
    ns = _distinct_sizes(ns)
    checks = [free_spin_closed_forms(log_g_table(d, ns[0], 0.0, cache_dir=cache_dir))]
    laws = {n: spin_law(log_g_table(d, n, _BETA_GAP, cache_dir=cache_dir), _B_GAP) for n in ns}
    checks.append(pressure_gap_shrinks([laws[n] for n in ns]))
    checks.append(derivative_consistency(laws[500 if 500 in ns else max(ns)]))
    if d >= 3:
        bc = critical_beta(d)
        window = [spin_law(log_g_table(d, n, bc, cache_dir=cache_dir)) for n in ns]
        checks.append(critical_window(window))
        if spinlaw_csv is not None:
            write_spinlaw_csv(window[-1], spinlaw_csv)
    return checks


def free_spin_closed_forms(table: LogG) -> dict:
    """A beta = 0 table against psi = log 2 cosh B, M = tanh B at B = 0.7 and chi(0) = 1.

    All three are exact up to table rounding, so the tolerance is 1e-12.
    """
    B0, tol = 0.7, 1e-12
    law = spin_law(table, B0)
    gaps = {
        "psi_gap": abs(law.psi - math.log(2.0 * math.cosh(B0))),
        "M_gap": abs(law.M - math.tanh(B0)),
        "chi_gap": abs(spin_law(table, 0.0).chi - 1.0),
    }
    return {
        "check": "free_spin_closed_forms",
        "d": table.d,
        "grid": [table.n],
        "estimates": gaps,
        "targets": dict.fromkeys(gaps, 0.0),
        "tolerances": {"abs": tol},
        "pass": all(g <= tol for g in gaps.values()),
    }


def pressure_gap_shrinks(laws: list[SpinLaw]) -> dict:
    """|psi_n - psi| at the first law's (beta, B) must fall strictly from each law to the next."""
    d = laws[0].d
    psi_inf = thermo_point(ModelParams(d, laws[0].beta, laws[0].B)).psi
    gaps = [abs(law.psi - psi_inf) for law in laws]
    return {
        "check": "pressure_gap_shrinks",
        "d": d,
        "grid": [law.n for law in laws],
        "estimates": {"psi_gap": gaps},
        "targets": {"psi_limit": psi_inf},
        "tolerances": {"monotone": True},
        "pass": all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1)),
    }


def derivative_consistency(law: SpinLaw) -> dict:
    """Exact M_n and chi_n at the law's field against central differences of psi_n, to 1e-6.

    Each increment psi_n(B +- step) - psi_n(B) is (1/n) log law.mgf(+-step),
    and each difference is Richardson-extrapolated from steps h and 2h,
    h = 2e-4, which removes its h^2 term. Rounding in the increments reaches
    the chi difference divided by n h^2 = 2e-5 at n = 500, so the chi gap
    prints that rounding rather than the Richardson remainder: at d = 2, 3, 4,
    n = 500 it prints 1.2e-11, 1.0e-12 and 3.5e-12, where 40-digit
    increments against the 40-digit chi give 1.4e-14, 2.7e-12 and 9.3e-13.
    A plain difference at h = 1e-5 printed ~1e-9.

    `chi_fd_rounding` bounds, to first order, how far the float steps move
    the extrapolated chi from its value on exact increments of the law's
    weights; a chi_fd_gap below it is rounding noise. With u = 2^-53, H the
    entropy sum m log(1/m) of the masses m and D = 19 + ceil(log2(n + 1))
    the depth of numpy's pairwise sum:
    - each mass m_j carries u |x_j| <= u log(1/m_j) from x_j = w_j - max w
      (the sum of e^x is at least 1), 4u from exp and u from the division,
      plus the common error of that sum, u (H + 4 + D);
    - law.mgf(t) adds u |t s| <= u |t| n for t s, 4u for exp, u for the
      product and D u for the sum. Its masses enter tilted by e^{ts}
      / mgf(t) <= e^{|t| n} / mgf(t), so its relative error is at most
      u (e^{|t| n} H / mgf(t) + |t| n + 14 + 2D + H);
    - log adds 2u |log mgf|, /n u of the increment, the sum of the two
      increments, step*step and the division 3u of c = (dp + dm)/step^2;
    - (4 c_1 - c_2)/3 carries (4 E_1 + E_2)/3 of the two c bounds E, plus
      2u of itself.
    The lanes spin_law leaves at 0 below its exp cut hold under (n+1) e^-746
    of the mass, far below every term here.
    """
    h, tol, u, n = 2e-4, 1e-6, 2.0**-53, law.n
    kept = law.masses[law.masses > 0.0]
    entropy = float(-(kept * np.log(kept)).sum())
    depth = 19 + math.ceil(math.log2(n + 1))

    def increment(step):
        """(1/n) log law.mgf(step) and the bound on its rounding."""
        mgf = law.mgf(step)
        log_mgf = math.log(mgf)
        rel = u * (math.exp(abs(step) * n) * entropy / mgf + abs(step) * n + 14 + 2 * depth + entropy)
        return log_mgf / n, (rel + 2 * u * abs(log_mgf)) / n + u * abs(log_mgf / n)

    def differences(step):
        (dp, ep), (dm, em) = increment(step), increment(-step)
        c = (dp + dm) / (step * step)
        return (dp - dm) / (2.0 * step), c, (ep + em) / (step * step) + 3 * u * abs(c)

    (m1, c1, e1), (m2, c2, e2) = differences(h), differences(2.0 * h)
    chi_fd = (4.0 * c1 - c2) / 3.0
    gaps = {
        "M_fd_gap": abs((4.0 * m1 - m2) / 3.0 - law.M),
        "chi_fd_gap": abs(chi_fd - law.chi),
    }
    return {
        "check": "derivative_consistency",
        "d": law.d,
        "grid": [n],
        "estimates": {**gaps, "chi_fd_rounding": (4.0 * e1 + e2) / 3.0 + 2 * u * abs(chi_fd)},
        "targets": dict.fromkeys(gaps, 0.0),
        "tolerances": {"abs": tol},
        "pass": all(g <= tol for g in gaps.values()),
    }


def critical_window(laws: list[SpinLaw]) -> dict:
    """Mass outside the window |S| = |2j - n| <= 2 n^{5/6}, per law, against n^{-4}.

    Only meaningful at the critical point, where the law's width is n^{3/4};
    every law must be at B = 0 and exactly critical_beta(d). The window
    edge is |S|/n^{3/4} = 2 n^{1/12}, beyond which the quartic limit
    law's tail decays like exp(-16 a n^{1/3}), a = (d-1)(d-2)/(12 d^2). The
    window is |j - n/2| <= n^{5/6}, mirror-symmetric about n/2 at odd n too.

    The tail bound n^{-4} behind each size's verdict is an asymptotic
    target, not a bound at reachable n: at d=3, -log(tail_mass) - 16 a n^{1/3}
    stays between 3.57 and 3.73 for n = 250..8000, so the tail would drop
    below n^{-4} only near n ~ 1e7, and the check fails at every size the
    tests and reports use. The tail mass must also fall strictly with n.
    """
    tails, bounds = [], []
    for law in laws:
        if law.beta != critical_beta(law.d) or law.B != 0.0:
            raise ValueError(
                f"the critical window is measured at beta_c={critical_beta(law.d)!r} and B=0 only, "
                f"law has beta={law.beta!r}, B={law.B!r}"
            )
        n = law.n
        outside = np.abs(_grid(n)[1]) > 2.0 * n ** (5.0 / 6.0)
        tails.append(float(law.masses[outside].sum()))
        bounds.append(float(n) ** -4.0)
    within = all(t <= b for t, b in zip(tails, bounds))
    decreasing = all(tails[i + 1] < tails[i] for i in range(len(tails) - 1))
    return {
        "check": "critical_window",
        "d": laws[0].d,
        "grid": [law.n for law in laws],
        "estimates": {"tail_mass": tails},
        "targets": {"tail_bound": bounds},
        "tolerances": {"monotone": True},
        "pass": within and decreasing,
    }
