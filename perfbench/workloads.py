"""The three benchmark workloads, each a list of CLI invocations per op.

A workload draws a short cycle of op inputs from the seed; the benchmark
repeats that cycle for as long as it measures. Draws only move values inside
fixed windows, so every seed gives the same mix and the same cost per op.

Each op's output is checked outside the timed region. The first run of an
input is checked against an independent reference (see oracles.py); later
runs of the same input must reproduce its output byte for byte.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from annealed_ising import matching, thermo


@dataclass
class Outcome:
    """What one op produced: units of work, the units that failed, and problems.

    A problem is an exception, an unexpected exit code or a failed output
    check, and makes the op count as failed. A unit can also fail without a
    problem, as a nan row the CLI documents, so `failed` may name units that
    `problems` does not.
    """

    units: int = 0
    failed: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _csv(out: str) -> tuple[list[str], list[list[float]]]:
    lines = out.splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


class LimitScan:
    """thermo --d 3 over a beta grid through all three phases, at B = 0 and B > 0.

    About 80% of an op is scalar dH calls in the root finders, and no table
    is built. The grid reaches beta >= 1.4 on purpose: the root finder fails
    on some points there, and those rows must show as failed units.
    """

    name = "limit_scan"
    unit = "points"
    tail_q = 90
    cycle = 32
    K = 16

    def __init__(self):
        self._first: dict[int, str] = {}

    def specs(self, rng: random.Random) -> list[dict]:
        out = []
        for _ in range(self.cycle):
            lo, hi, bmax = rng.uniform(0.05, 0.15), rng.uniform(1.5, 1.6), rng.uniform(0.3, 0.5)
            out.append(
                {
                    "argv": [
                        "thermo", "--d", "3",
                        "--beta-range", f"{lo!r}:{hi!r}:{self.K}",
                        "--B-range", f"0:{bmax!r}:3",
                    ],
                    "betas": np.linspace(lo, hi, self.K).tolist(),
                    "Bs": np.linspace(0.0, bmax, 3).tolist(),
                    "check_rows": rng.sample(range(3 * self.K), 3),
                }
            )
        return out

    def setup(self, work: Path) -> None:
        pass

    def argvs(self, spec: dict) -> list[list[str]]:
        return [spec["argv"]]

    def check(self, idx: int, spec: dict, argvs, results: list) -> Outcome:
        (res,) = results
        grid = [(b, B) for b in spec["betas"] for B in spec["Bs"]]
        oc = Outcome(units=len(grid))
        if res.rc != 0:
            oc.problems.append(f"exit code {res.rc}: {res.err.strip()[-300:]}")
            oc.failed = [f"beta={b!r} B={B!r}" for b, B in grid]
            return oc
        header, rows = _csv(res.out)
        if header != ["beta", "B", "psi", "M", "chi", "C", "t_hat"] or len(rows) != len(grid):
            oc.problems.append(f"unexpected table shape {header} x {len(rows)}")
            return oc
        nan_rows = 0
        for (b, B), row in zip(grid, rows):
            if (row[0], row[1]) != (b, B):
                oc.problems.append(f"row for beta={b!r} B={B!r} reads ({row[0]!r}, {row[1]!r})")
            if any(math.isnan(v) for v in row[2:]):
                nan_rows += 1
                oc.failed.append(f"beta={b!r} B={B!r}")
            elif row[3] != 2.0 * row[6] - 1.0:
                oc.failed.append(f"beta={b!r} B={B!r}")
                oc.problems.append(f"M != 2 t_hat - 1 at beta={b!r} B={B!r}")
        if res.err.count("warning:") != nan_rows:
            oc.problems.append(f"{nan_rows} nan rows but stderr reads {res.err!r}")
        if idx in self._first:
            if res.out != self._first[idx]:
                oc.problems.append("output differs from the first run of the same input")
            return oc
        self._first[idx] = res.out
        for r in spec["check_rows"]:
            b, B = grid[r]
            psi = rows[r][2]
            if math.isnan(psi):
                continue
            ref = oracles.limit_pressure(thermo.H_beta, 3, b, B)
            if not abs(psi - ref) <= 1e-9:
                oc.failed.append(f"beta={b!r} B={B!r}")
                oc.problems.append(f"psi={psi!r} at beta={b!r} B={B!r}; golden section gives {ref!r}")
        return oc


class FiniteScan:
    """thermo --d 3 --n 8000 at one beta and six fields, into a fresh cache.

    Every op misses the cache: it fills the table (about 87% of the op),
    writes the cache file, assembles the weights and answers 18 queries. No
    limit quantity is computed.
    """

    name = "finite_scan"
    unit = "tables"
    tail_q = 75
    cycle = 8
    D, N = 3, 8000
    # An absolute error e in the log-weights moves chi_n by about 2e relative,
    # so a table good to 1e-12 pins chi_n to well inside this.
    CHI_REL = 1e-10

    def __init__(self):
        self._first: dict[int, str] = {}
        # Known defect, listed rather than failed: finite_susceptibility forms
        # E[S^2] - E[S]^2 from masses whose normalization is off by ~1e-12, and
        # at B > 0 deep in the ordered phase the cancellation leaves chi_n
        # about 1e-8 relative from the fsum value (confirmed at 50 digits).
        self._chi_devs: list[float] = []

    def specs(self, rng: random.Random) -> list[dict]:
        out = []
        for _ in range(self.cycle):
            beta, bmax = rng.uniform(0.4, 0.7), rng.uniform(0.05, 0.25)
            out.append(
                {
                    "beta": beta,
                    "Bs": np.linspace(0.0, bmax, 6).tolist(),
                    "argv": [
                        "thermo", "--d", str(self.D), "--n", str(self.N),
                        "--beta", repr(beta), "--B-range", f"0:{bmax!r}:6",
                    ],
                    "check_rows": sorted(rng.sample(range(1, self.N), 3)),
                }
            )
        return out

    def setup(self, work: Path) -> None:
        self._work = work

    def argvs(self, spec: dict) -> list[list[str]]:
        return [spec["argv"] + ["--cache-dir", tempfile.mkdtemp(prefix="miss-", dir=self._work)]]

    def check(self, idx: int, spec: dict, argvs, results: list) -> Outcome:
        (res,) = results
        cache_dir = argvs[0][-1]
        try:
            return self._check(idx, spec, cache_dir, res)
        finally:
            shutil.rmtree(cache_dir)

    def _check(self, idx, spec, cache_dir, res) -> Outcome:
        d, n, beta = self.D, self.N, spec["beta"]
        oc = Outcome(units=1)
        if res.rc != 0:
            oc.problems.append(f"exit code {res.rc}: {res.err.strip()[-300:]}")
        elif not matching.cache_path(cache_dir, d, n, beta).exists():
            oc.problems.append("no cache file written")
        else:
            header, rows = _csv(res.out)
            if header != ["n", "beta", "B", "psi_n", "M_n", "chi_n"] or len(rows) != len(spec["Bs"]):
                oc.problems.append(f"unexpected table shape {header} x {len(rows)}")
            elif any(math.isnan(v) for row in rows for v in row):
                oc.problems.append("nan in the finite-size table")
            elif idx in self._first:
                if res.out != self._first[idx]:
                    oc.problems.append("output differs from the first run of the same input")
            else:
                self._first[idx] = res.out
                oc.problems += self._against_oracle(spec, cache_dir, rows)
        if oc.problems:
            oc.failed.append(f"beta={beta!r}")
        return oc

    def _against_oracle(self, spec, cache_dir, rows) -> list[str]:
        d, n, beta = self.D, self.N, spec["beta"]
        problems = []
        table = matching.log_g_table(d, n, beta, cache_dir=cache_dir)  # the cached copy
        for j in spec["check_rows"] + [0, n // 2]:
            ref = oracles.log_g(d * j, d * n, beta)
            if not abs(float(table.values[j]) - ref) <= 1e-9:
                problems.append(f"log g row {j} = {table.values[j]!r}, closed form {ref!r}")
        for row, B in zip(rows, spec["Bs"]):
            psi, M, chi = oracles.finite_observables(d, n, beta, B, table.values)
            if row[:3] != [float(n), beta, B]:
                problems.append(f"row keys {row[:3]} for B={B!r}")
            if not (abs(row[3] - psi) <= 1e-10 and abs(row[4] - M) <= 1e-9):
                problems.append(f"B={B!r}: (psi_n, M_n) = {row[3:5]}, fsum gives {[psi, M]}")
            self._chi_devs.append(abs(row[5] - chi) / abs(chi))
        return problems

    @property
    def known(self) -> list[str]:
        off = [x for x in self._chi_devs if not x <= self.CHI_REL]
        if not off:
            return []
        return [
            f"chi_n off the fsum value by more than {self.CHI_REL:g} relative on {len(off)} of "
            f"{len(self._chi_devs)} checked rows, by up to {max(off):.1e}"
        ]


# Pass flags each verify report must carry, per check: (check, pass,
# exponent_pass, amplitude_pass). The False entries are the targets the
# computation is documented not to reach; they must stay red.
_EXPECTED = {
    "taylor": (("taylor_expansion", True, None, None),),
    "exponents": (
        ("exponent_beta", True, True, True),
        ("exponent_delta", True, True, True),
        ("exponent_gamma_below", True, True, True),
        ("exponent_gamma_above", False, True, False),
    ),
    "jump": (("specific_heat_jump", False, None, None),),
    "scaling": (("scaling_limit", False, None, None),),
    "finiten": (
        ("free_spin_closed_forms", True, None, None),
        ("pressure_gap_shrinks", True, None, None),
        ("derivative_consistency", True, None, None),
        ("critical_window", False, None, None),
    ),
}


class CriticalVerify:
    """One pass over verify suites taylor/exponents/jump/scaling/finiten at d = 3, 4.

    Tables are read from a cache that set-up fills, roots are found next to
    beta_c, and the spin-law, moment, mgf and KS queries run. The seed orders
    the pass. The matching suite is left out: its brute-force enumeration
    would swamp every other layer.
    """

    name = "critical_verify"
    unit = "suites"
    tail_q = 75
    cycle = 4
    PAIRS = tuple((s, d) for s in _EXPECTED for d in (3, 4))

    def __init__(self):
        self._first: dict[tuple, str] = {}
        self._cache: Path | None = None

    def specs(self, rng: random.Random) -> list[list[tuple]]:
        return [rng.sample(self.PAIRS, len(self.PAIRS)) for _ in range(self.cycle)]

    def setup(self, work: Path) -> None:
        self._cache = work / "tables"  # empty: the warm-up pass fills it

    def argvs(self, spec) -> list[list[str]]:
        return [
            ["verify", "--suite", s, "--d", str(d), "--cache-dir", str(self._cache)] for s, d in spec
        ]

    def check(self, idx: int, spec, argvs, results: list) -> Outcome:
        oc = Outcome(units=len(spec))
        for (suite, d), res in zip(spec, results):
            why = self._check_one(suite, d, res)
            if why:
                oc.failed.append(f"{suite} d={d}")
                oc.problems.append(f"{suite} d={d}: {why}")
        return oc

    def _check_one(self, suite, d, res) -> str | None:
        expected = _EXPECTED[suite]
        want_rc = 0 if all(e[1] for e in expected) else 1
        if res.rc != want_rc:
            return f"exit code {res.rc}, expected {want_rc}: {res.err.strip()[-300:]}"
        try:
            report = json.loads(res.out)
        except ValueError as exc:
            return f"report is not JSON ({exc})"
        got = tuple(
            (c["check"], c["pass"], c.get("exponent_pass"), c.get("amplitude_pass"))
            for c in report["checks"]
        )
        if got != expected:
            return f"pass flags {got}, expected {expected}"
        first = self._first.setdefault((suite, d), res.out)
        if res.out != first:
            return "report differs from the first run in this process"
        return None


WORKLOADS = {w.name: w for w in (LimitScan, FiniteScan, CriticalVerify)}
