"""Command-line front end: weight tables, thermodynamic scans, verification suites.

Three subcommands:

* ``gtable``  -- compute and emit the pairing-weight table log g(d j, d n).
* ``thermo``  -- scan pressure/magnetization/susceptibility/specific heat over
  a beta x B grid, in the thermodynamic limit by default or at finite sizes
  when ``--n``/``--n-list`` is given.
* ``verify``  -- run one named verification suite and emit a JSON report;
  exit code 0 iff every check in the report passed.

Output is deterministic for a fixed configuration and seed: floats are
serialized with repr (shortest round-trip form), rows are emitted in grid
order, and reports carry no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import criticality, finiten, matching, thermo

__all__ = ["RunConfig", "main", "cmd_gtable", "cmd_thermo", "cmd_verify"]

SUITES = ("taylor", "exponents", "jump", "scaling", "finiten", "matching")


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one invocation."""

    command: str
    d: int
    betas: tuple[float, ...]
    Bs: tuple[float, ...]
    ns: tuple[int, ...]
    cache_dir: str | None
    out: str | None
    fmt: str
    seed: int
    suite: str | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d={self.d}: need d >= 1")
        if not all(math.isfinite(b) and b >= 0 for b in self.betas):
            raise ValueError("beta values must be finite and >= 0")
        if not all(math.isfinite(B) and B >= 0 for B in self.Bs):
            raise ValueError("B values must be finite and >= 0")
        for n in self.ns:
            if n < 1:
                raise ValueError(f"n={n}: need n >= 1")
            if (self.d * n) % 2:
                raise ValueError(f"d*n = {self.d}*{n} is odd: the pairing model needs d*n even")


def _parse_range(text: str, name: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name}={text!r}: expected start:stop:steps")
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"{name}={text!r}: {exc}") from None
    if steps < 1:
        raise ValueError(f"{name}={text!r}: steps must be >= 1")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"{name}={text!r}: endpoints must be finite")
    return tuple(float(v) for v in np.linspace(a, b, steps))


def _parse_nlist(text: str) -> tuple[int, ...]:
    try:
        ns = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ValueError(f"--n-list {text!r}: {exc}") from None
    if not ns:
        raise ValueError(f"--n-list {text!r}: no sizes given")
    return ns


def _build_config(args: argparse.Namespace) -> RunConfig:
    if args.beta is not None and args.beta_range:
        raise ValueError("give --beta or --beta-range, not both")
    if args.B is not None and args.B_range:
        raise ValueError("give --B or --B-range, not both")
    if args.n is not None and args.n_list:
        raise ValueError("give --n or --n-list, not both")
    if args.out:
        # checked before any work, so a bad path is a usage error, not a failed check
        if os.path.isdir(args.out):
            raise ValueError(f"--out {args.out!r} is a directory; name a file")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"--out {args.out!r}: its directory does not exist")
    betas: tuple[float, ...] = ()
    if args.beta is not None:
        betas = (args.beta,)
    elif args.beta_range:
        betas = _parse_range(args.beta_range, "--beta-range")
    Bs: tuple[float, ...] = ()
    if args.B is not None:
        Bs = (args.B,)
    elif args.B_range:
        Bs = _parse_range(args.B_range, "--B-range")
    ns: tuple[int, ...] = ()
    if args.n is not None:
        ns = (args.n,)
    elif args.n_list:
        ns = _parse_nlist(args.n_list)
    return RunConfig(
        command=args.command,
        d=args.d,
        betas=betas,
        Bs=Bs,
        ns=ns,
        cache_dir=args.cache_dir,
        out=args.out,
        fmt=args.format,
        seed=args.seed,
        suite=getattr(args, "suite", None),
    )


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="annealed-ising",
        description="Annealed Ising model on random d-regular graphs: "
        "exact finite-size tables and thermodynamic-limit curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--d", type=int, default=3, help="graph degree (default 3)")
        sp.add_argument("--beta", type=float, help="inverse temperature")
        sp.add_argument("--beta-range", help="linear scan start:stop:steps")
        sp.add_argument("--B", type=float, help="external field")
        sp.add_argument("--B-range", help="linear scan start:stop:steps")
        sp.add_argument("--n", type=int, help="number of vertices")
        sp.add_argument("--n-list", help="comma-separated vertex counts")
        sp.add_argument("--cache-dir", help="directory for weight-table caching")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed for sampling checks")

    common(sub.add_parser("gtable", help="emit the table log g(d j, d n), j = 0..n"))
    common(sub.add_parser("thermo", help="scan thermodynamic quantities over a parameter grid"))
    v = sub.add_parser("verify", help="run a verification suite, emit a JSON report")
    common(v)
    v.add_argument("--suite", required=True, choices=SUITES)
    return p


# ---------------------------------------------------------------------------
# output plumbing


def _py(obj):
    """Make a report JSON-ready: numpy scalars to Python, float keys to repr."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if isinstance(k, float):
                k = repr(k)
            elif not isinstance(k, str):
                k = str(k)
            out[k] = _py(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _write(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(cfg: RunConfig, header: tuple[str, ...], rows: list[tuple]) -> None:
    if cfg.fmt == "json":
        payload = {"columns": list(header), "rows": [[_py(_as_py(v)) for v in row] for row in rows]}
        _write(cfg.out, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [",".join(header)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        _write(cfg.out, "\n".join(lines) + "\n")


def _as_py(v):
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    return float(v)


def _sibling(out: str, name: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(out)), name)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gtable(cfg: RunConfig) -> int:
    if len(cfg.ns) != 1 or len(cfg.betas) != 1:
        raise ValueError("gtable needs exactly one --n and one --beta")
    n, beta = cfg.ns[0], cfg.betas[0]
    table = matching.log_g_table(cfg.d, n, beta, cache_dir=cfg.cache_dir)
    if cfg.fmt == "json":
        payload = {
            "d": cfg.d,
            "n": n,
            "beta": beta,
            "log_g": [float(v) for v in table.values],
        }
        _write(cfg.out, json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["j,log_g"] + [f"{j},{float(v)!r}" for j, v in enumerate(table.values)]
        _write(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_thermo(cfg: RunConfig) -> int:
    if not cfg.betas:
        raise ValueError("thermo needs --beta or --beta-range")
    Bs = cfg.Bs or (0.0,)
    if cfg.ns:
        header = ("n", "beta", "B", "psi_n", "M_n", "chi_n")

        def work(n, b):
            table = finiten.build_table(cfg.d, n, b, cache_dir=cfg.cache_dir)
            return [
                (
                    n,
                    b,
                    B,
                    finiten.finite_pressure(table, B),
                    finiten.finite_magnetization(table, B),
                    finiten.finite_susceptibility(table, B),
                )
                for B in Bs
            ]

        rows = [row for n in cfg.ns for b in cfg.betas for row in work(n, b)]
    else:
        header = ("beta", "B", "psi", "M", "chi", "C", "t_hat")

        def work(b, B):
            params = thermo.ModelParams(cfg.d, b, B)
            try:
                tp = thermo.thermo_point(params)
            except (RuntimeError, ArithmeticError) as exc:
                # a failed row is reported, not fatal: scans straddle rough spots
                print(f"warning: beta={b!r} B={B!r}: {exc}", file=sys.stderr)
                nan = math.nan
                return (b, B, nan, nan, nan, nan, nan)
            return (b, B, tp.psi, tp.M, tp.chi, tp.C, tp.point.t_star)

        rows = [work(b, B) for b in cfg.betas for B in Bs]
    _emit_rows(cfg, header, rows)
    return 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    try:
        builder = _SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}") from None
    checks = builder(cfg)
    report = {
        "suite": suite,
        "d": cfg.d,
        "seed": cfg.seed,
        "checks": checks,
        "pass": bool(all(c["pass"] for c in checks)),
    }
    _write(cfg.out, json.dumps(_py(report), indent=2) + "\n")
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# verification suites


def _suite_taylor(cfg: RunConfig) -> list[dict]:
    return [criticality.taylor_check(cfg.d)]


def _suite_exponents(cfg: RunConfig) -> list[dict]:
    d = cfg.d
    return [
        criticality.exponent_report("exponent_beta", d, criticality.fit_exponent_beta(d)),
        criticality.exponent_report("exponent_delta", d, criticality.fit_exponent_delta(d)),
        criticality.exponent_report("exponent_gamma_below", d, criticality.fit_exponent_gamma(d, "below")),
        criticality.exponent_report("exponent_gamma_above", d, criticality.fit_exponent_gamma(d, "above")),
    ]


def _suite_jump(cfg: RunConfig) -> list[dict]:
    return [criticality.specific_heat_jump(cfg.d)]


def _suite_scaling(cfg: RunConfig) -> list[dict]:
    n_list = cfg.ns or (500, 1000, 2000, 4000)
    check = criticality.scaling_limit_check(cfg.d, n_list, cache_dir=cfg.cache_dir)
    if cfg.out:
        lines = ["n,moment2,moment4,ks_distance"]
        est = check["estimates"]
        for i, n in enumerate(check["grid"]):
            lines.append(
                f"{n},{est['moment2'][i]!r},{est['moment4'][i]!r},{est['ks_distance'][i]!r}"
            )
        _write(_sibling(cfg.out, "scan.csv"), "\n".join(lines) + "\n")
    return [check]


def _suite_finiten(cfg: RunConfig) -> list[dict]:
    d = cfg.d
    ns = cfg.ns or (250, 500, 1000)
    checks = []

    # closed forms of the free-spin model (beta = 0): psi = log 2 cosh B,
    # M = tanh B, chi(B=0) = 1, all exact up to table rounding
    n0 = ns[0]
    t0 = finiten.build_table(d, n0, 0.0, cache_dir=cfg.cache_dir)
    B0 = 0.7
    psi_gap = abs(finiten.finite_pressure(t0, B0) - math.log(2.0 * math.cosh(B0)))
    m_gap = abs(finiten.finite_magnetization(t0, B0) - math.tanh(B0))
    chi_gap = abs(finiten.finite_susceptibility(t0, 0.0) - 1.0)
    tol0 = 1e-12
    checks.append(
        {
            "check": "free_spin_closed_forms",
            "d": d,
            "grid": [n0],
            "estimates": {"psi_gap": psi_gap, "M_gap": m_gap, "chi_gap": chi_gap},
            "targets": {"psi_gap": 0.0, "M_gap": 0.0, "chi_gap": 0.0},
            "tolerances": {"abs": tol0},
            "pass": bool(psi_gap <= tol0 and m_gap <= tol0 and chi_gap <= tol0),
        }
    )

    # finite-size pressure converging to the limit value
    beta_s, B_s = 0.4, 0.1
    psi_inf = thermo.pressure(thermo.ModelParams(d, beta_s, B_s))
    tables = {n: finiten.build_table(d, n, beta_s, cache_dir=cfg.cache_dir) for n in ns}
    gaps = [abs(finiten.finite_pressure(tables[n], B_s) - psi_inf) for n in ns]
    checks.append(
        {
            "check": "pressure_gap_shrinks",
            "d": d,
            "grid": list(ns),
            "estimates": {"psi_gap": gaps},
            "targets": {"psi_limit": psi_inf},
            "tolerances": {"monotone": True},
            "pass": bool(all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))),
        }
    )

    # exact moments against central differences of the pressure in B
    nd = 500 if 500 in ns else max(ns)
    td = tables[nd]  # already built for the pressure gaps
    h = 1e-5
    dp = finiten.finite_pressure_increment(td, B_s, h)
    dm = finiten.finite_pressure_increment(td, B_s, -h)
    m_fd_gap = abs((dp - dm) / (2.0 * h) - finiten.finite_magnetization(td, B_s))
    chi_fd_gap = abs((dp + dm) / (h * h) - finiten.finite_susceptibility(td, B_s))
    told = 1e-6
    checks.append(
        {
            "check": "derivative_consistency",
            "d": d,
            "grid": [nd],
            "estimates": {"M_fd_gap": m_fd_gap, "chi_fd_gap": chi_fd_gap},
            "targets": {"M_fd_gap": 0.0, "chi_fd_gap": 0.0},
            "tolerances": {"abs": told},
            "pass": bool(m_fd_gap <= told and chi_fd_gap <= told),
        }
    )

    # mass and transform error outside the critical window
    if d >= 3:
        bc = thermo.critical_beta(d)
        ns_c = tuple(n for n in ns if n >= 200) or (500, 1000)
        reports = []
        law = None
        for n in ns_c:
            tc = finiten.build_table(d, n, bc, cache_dir=cfg.cache_dir)
            reports.append(finiten.truncation_check(tc))
            law = finiten.spin_law(tc, 0.0)
        tails = [r.tail_mass for r in reports]
        decreasing = all(tails[i + 1] < tails[i] for i in range(len(tails) - 1))
        checks.append(
            {
                "check": "critical_window",
                "d": d,
                "grid": list(ns_c),
                "estimates": {
                    "tail_mass": tails,
                    "mgf_gap": [r.mgf_gap for r in reports],
                },
                "targets": {
                    "tail_bound": [r.tail_bound for r in reports],
                    "mgf_gap": 0.0,
                },
                "tolerances": {"mgf_gap_abs": 1e-8},
                "pass": bool(all(r.passed for r in reports) and decreasing),
            }
        )
        if cfg.out and law is not None:
            finiten.write_spinlaw_csv(law, _sibling(cfg.out, "spinlaw.csv"))
    return checks


def _suite_matching(cfg: RunConfig) -> list[dict]:
    checks = []

    # enumerated law against the closed-form law, every (k, m) with m <= 12
    max_gap, cases = 0.0, 0
    for m in range(2, 13, 2):
        for k in range(0, m + 1):
            bf = matching.brute_force_law(k, m)
            cl = matching.cross_count_law(k, m)
            if set(bf) != set(cl):
                max_gap = math.inf
                continue
            for x, p in bf.items():
                max_gap = max(max_gap, abs(math.log(p) - math.log(cl[x])))
            cases += 1
    checks.append(
        {
            "check": "pairing_law_exact",
            "d": None,
            "grid": [2, 12],
            "estimates": {"max_log_gap": max_gap, "cases": cases},
            "targets": {"max_log_gap": 0.0},
            "tolerances": {"abs": 1e-12},
            "pass": bool(max_gap <= 1e-12),
        }
    )

    # sampler agrees with the law within Monte Carlo error
    rng = np.random.default_rng(cfg.seed)
    draws = 100_000
    mc_pass, worst = True, 0.0
    for k, m in ((4, 12), (7, 16), (12, 30)):
        law = matching.cross_count_law(k, m)
        mean = sum(x * p for x, p in law.items())
        var = sum(x * x * p for x, p in law.items()) - mean * mean
        se = math.sqrt(var / draws)
        xs = matching.sample_cross_counts(k, m, draws, rng)
        z = abs(float(np.mean(xs)) - mean) / se if se > 0 else 0.0
        worst = max(worst, z)
        mc_pass = mc_pass and z <= 4.0
    checks.append(
        {
            "check": "sampler_matches_law",
            "d": None,
            "grid": [draws],
            "estimates": {"worst_z": worst},
            "targets": {"worst_z": 0.0},
            "tolerances": {"z_max": 4.0},
            "pass": bool(mc_pass),
        }
    )

    # small-table identities: the (d=2, n=2) closed form, the free case,
    # symmetry, and the pinned endpoints
    beta = 0.3
    t22 = matching.log_g_table(2, 2, beta, cache_dir=cfg.cache_dir)
    gap22 = abs(t22.values[1] - math.log((1.0 + 2.0 * math.exp(-4.0 * beta)) / 3.0))
    t_free = matching.log_g_table(3, 40, 0.0, cache_dir=cfg.cache_dir)
    gap_free = float(np.max(np.abs(t_free.values)))
    t_sym = matching.log_g_table(3, 50, 0.37, cache_dir=cfg.cache_dir)
    gap_sym = float(np.max(np.abs(t_sym.values - t_sym.values[::-1])))
    ends = abs(t_sym.values[0]) + abs(t_sym.values[-1])
    tolg = 1e-12
    checks.append(
        {
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
            "tolerances": {"abs": tolg},
            "pass": bool(
                gap22 <= tolg and gap_free <= 1e-10 and gap_sym <= tolg and ends == 0.0
            ),
        }
    )
    return checks


_SUITES = {
    "taylor": _suite_taylor,
    "exponents": _suite_exponents,
    "jump": _suite_jump,
    "scaling": _suite_scaling,
    "finiten": _suite_finiten,
    "matching": _suite_matching,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _build_config(args)
        if cfg.command == "gtable":
            return cmd_gtable(cfg)
        if cfg.command == "thermo":
            return cmd_thermo(cfg)
        return cmd_verify(cfg, cfg.suite)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
