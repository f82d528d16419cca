"""Benchmark of the annealed-ising command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload limit_scan --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and prints every metric keyed ``<workload>.<metric>``.

Workloads (see workloads.py): ``limit_scan``, ``finite_scan`` and
``critical_verify``. The CLI runs in this process through
``annealed_ising.cli.main(argv)`` with stdout and stderr captured, so an op
costs what a caller of the CLI pays, minus interpreter start-up, which
``setup_s`` covers.

With ``--trace 0`` the run times ops back to back for ``--seconds`` and
reports the end-to-end metrics. With ``--trace 1`` it alternates an untraced
and a traced run of each op and reports per-layer metrics from the traced
ones (per op, over whole cycles of the workload's inputs, so counts repeat
exactly for a seed), plus the tracing overhead. Every op's output is
checked outside the timed region.

The last line of stdout is one JSON object: correct, attempted and failed
(ops), and metrics. The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
PINNED = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_COLD_IMPORT = (
    "import time; t = time.perf_counter(); import annealed_ising; "
    "print(repr(time.perf_counter() - t))"
)
SUITES = ("taylor", "exponents", "jump", "scaling", "finiten")
CHECKS = (
    "taylor_check",
    "fit_exponent_beta",
    "fit_exponent_delta",
    "fit_exponent_gamma",
    "specific_heat_jump",
    "scaling_limit_check",
)
MODULES = ("cli", "criticality", "finiten", "matching", "kernels", "thermo", "quadrature")
QUERIES = (
    "finiten.finite_pressure",
    "finiten.finite_pressure_increment",
    "finiten.finite_magnetization",
    "finiten.finite_susceptibility",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="limit_scan, finite_scan, critical_verify or all")
    p.add_argument("--seed", type=int, required=True, help="draws the workload's inputs")
    p.add_argument("--seconds", type=float, required=True, help="op time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    return p.parse_args(argv)


def fill_terms(d: int, n: int) -> int:
    """Summands the table fill evaluates for (d, n): computed, not measured."""
    m = d * n
    return sum(min(d * j, m - d * j) // 2 + 1 for j in range(n // 2 + 1))


def environment() -> dict:
    import numpy

    import annealed_ising

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_backend": annealed_ising.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def cold_import_seconds() -> float:
    """Time to import the package in a fresh interpreter, numpy included."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Result(NamedTuple):
    rc: int | None
    out: str
    err: str


class Runner:
    """Runs ops of one workload through cli.main and keeps the tallies."""

    def __init__(self, cli, workload, specs, tracer=None):
        self.cli = cli
        self.wl = workload
        self.specs = specs
        self.tracer = tracer
        self.ops = 0
        self.failed_ops = 0
        self.units = 0
        self.failed_units: list[str] = []
        self.problems: list[str] = []

    def _call(self, argv) -> Result:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.cli.main(argv)  # looked up per call: the tracer patches it
            except Exception as exc:  # an op that raises is a failed op, not a crash
                rc = None
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return Result(rc, out.getvalue(), err.getvalue())

    def op(self, i: int, traced: bool = False, tally: bool = True) -> float:
        """Run op i of the cycle; returns its duration in seconds."""
        idx = i % len(self.specs)
        spec = self.specs[idx]
        argvs = self.wl.argvs(spec)
        ctx = self.tracer.active(i) if traced else nullcontext()
        with ctx:
            t0 = time.perf_counter()
            results = [self._call(argv) for argv in argvs]
            dt = time.perf_counter() - t0
        try:
            oc = self.wl.check(idx, spec, argvs, results)
            units, failed, problems = oc.units, oc.failed, oc.problems
        except Exception as exc:  # malformed output: report, keep measuring
            units, failed, problems = 0, [], [f"check raised {type(exc).__name__}: {exc}"]
        self.problems += problems
        if tally:
            self.ops += 1
            self.failed_ops += bool(problems)
            self.units += units
            self.failed_units += failed
        return dt


def layer_metrics(tracer, ops: int, overhead_pct: float) -> dict:
    """Per-op layer numbers from the traced ops. `.ms` is self time unless noted."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter(tracer.counts)
    verify_s: dict[str, float] = defaultdict(float)
    hits = misses = 0
    read_s = write_s = 0.0
    terms = 0
    for _op, name, _tid, t0, t1, self_t, _sid, _psid, filled, note in tracer.records:
        calls[name] += 1
        if name == "cli.main":
            if note.startswith("verify:"):
                verify_s[note[7:]] += t1 - t0
            name = f"cli.main.{note.split(':')[0]}"
        self_s[name] += self_t
        if name == "matching.log_g_table":
            if filled:
                misses += 1
                write_s += self_t
            else:
                hits += 1
                read_s += self_t
        elif name == "kernels.gtable_values":
            terms += fill_terms(*note)

    def ms(*names):
        return 1e3 * sum(self_s[n] for n in names) / ops

    def per(x):
        return x / ops

    m = {}
    for mod in MODULES:
        m[f"{mod}.self_ms"] = (1e3 * sum(v for k, v in self_s.items() if k.startswith(mod + ".")) / ops, "ms")
    m["cli.thermo.ms"] = (ms("cli.main.thermo", "cli.cmd_thermo"), "ms")
    for s in SUITES:
        m[f"cli.verify.{s}.ms"] = (1e3 * verify_s[s] / ops, "ms")  # inclusive
    for c in CHECKS:
        m[f"criticality.{c}.ms"] = (ms(f"criticality.{c}"), "ms")
    m["finiten.build_table.ms"] = (ms("finiten.build_table"), "ms")
    m["finiten.spin_law.ms"] = (ms("finiten.spin_law"), "ms")
    m["finiten.queries.ms"] = (ms(*QUERIES), "ms")
    m["finiten.mgf_scaled.ms"] = (ms("finiten.mgf_scaled"), "ms")
    m["finiten.truncation_check.ms"] = (ms("finiten.truncation_check"), "ms")
    m["matching.log_g_table.hits"] = (per(hits), "count")
    m["matching.log_g_table.misses"] = (per(misses), "count")
    m["matching.cache_read_ms"] = (1e3 * per(read_s), "ms")
    m["matching.cache_write_ms"] = (1e3 * per(write_s), "ms")
    fill_s = self_s["kernels.gtable_values"]
    m["kernels.gtable_values.calls"] = (per(calls["kernels.gtable_values"]), "count")
    m["kernels.gtable_values.ms"] = (ms("kernels.gtable_values"), "ms")
    m["kernels.log_factorials.ms"] = (ms("kernels.log_factorials"), "ms")
    m["kernels.fill_terms"] = (per(terms), "count")  # computed from (d, n)
    m["kernels.ns_per_term"] = (1e9 * fill_s / terms if terms else 0.0, "ns")  # computed
    m["thermo.thermo_point.ms"] = (ms("thermo.thermo_point"), "ms")
    m["thermo.find_t_star.ms"] = (ms("thermo.find_t_star"), "ms")
    m["thermo.find_t_plus.ms"] = (ms("thermo.find_t_plus"), "ms")
    points = calls["thermo.thermo_point"]
    m["thermo.dH_beta.calls"] = (per(calls["thermo.dH_beta"]), "count")
    m["thermo.dH_beta.calls_per_point"] = (calls["thermo.dH_beta"] / points if points else 0.0, "count")
    m["thermo.d2H_beta.calls"] = (per(calls["thermo.d2H_beta"]), "count")
    m["quadrature.adaptive_quad.calls"] = (per(calls["quadrature.adaptive_quad"]), "count")
    m["quadrature.adaptive_quad.ms"] = (ms("quadrature.adaptive_quad"), "ms")
    m["quadrature.fixed_quad.calls"] = (per(calls["quadrature.fixed_quad"]), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def _cli_note(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    if argv[0] == "verify":
        return "verify:" + argv[argv.index("--suite") + 1]
    return argv[0]


def _gtable_note(args, kwargs):
    return (args[0], args[1])


def _dump(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("op", "name", "thread", "start", "end", "self", "id", "parent", "filled", "note")
    with open(path, "w", encoding="utf-8") as fh:
        for rec in tracer.records:
            fh.write(json.dumps(dict(zip(keys, rec)), default=str) + "\n")
        fh.write(json.dumps({"counts": dict(tracer.counts)}) + "\n")


def run_all(args, names) -> int:
    """Every workload in its own process, one after another; metrics keyed workload.metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    for var in PINNED:
        os.environ[var] = "1"
    os.environ.pop("ANNEALED_ISING_CACHE", None)
    if not (SRC / "annealed_ising" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    mods = [importlib.import_module(f"annealed_ising.{m}") for m in MODULES]
    cli = mods[0]
    from tracer import Tracer
    from workloads import WORKLOADS

    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    specs = wl.specs(random.Random(args.seed))
    tracer = None
    if args.trace:
        tracer = Tracer(mods, notes={"cli.main": _cli_note, "kernels.gtable_values": _gtable_note})
    runner = Runner(cli, wl, specs, tracer)
    env = environment()

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        # set-up, several times: cold import, fresh workload state, warm-up op
        setups = []
        for rep in range(SETUP_REPS):
            imp = cold_import_seconds()
            t0 = time.perf_counter()
            wl.setup(Path(tempfile.mkdtemp(prefix=f"setup{rep}-", dir=work)))
            runner.op(0, tally=False)
            setups.append(imp + time.perf_counter() - t0)
        setup_s = statistics.median(setups)

        times, traced_times = [], []
        i, spent = 0, 0.0
        if not args.trace:
            while spent < args.seconds:
                times.append(runner.op(i))
                spent += times[-1]
                i += 1
        else:
            # untraced and traced run of each op in turn, whole cycles only
            while spent < args.seconds or i % len(specs):
                times.append(runner.op(i))
                traced_times.append(runner.op(i, traced=True))
                spent += times[-1] + traced_times[-1]
                i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not runner.problems
    print(f"env: {json.dumps(env)}")
    print(
        f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"ops={runner.ops} cycle={len(specs)} correct={correct}"
    )
    for p in runner.problems[:20]:
        print(f"  problem: {p}")
    failed_ratio = len(runner.failed_units) / runner.units if runner.units else 0.0
    print(f"failed_ratio: {failed_ratio!r} ({len(runner.failed_units)}/{runner.units} {wl.unit})")
    for name, n in Counter(runner.failed_units).most_common():
        print(f"  failed unit: {name} (x{n})")
    for line in getattr(wl, "known", ()):
        print(f"  known defect: {line}")

    if not args.trace:
        tail = statistics.quantiles(times, n=100, method="inclusive")[wl.tail_q - 1] if len(times) > 1 else times[0]
        beyond = sum(t > tail for t in times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (1e3 * statistics.median(times), "ms"),
            "op_tail_ms": (1e3 * tail, "ms"),
            "units_per_s": (runner.units / sum(times), "1/s"),
            "ok_ratio": (1.0 - failed_ratio, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_REPS} set-ups: {', '.join(f'{s:.3f}' for s in setups)}",
            "op_p50_ms": f"n={len(times)}",
            "op_tail_ms": f"p{wl.tail_q}, n={len(times)}, {beyond} beyond"
            + ("; fewer than 10 beyond, run too short to resolve the tail" if beyond < 10 else ""),
            "units_per_s": f"{wl.unit}_per_s, {runner.units} {wl.unit} in {sum(times):.3f} s",
            "ok_ratio": "1 - failed_ratio",
        }
    else:
        overhead = 100.0 * (sum(traced_times) / sum(times) - 1.0)
        metrics = layer_metrics(tracer, len(traced_times), overhead)
        notes = {f"cli.verify.{s}.ms": "inclusive" for s in SUITES}
        notes |= {
            "kernels.fill_terms": "computed from (d, n), not measured",
            "kernels.ns_per_term": "computed: fill self time / fill_terms",
            "trace.overhead_pct": f"{len(traced_times)} traced vs {len(times)} untraced runs of the same ops",
        }
        _dump(tracer, scratch / f"trace-{wl.name}-seed{args.seed}.jsonl")
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:14.6g} {unit}{extra}")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.ops,
                "failed": runner.failed_ops,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
