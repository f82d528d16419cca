"""Command-line front end: argument parsing, dispatch, and output.

Three subcommands:

* ``gtable``  -- compute and emit the pairing-weight table log g(d j, d n).
* ``thermo``  -- scan pressure/magnetization/susceptibility/specific heat over
  a beta x B grid, in the thermodynamic limit by default or at the finite
  sizes ``--n`` lists (one size or a comma list).
* ``verify``  -- run one named verification suite and emit a JSON report;
  exit code 0 iff every check in the report passed. The checks live next to
  their math in ``criticality``, ``finiten`` and ``matching``; this module
  only maps a suite name to them and writes what they return.

The parsers are built once, at import, and check every flag where they
read it: a range or size list is parsed, and beta, B, d and n are
range-checked, by the flag's argparse type. ``main`` hands argv straight to
the named subcommand's parser; only an empty argv, an unknown command or a
top-level ``--help`` goes through the top-level one. It then adds only the
checks that need two flags or the filesystem (an odd d*n, sizes for a suite
that reads none, an empty ``--cache-dir`` or one naming or beneath a file,
and ``--out``), all before any work.

Output is deterministic for a fixed configuration: floats are
serialized with repr (shortest round-trip form), rows are emitted in grid
order, and reports carry no timestamps. JSON (``verify`` reports and
``--format json``) is the bytes of ``json.dumps(obj, indent=2)``, written by
``_dumps``, which hands every container of scalars to CPython's C encoder.

Only ``thermo`` is imported with this module; ``_import_numpy_side`` imports
the numpy-backed modules when ``gtable``, ``thermo --n`` or ``verify`` runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from . import thermo

__all__ = ["main", "cmd_gtable", "cmd_thermo", "cmd_verify"]


# argparse types: each reads one flag's text and rejects what the model cannot take
def _field(v: float) -> float:
    """A beta or B: finite and >= 0."""
    if not (math.isfinite(v) and v >= 0):
        raise argparse.ArgumentTypeError(f"{v!r} is not a finite value >= 0")
    return v


def _point(text: str) -> tuple[float]:
    return (_field(float(text)),)


def _range(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{text!r}: expected start:stop:steps")
    a, b, steps = _field(float(parts[0])), _field(float(parts[1])), int(parts[2])
    if steps < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: steps must be >= 1")
    # np.linspace(a, b, steps) bit for bit, in its order of operations: i*step + a, or i/div*delta + a
    # where the step underflows to 0, the last set to b; one step is 0*delta + a. All lie between the ends.
    delta, div = b - a, max(steps - 1, 1)
    step = delta / div
    values = [i / div * delta + a if step == 0 else i * step + a for i in range(steps)]
    if steps > 1:
        values[-1] = b
    return tuple(values)


def _degree(text: str) -> int:
    d = int(text)
    if d < 1:
        raise argparse.ArgumentTypeError(f"d={d}: need d >= 1")
    return d


def _size(text: str) -> tuple[int]:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"n={n}: need n >= 1")
    return (n,)


def _sizes(text: str) -> tuple[int, ...]:
    ns = tuple(n for p in text.split(",") if p.strip() for n in _size(p))
    if not ns:
        raise argparse.ArgumentTypeError(f"{text!r}: no sizes given")
    return ns


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so main prints it like any other."""

    def error(self, message):
        raise ValueError(message)


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own, which main hands argv to directly.

    Each subcommand takes only the flags it reads; any other is a usage error.
    """
    p = _Parser(
        prog="annealed-ising",
        description="Annealed Ising model on d-regular configuration-model graphs: "
        "exact finite-size tables and thermodynamic-limit curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    g = sub.add_parser("gtable", help="emit the table log g(d j, d n), j = 0..n")
    t = sub.add_parser("thermo", help="scan thermodynamic quantities over a parameter grid")
    v = sub.add_parser("verify", help="run a verification suite, emit a JSON report")
    v.add_argument("--suite", required=True, choices=SUITES)
    for sp in (g, t, v):
        sp.add_argument("--d", type=_degree, default=3, help="graph degree (default 3)")
        sp.add_argument("--cache-dir", help="directory for weight-table caching")
        sp.add_argument("--out", help="output path (default: stdout)")
    g.add_argument("--beta", dest="betas", type=_point, required=True, help="inverse temperature")
    g.add_argument("--n", dest="ns", type=_size, required=True, help="number of vertices")
    beta = t.add_mutually_exclusive_group(required=True)
    beta.add_argument("--beta", dest="betas", type=_point, help="inverse temperature")
    beta.add_argument("--beta-range", dest="betas", type=_range, help="linear scan start:stop:steps")
    field = t.add_mutually_exclusive_group()
    field.add_argument("--B", dest="Bs", type=_point, default=(0.0,), help="external field (default 0)")
    field.add_argument("--B-range", dest="Bs", type=_range, default=(0.0,), help="linear scan start:stop:steps")
    for sp in (t, v):
        sp.add_argument("--n", dest="ns", type=_sizes, default=(), help="number of vertices, or a comma list")
    for sp in (g, t):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    commands = {"gtable": g, "thermo": t, "verify": v}
    for name, sp in commands.items():
        sp.set_defaults(command=name)  # what the top-level parser would set
    return p, commands


# ---------------------------------------------------------------------------
# output plumbing

_CONTAINERS = (dict, list, tuple)
_encode_str = json.encoder.encode_basestring_ascii


@functools.lru_cache(maxsize=None)
def _level(depth: int) -> tuple:
    """At nesting `depth`: CPython's C encoder with the item separator "," +
    newline + the items' indent, that separator, and the closing line's pad."""
    sep = ",\n" + "  " * (depth + 1)
    default = json.JSONEncoder().default  # a TypeError, as in json.dumps
    # no circular-reference markers: only containers of scalars reach it
    enc = json.encoder.c_make_encoder(None, default, _encode_str, None, ": ", sep, False, False, True)
    return enc, sep, "\n" + "  " * depth


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte.

    With an indent json.dumps falls back to its pure-Python encoder. Here a
    container of scalars (and a lone scalar) goes through the C encoder in
    one call, with the item separator breaking the lines; only containers
    of containers are walked in Python. Tuples are lists, as in json.dumps.
    Without the C encoder this is json.dumps itself.
    """
    if json.encoder.c_make_encoder is None:
        return json.dumps(obj, indent=2)
    return _indented(obj, 0)


def _indented(obj, depth: int) -> str:
    enc, sep, pad = _level(depth)
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        return "".join(enc(obj, 0))
    if not obj:
        return "[]" if values is obj else "{}"
    if not any(map(isinstance, values, itertools.repeat(_CONTAINERS))):
        flat = "".join(enc(obj, 0))
        return flat[0] + sep[1:] + flat[1:-1] + pad + flat[-1]
    items = [_indented(v, depth + 1) if isinstance(v, _CONTAINERS) else "".join(enc(v, 0)) for v in values]
    if values is obj:
        return "[" + sep[1:] + sep.join(items) + pad + "]"
    keys = [_encode_str(k) if isinstance(k, str) else _key(k) for k in obj]
    return "{" + sep[1:] + sep.join([k + ": " + v for k, v in zip(keys, items)]) + pad + "}"


def _key(k) -> str:
    """A key that is not a str, as json.dumps writes it: the scalar's JSON text in quotes."""
    if k is None or isinstance(k, (int, float)):  # bool is an int
        return '"' + "".join(_level(0)[0](k, 0)) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(cfg: argparse.Namespace, header: tuple[str, ...], rows: list[tuple]) -> None:
    if cfg.format == "json":
        payload = {"columns": header, "rows": rows}
        _write(cfg.out, _dumps(payload) + "\n")
    else:
        lines = [",".join(header)]
        lines += [",".join(map(repr, row)) for row in rows]
        _write(cfg.out, "\n".join(lines) + "\n")


def _sibling(out: str, name: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(out)), name)


# ---------------------------------------------------------------------------
# subcommands; each takes the namespace main parsed


def _import_numpy_side() -> None:
    """Bind the numpy-backed modules here; --help and thermo's limit mode never call it."""
    global criticality, finiten, matching
    from . import criticality, finiten, matching


def cmd_gtable(cfg: argparse.Namespace) -> int:
    _import_numpy_side()
    (n,), (beta,) = cfg.ns, cfg.betas
    table = matching.log_g_table(cfg.d, n, beta, cache_dir=cfg.cache_dir)
    if cfg.format == "json":
        payload = {"d": cfg.d, "n": n, "beta": beta, "log_g": table.values.tolist()}
        _write(cfg.out, _dumps(payload) + "\n")
    else:
        _emit_rows(cfg, ("j", "log_g"), list(enumerate(table.values.tolist())))
    return 0


def cmd_thermo(cfg: argparse.Namespace) -> int:
    if cfg.ns:
        _import_numpy_side()
        header = ("n", "beta", "B", "psi_n", "M_n", "chi_n")

        def work(n, b):
            table = matching.log_g_table(cfg.d, n, b, cache_dir=cfg.cache_dir)
            laws = (finiten.spin_law(table, B) for B in cfg.Bs)
            return [(n, b, law.B, law.psi, law.M, law.chi) for law in laws]

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
            return (b, B, tp.psi, tp.M, tp.chi, tp.C, tp.t_hat)

        rows = [work(b, B) for b in cfg.betas for B in cfg.Bs]
    _emit_rows(cfg, header, rows)
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    _import_numpy_side()
    checks = _SUITES[cfg.suite](cfg)
    if cfg.out:
        _write_siblings(cfg, checks)
    report = {
        "suite": cfg.suite,
        "d": cfg.d,
        "checks": checks,
        "pass": bool(all(c["pass"] for c in checks)),
    }
    _write(cfg.out, _dumps(report) + "\n")
    return 0 if report["pass"] else 1


def _write_siblings(cfg: argparse.Namespace, checks: list[dict]) -> None:
    """The scaling suite's sibling from scaling_limit; the finiten suite writes its own."""
    for c in checks:
        if c["check"] == "scaling_limit":
            est = c["estimates"]
            rows = zip(c["grid"], est["moment2"], est["moment4"], est["ks_distance"])
            lines = ["n,moment2,moment4,ks_distance"]
            lines += [f"{n},{m2!r},{m4!r},{ks!r}" for n, m2, m4, ks in rows]
            _write(_sibling(cfg.out, _SIBLINGS["scaling"]), "\n".join(lines) + "\n")


def _given_sizes(cfg: argparse.Namespace) -> tuple:
    """--n's sizes as a positional argument, or none so the check's default sizes apply."""
    return (cfg.ns,) if cfg.ns else ()


# each suite's checks live with their math; the module attribute is looked up
# per call, so a tracer that patches it sees the call
_SUITES = {
    "taylor": lambda cfg: [criticality.taylor_check(cfg.d)],
    "exponents": lambda cfg: criticality.exponent_checks(cfg.d),
    "jump": lambda cfg: [criticality.specific_heat_jump(cfg.d)],
    "scaling": lambda cfg: [criticality.scaling_limit_check(cfg.d, *_given_sizes(cfg), cache_dir=cfg.cache_dir)],
    "finiten": lambda cfg: finiten.finite_size_checks(
        cfg.d,
        *_given_sizes(cfg),
        cache_dir=cfg.cache_dir,
        spinlaw_csv=_sibling(cfg.out, _SIBLINGS["finiten"]) if cfg.out else None,
    ),
    "matching": lambda cfg: [matching.pairing_law_exact(), matching.table_identities(cfg.cache_dir)],
}
SUITES = tuple(_SUITES)
# the file a suite writes next to its --out report
_SIBLINGS = {"scaling": "scan.csv", "finiten": "spinlaw.csv"}
_SIZED_SUITES = ("scaling", "finiten")  # the suites that read --n
_PARSER, _COMMANDS = _parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMANDS:  # straight to the subcommand's parser
            cfg = _COMMANDS[argv[0]].parse_args(argv[1:])
        else:  # no argv, an unknown command or top-level --help
            cfg = _PARSER.parse_args(argv)
        for n in cfg.ns:
            if cfg.d * n % 2:
                raise ValueError(f"d*n = {cfg.d}*{n} is odd: the pairing model needs d*n even")
        if cfg.command == "verify" and cfg.ns and cfg.suite not in _SIZED_SUITES:
            raise ValueError(f"unrecognized arguments: --n (suite {cfg.suite} reads no sizes)")
        if cfg.cache_dir is not None:
            if not cfg.cache_dir:  # os.path would take '' as the current directory
                raise ValueError("--cache-dir '': name a directory")
            cache = os.path.abspath(os.path.expanduser(cfg.cache_dir))
            while not os.path.exists(cache):  # to its nearest existing ancestor
                cache = os.path.dirname(cache)
            if not os.path.isdir(cache):
                raise ValueError(f"--cache-dir {cfg.cache_dir!r}: {cache!r} is not a directory")
        if cfg.out:
            # checked before any work, so a bad path is a usage error, not a failed check
            if os.path.isdir(cfg.out):
                raise ValueError(f"--out {cfg.out!r} is a directory; name a file")
            if not os.path.isdir(os.path.dirname(os.path.abspath(cfg.out))):
                raise ValueError(f"--out {cfg.out!r}: its directory does not exist")
            if cfg.command == "verify" and os.path.basename(os.path.abspath(cfg.out)) == _SIBLINGS.get(cfg.suite):
                raise ValueError(f"--out {cfg.out!r} names the file the {cfg.suite} suite writes beside it")
        if cfg.command == "gtable":
            return cmd_gtable(cfg)
        if cfg.command == "thermo":
            return cmd_thermo(cfg)
        return cmd_verify(cfg)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
