"""End-to-end command-line behavior: scans, caching, suites, exit codes."""

import json
import math
import os
import random
from collections import Counter

import numpy as np
import pytest

from annealed_ising import (
    ModelParams,
    cli,
    critical_beta,
    matching,
    spin_law,
    thermo_point,
)
from annealed_ising.cli import main
from annealed_ising.matching import cache_path
from test_thermo import _golden_section_pressure

BC3 = critical_beta(3)


@pytest.fixture
def fills(monkeypatch):
    """Counter of the table fills, keyed by (d, n, beta), made while the test runs."""
    counts = Counter()
    real = matching.gtable_values

    def counting(d, n, beta):
        counts[d, n, beta] += 1
        return real(d, n, beta)

    monkeypatch.setattr(matching, "gtable_values", counting)
    return counts


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# gtable


def test_gtable_writes_and_caches(tmp_path):
    out = tmp_path / "table.csv"
    args = [
        "gtable",
        "--d", "3",
        "--n", "100",
        "--beta", repr(BC3),
        "--cache-dir", str(tmp_path / "cache"),
        "--out", str(out),
    ]
    assert main(args) == 0
    header, rows = read_csv(out)
    assert header == ["j", "log_g"]
    assert len(rows) == 101
    assert float(rows[0]["log_g"]) == 0.0
    assert float(rows[100]["log_g"]) == 0.0
    cached = cache_path(tmp_path / "cache", 3, 100, BC3)
    stamp = cached.stat().st_mtime_ns
    assert main(args) == 0  # second run hits the cache
    assert cached.stat().st_mtime_ns == stamp


def test_the_free_table_prints_every_row_as_zero(capsys):
    # at beta = 0, g = 1 exactly, so every log_g must print as 0.0
    assert main(["gtable", "--d", "3", "--n", "8000", "--beta", "0"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "j,log_g" and len(rows) == 8001
    assert {row.split(",")[1] for row in rows} == {"0.0"}


@pytest.mark.parametrize(
    "argv",
    [
        ["gtable", "--d", "3", "--n", "10", "--beta", "0.5"],
        # a blocked fill of 188 blocks of 64 steps
        ["gtable", "--d", "3", "--n", "8000", "--beta", "0.55"],
        ["thermo", "--d", "3", "--n", "8000", "--beta", "0.6", "--B-range", "0:0.2:6"],
        ["verify", "--suite", "finiten", "--d", "3"],
        ["verify", "--suite", "scaling", "--d", "3"],
    ],
)
def test_a_cache_hit_prints_the_bytes_of_the_miss(argv, fills, tmp_path, capsys):
    # the first run fills every table into a fresh cache, the second reads them
    # back and must print the same bytes; the finiten and scaling suites may
    # exit 1 on their asymptotic-only gates, so only the codes' equality is gated
    cache = tmp_path / "cache"
    argv = argv + ["--cache-dir", str(cache)]
    miss_rc = main(argv)
    miss = capsys.readouterr().out
    filled = sum(fills.values())
    assert miss_rc in (0, 1)
    assert filled > 0 and len(list(cache.iterdir())) == filled
    assert main(argv) == miss_rc
    assert capsys.readouterr().out == miss
    assert sum(fills.values()) == filled  # every table of the second run was a hit


def test_gtable_usage_errors(tmp_path):
    assert main(["gtable", "--d", "3", "--n", "33", "--beta", "0.5"]) == 2  # d*n odd
    assert main(["gtable", "--d", "3", "--n-list", "10,20", "--beta", "0.5"]) == 2
    assert main(["gtable", "--d", "3", "--n", "10"]) == 2  # no beta at all


def test_gtable_takes_one_size(capsys):
    # gtable emits one table, so its --n is one size, not a comma list
    assert main(["gtable", "--d", "3", "--n", "10,20", "--beta", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --n: ")


# ---------------------------------------------------------------------------
# thermo


def test_thermo_limit_scan_straddles_transition(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(
        ["thermo", "--d", "3", "--beta-range", "0.0:0.8:9", "--B", "0", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["beta", "B", "psi", "M", "chi", "C", "t_hat"]
    assert len(rows) == 9
    betas = [float(r["beta"]) for r in rows]
    assert betas == sorted(betas) and betas[0] == 0.0
    assert float(rows[0]["psi"]) == pytest.approx(math.log(2.0), rel=1e-14)
    assert float(rows[0]["M"]) == 0.0
    assert float(rows[0]["chi"]) == 1.0
    # spontaneous order above the transition (beta_c ~ 0.549), none below
    for b, r in zip(betas, rows):
        if b < BC3:
            assert float(r["M"]) == 0.0
        else:
            assert float(r["M"]) > 0.1
    # susceptibility peaks at the grid point nearest the transition (0.5)
    chis = [float(r["chi"]) for r in rows]
    assert chis.index(max(chis)) == 5
    # the heat jumps across it: the first ordered row sits far above the last
    # disordered one
    cs = [float(r["C"]) for r in rows]
    assert cs[6] - cs[5] > 3.0


def test_thermo_limit_rows_are_thermo_point_in_grid_order(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["thermo", "--d", "3", "--beta-range", "0.1:1.6:7", "--B-range", "0:0.4:3"]
    assert main(argv + ["--out", str(out)]) == 0
    expected = ["beta,B,psi,M,chi,C,t_hat"]
    for b in np.linspace(0.1, 1.6, 7):
        for B in np.linspace(0.0, 0.4, 3):
            tp = thermo_point(ModelParams(3, float(b), float(B)))
            row = (b, B, tp.psi, tp.M, tp.chi, tp.C, tp.t_hat)
            expected.append(",".join(repr(float(v)) for v in row))
    assert out.read_text().splitlines() == expected


def test_thermo_reaches_the_deep_ordered_rows(tmp_path, capsys):
    """Every row of the d=5 grid is finite, down to 1 - t_hat = 1.3e-14 at
    (beta, B) = (3, 1); the variational path left 151 of them nan."""
    out = tmp_path / "d5.csv"
    argv = ["thermo", "--d", "5", "--beta-range", "0.01:3:60", "--B-range", "0:1:21"]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, rows = read_csv(out)
    vals = [[float(r[k]) for k in header] for r in rows]
    assert len(vals) == 1260
    assert all(math.isfinite(v) for row in vals for v in row)
    assert all(row[3] == 2.0 * row[6] - 1.0 for row in vals)
    # the last row is (3, 1) and row 1218 is (2.95, 0); the rest are seeded
    for i in [1259, 1218] + random.Random(5).sample(range(1260), 4):
        b, B, psi = vals[i][:3]
        assert psi == pytest.approx(_golden_section_pressure(5, b, B), rel=0.0, abs=1e-9), (b, B)


def test_thermo_magnetization_monotone_in_field(tmp_path):
    out = tmp_path / "mb.csv"
    assert main(["thermo", "--d", "3", "--beta", "0.4", "--B-range", "0.0:0.5:6", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    ms = [float(r["M"]) for r in rows]
    assert ms == sorted(ms)
    assert ms[0] == 0.0 and ms[-1] > 0.5


def test_thermo_finite_mode_matches_library(tmp_path, cache_dir):
    out = tmp_path / "fin.csv"
    rc = main(
        [
            "thermo",
            "--d", "3",
            "--beta", "0.4",
            "--B", "0.1",
            "--n", "100,200",
            "--cache-dir", cache_dir,
            "--out", str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["n", "beta", "B", "psi_n", "M_n", "chi_n"]
    assert [r["n"] for r in rows] == ["100", "200"]
    t = matching.log_g_table(3, 100, 0.4, cache_dir=cache_dir)
    assert float(rows[0]["psi_n"]) == spin_law(t, 0.1).psi  # 17-digit round trip


def test_thermo_size_list_prints_each_sizes_rows_in_turn(capsys):
    # one --n with a comma list: the header once, then each size's rows in the list's order
    head = ["thermo", "--d", "4", "--beta", "0.3", "--n"]
    outs = {}
    for sizes in ("8", "50", "8,50"):
        assert main(head + [sizes]) == 0
        outs[sizes] = capsys.readouterr().out.splitlines()
    assert outs["8"][0] == "n,beta,B,psi_n,M_n,chi_n"
    assert len(outs["8"]) == len(outs["50"]) == 2
    assert outs["8"][1].startswith("8,") and outs["50"][1].startswith("50,")
    assert outs["8,50"] == outs["8"] + outs["50"][1:]


def test_thermo_json_output(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["thermo", "--d", "3", "--beta", "0.4", "--B", "0.0", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["beta", "B", "psi", "M", "chi", "C", "t_hat"]
    assert len(doc["rows"]) == 1
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["M"] == 0.0 and row["t_hat"] == 0.5
    assert row["beta"] == 0.4


def test_thermo_reports_unreachable_roots_and_continues(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    rc = main(["thermo", "--d", "3", "--beta", "0.3", "--B", "50", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert rows[0]["psi"] == "nan" and rows[0]["M"] == "nan"
    assert "warning" in capsys.readouterr().err


def test_a_range_is_linspace_bit_for_bit():
    """--beta-range and --B-range give np.linspace's values, -0.0 included:
    equal and descending ends, a step that underflows to 0, 1 and 2 steps,
    and the benchmark's limit-scan grids."""
    rng = random.Random(37)
    tiny = 5e-324
    cases = [(-0.0, -0.0, 1), (-0.0, 0.0, 2), (0.0, tiny, 3), (1.0, 1.0, 4), (0.5, 0.1, 2)]
    for _ in range(3000):
        kind = rng.randrange(5)
        if kind == 0:  # equal ends
            a = b = rng.choice([0.0, -0.0, rng.uniform(0, 2)])
        elif kind == 1:  # a subnormal difference: the step underflows to 0
            a = rng.choice([0.0, -0.0, tiny * rng.randint(1, 99)])
            b = a + tiny * rng.randint(0, 60)
        elif kind == 2:  # the limit-scan workload's beta and B grids
            a, b = rng.choice([(rng.uniform(0.05, 0.15), rng.uniform(1.5, 1.6)), (0.0, rng.uniform(0.3, 0.5))])
        else:  # any order, any scale
            a, b = (rng.random() * rng.choice([1e-300, 1e-8, 1.0, 1e3, 1e300]) for _ in "ab")
        cases.append((a, b, rng.choice([1, 2, rng.randint(1, 64)])))
    for a, b, steps in cases:
        got = cli._range(f"{a!r}:{b!r}:{steps}")
        want = np.linspace(a, b, steps).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in want], (a, b, steps)
    assert np.linspace(-0.0, -0.0, 1)[0].hex() == "0x0.0p+0"  # so one step is not just (a,)


def test_flag_conflicts_are_usage_errors():
    assert main(["thermo", "--d", "3", "--beta", "0.3", "--beta-range", "0.1:0.2:2"]) == 2
    assert main(["thermo", "--d", "3", "--beta", "0.3", "--B", "0.1", "--B-range", "0:1:2"]) == 2
    assert main(["thermo", "--d", "3", "--beta-range", "0.2:0.1"]) == 2  # malformed range
    assert main(["thermo", "--d", "0", "--beta", "0.3"]) == 2
    assert main(["thermo", "--d", "3", "--beta", "0.3", "--threads", "2"]) == 2  # no such flag


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "taylor", "--d", "3", "--format", "csv"],  # the report is JSON
        ["verify", "--suite", "taylor", "--d", "3", "--beta", "0.3"],
        ["gtable", "--d", "3", "--n", "10", "--beta", "0.5", "--B", "0.3"],
        ["gtable", "--d", "3", "--n", "10", "--beta", "0.5", "--seed", "4"],
        ["thermo", "--d", "3", "--beta", "0.3", "--seed", "4"],
        ["verify", "--suite", "matching", "--d", "3", "--seed", "1"],
        # sizes are read only by the scaling and finiten suites
        ["verify", "--suite", "taylor", "--d", "3", "--n", "10,20"],
        ["verify", "--suite", "exponents", "--d", "3", "--n", "10,20"],
        ["verify", "--suite", "jump", "--d", "3", "--n", "10,20"],
        ["verify", "--suite", "matching", "--d", "3", "--n", "10,20"],
        ["verify", "--suite", "taylor", "--d", "3", "--n", "10"],
        # gtable emits one table: one --n and one --beta
        ["gtable", "--d", "3", "--n", "10", "--beta", "0.5", "--n-list", "10,20"],
        ["gtable", "--d", "3", "--n", "10", "--beta", "0.5", "--beta-range", "0.1:0.2:2"],
        # --n-list is gone: --n takes one size or a comma list
        ["thermo", "--d", "3", "--beta", "0.3", "--n-list", "10,20"],
        ["verify", "--suite", "scaling", "--d", "3", "--n-list", "250,500"],
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized arguments: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["thermo", "--d", "3", "--n", "100", "--beta", "nan"],
        ["gtable", "--d", "3", "--n", "4", "--beta", "nan"],
        ["thermo", "--d", "3", "--n", "100", "--beta", "inf"],
        ["thermo", "--d", "3", "--n", "100", "--beta", "0.3", "--B", "nan"],
        ["thermo", "--d", "3", "--beta", "nan"],
        ["thermo", "--d", "3", "--beta-range", "0:inf:3"],
        ["verify", "--suite", "taylor", "--d", "3", "--beta", "nan"],
        # a negative one is rejected by the same check
        ["thermo", "--d", "3", "--beta", "-0.1"],
        ["thermo", "--d", "3", "--beta", "0.3", "--B", "-1"],
        ["thermo", "--d", "3", "--beta-range", "-0.2:0.4:3"],
        ["gtable", "--d", "3", "--n", "4", "--beta", "-0.5"],
    ],
)
def test_non_finite_beta_or_field_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("suite", ["taylor", "exponents", "jump", "scaling"])
def test_a_critical_point_suite_at_d_2_is_a_usage_error(suite, capsys):
    assert main(["verify", "--suite", suite, "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: d=2: the critical point needs d >= 3\n"


@pytest.mark.parametrize(
    "head",
    [
        ["gtable", "--d", "3", "--n", "10", "--beta", "0.5"],
        ["verify", "--suite", "scaling", "--d", "3", "--n", "250,500"],
    ],
)
@pytest.mark.parametrize("name", ["table", "~/table", "table/sub", "~/table/sub"])
def test_a_cache_dir_naming_a_file_is_a_usage_error(head, name, tmp_path, monkeypatch, capsys):
    # the table used to be filled first, and the cache write then died with a
    # traceback; a directory beneath the file is refused the same way
    monkeypatch.setenv("HOME", str(tmp_path))
    (tmp_path / "table").write_bytes(b"")
    assert main(head + ["--cache-dir", name if name.startswith("~") else str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cache-dir ")
    assert [p.name for p in tmp_path.iterdir()] == ["table"]
    assert (tmp_path / "table").read_bytes() == b""


@pytest.mark.parametrize(
    "head",
    [
        ["gtable", "--d", "3", "--n", "10", "--beta", "0.5"],
        ["thermo", "--d", "3", "--n", "10", "--beta", "0.5"],
        ["verify", "--suite", "scaling", "--d", "3", "--n", "250,500"],
    ],
    ids=["gtable", "thermo", "verify"],
)
def test_an_empty_cache_dir_is_a_usage_error(head, tmp_path, monkeypatch, capsys):
    # os.path takes '' as the current directory, where the table used to land
    monkeypatch.chdir(tmp_path)
    assert main(head + ["--cache-dir", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cache-dir ")
    assert list(tmp_path.iterdir()) == []


def test_the_finiten_suite_at_d_1_is_a_usage_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["verify", "--suite", "finiten", "--d", "1", "--cache-dir", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: d=1: need an integer >= 2\n"
    assert not cache.exists()  # rejected before any table


def test_the_shared_parser_carries_nothing_between_calls(capsys):
    """The parser is built once; a flag given in one call must not stay set in the next."""
    assert main(["thermo", "--d", "3", "--beta", "0.4", "--B", "0.3"]) == 0
    capsys.readouterr()
    assert main(["thermo", "--d", "3", "--beta", "0.4"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["B"] == "0.0"
    assert main(["thermo", "--d", "3", "--n", "100", "--beta", "0.4"]) == 0
    assert capsys.readouterr().out.startswith("n,beta,B,psi_n,M_n,chi_n\n")
    assert main(["thermo", "--d", "3", "--beta", "0.4"]) == 0
    assert capsys.readouterr().out.startswith("beta,B,psi,M,chi,C,t_hat\n")


def test_main_reuses_the_parser_built_at_import(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", lambda: pytest.fail("main built a parser"))
    assert main(["thermo", "--d", "3", "--beta", "0.4"]) == 0


@pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["empty", "unknown"])
def test_no_command_or_an_unknown_one_is_a_usage_error(argv, capsys):
    # both go through the top-level parser, not a subcommand's
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["thermo", "--help"]], ids=["help", "h", "thermo"])
def test_help_prints_usage_to_stdout_and_exits_0(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ")
    assert captured.err == ""


# ---------------------------------------------------------------------------
# verify


def test_verify_exit_codes():
    assert main(["verify", "--suite", "taylor", "--d", "4"]) == 0
    assert main(["verify", "--suite", "jump", "--d", "3"]) == 1  # honest red


@pytest.mark.parametrize("suite", cli.SUITES)
def test_every_check_keeps_the_report_shape(suite, cache_dir, capsys):
    sizes = ["--n", "250,500"] if suite in ("scaling", "finiten") else []
    assert main(["verify", "--suite", suite, "--d", "3", "--cache-dir", cache_dir, *sizes]) in (0, 1)
    keys = {"check", "d", "grid", "estimates", "targets", "tolerances", "pass"}
    if suite == "exponents":
        keys |= {"exponent_pass", "amplitude_pass"}
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks
    for c in checks:
        assert set(c) == keys, c["check"]
        assert isinstance(c["pass"], bool)


def test_verify_unknown_suite_is_usage_error():
    # argparse rejects the choice; main converts the SystemExit to code 2
    assert main(["verify", "--suite", "nonsense", "--d", "3"]) == 2
    assert main(["verify", "--d", "3"]) == 2  # --suite is required


def test_verify_matching_report(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", "matching", "--d", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "matching" and rep["pass"] is True
    names = [c["check"] for c in rep["checks"]]
    assert names == ["pairing_law_exact", "table_identities"]
    assert all(c["pass"] for c in rep["checks"])
    assert rep["checks"][0]["estimates"]["cases"] == 48
    assert rep["checks"][0]["estimates"]["count_mismatches"] == 0


def test_verify_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "matching", "--d", "3", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_scaling_writes_sibling_scan(tmp_path, cache_dir):
    out = tmp_path / "scaling.json"
    rc = main(
        [
            "verify",
            "--suite", "scaling",
            "--d", "3",
            "--n", "250,500",
            "--cache-dir", cache_dir,
            "--out", str(out),
        ]
    )
    assert rc == 1  # transform tolerances unreachable at these sizes
    rep = json.loads(out.read_text())
    assert rep["checks"][0]["check"] == "scaling_limit"
    scan = tmp_path / "scan.csv"
    header, rows = read_csv(scan)
    assert header == ["n", "moment2", "moment4", "ks_distance"]
    assert [r["n"] for r in rows] == ["250", "500"]
    assert float(rows[1]["ks_distance"]) < float(rows[0]["ks_distance"])


def test_verify_finiten_writes_sibling_spinlaw(tmp_path, cache_dir):
    out = tmp_path / "finiten.json"
    rc = main(
        [
            "verify",
            "--suite", "finiten",
            "--d", "3",
            "--n", "250,500",
            "--cache-dir", cache_dir,
            "--out", str(out),
        ]
    )
    assert rc == 1  # the critical-window tail is far above n^-4 at these n
    rep = json.loads(out.read_text())
    names = [c["check"] for c in rep["checks"]]
    assert names[:3] == ["free_spin_closed_forms", "pressure_gap_shrinks", "derivative_consistency"]
    assert all(c["pass"] for c in rep["checks"][:3])
    text = (tmp_path / "spinlaw.csv").read_text()
    assert "np.float64" not in text
    assert len(text.splitlines()) == 1 + 501  # the law at the window's largest n


def test_verify_finiten_out_fills_each_table_once(fills, tmp_path):
    # without a cache, spinlaw.csv must come from the law the checks built,
    # not from a second fill of the window's largest table
    out = tmp_path / "f.json"
    rc = main(["verify", "--suite", "finiten", "--d", "3", "--out", str(out)])
    assert rc == 1  # the critical-window gates are asymptotic-only
    tables = [(250, 0.0)] + [(n, b) for b in (0.4, BC3) for n in (250, 500, 1000)]
    assert fills == Counter({(3, n, b): 1 for n, b in tables})
    assert len((tmp_path / "spinlaw.csv").read_text().splitlines()) == 1 + 1001


def test_verify_finiten_runs_the_window_on_the_sizes_it_is_given(fills, tmp_path):
    # small sizes are the window's sizes too: no table outside --n is filled,
    # and spinlaw.csv holds the law at the largest of them
    out = tmp_path / "f.json"
    assert main(["verify", "--suite", "finiten", "--d", "3", "--n", "8,50", "--out", str(out)]) == 1
    window = json.loads(out.read_text())["checks"][3]
    assert window["check"] == "critical_window" and window["grid"] == [8, 50]
    assert window["estimates"]["tail_mass"] == [0.0, 0.0]  # both laws lie inside |S| <= 2 n^{5/6}
    assert window["pass"] is False  # a tail that does not fall
    tables = [(8, 0.0)] + [(n, b) for b in (0.4, BC3) for n in (8, 50)]
    assert fills == Counter({(3, n, b): 1 for n, b in tables})
    assert len((tmp_path / "spinlaw.csv").read_text().splitlines()) == 1 + 51


def test_verify_finiten_sorts_its_sizes(cache_dir, capsys):
    # the pressure gaps must shrink from the smallest size up, whatever
    # order the sizes are given in
    head = ["verify", "--suite", "finiten", "--d", "3", "--cache-dir", cache_dir, "--n"]
    assert main(head + ["250,500,1000"]) == 1  # the critical-window gates are asymptotic-only
    sorted_report = capsys.readouterr().out
    assert main(head + ["1000,500,250"]) == 1
    assert capsys.readouterr().out == sorted_report
    assert json.loads(sorted_report)["checks"][1]["pass"] is True


@pytest.mark.parametrize("sizes", [["--n", "250"], ["--n", "250,250"]], ids=["one", "repeated"])
def test_verify_finiten_needs_two_distinct_sizes(sizes, tmp_path, capsys):
    # the rule and message of the scaling suite's sizes
    argv = ["verify", "--suite", "finiten", "--d", "3", "--cache-dir", str(tmp_path / "cache"), *sizes]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need at least two distinct sizes, got (250")
    assert list(tmp_path.iterdir()) == []  # rejected before any table


@pytest.mark.parametrize("suite, sibling", [("scaling", "scan.csv"), ("finiten", "spinlaw.csv")])
def test_out_naming_the_suites_sibling_is_a_usage_error(suite, sibling, tmp_path, capsys):
    # the sibling would be written first and then overwritten by the report
    argv = ["verify", "--suite", suite, "--d", "3", "--n", "250,500"]
    assert main(argv + ["--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / sibling)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out ")
    assert list(tmp_path.iterdir()) == []  # rejected before any work


def test_outputs_land_exactly_where_asked(tmp_path):
    nested = tmp_path / "deep" / "dir"
    os.makedirs(nested)
    out = nested / "t.csv"
    assert main(["thermo", "--d", "3", "--beta", "0.0", "--B", "0", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "head",
    [
        ["gtable", "--d", "3", "--n", "10", "--beta", "0.5"],
        ["verify", "--suite", "scaling", "--d", "3", "--n", "250,500"],
    ],
)
def test_out_into_a_missing_directory_or_onto_a_directory_is_a_usage_error(head, tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.out", tmp_path):
        assert main(head + ["--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out ")
    assert list(tmp_path.iterdir()) == []  # rejected before any work: no output, cache or sibling


# ---------------------------------------------------------------------------
# the indented-JSON writer


@pytest.fixture
def dumped(monkeypatch):
    """The objects main writes as JSON, recorded as they pass through cli._dumps."""
    objs = []
    real = cli._dumps

    def spy(obj):
        objs.append(obj)
        return real(obj)

    monkeypatch.setattr(cli, "_dumps", spy)
    return objs


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", s, "--d", str(d)] for s in cli.SUITES for d in (3, 4)]
    + [
        ["verify", "--suite", "finiten", "--d", "2"],
        # limit mode: B = 50 at beta = 0.3 and beta = 6 at B = 0 are nan rows
        ["thermo", "--d", "3", "--beta-range", "0.3:6:3", "--B-range", "0:50:3", "--format", "json"],
        ["thermo", "--d", "4", "--n", "8,50", "--beta-range", "0.1:1.2:3", "--B", "0.2", "--format", "json"],
        ["gtable", "--d", "3", "--n", "300", "--beta", "0.3", "--format", "json"],
        ["gtable", "--d", "4", "--n", "11", "--beta", "0", "--format", "json"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:5]),
)
def test_the_json_writer_prints_the_bytes_of_json_dumps(argv, dumped, cache_dir, capsys):
    assert main(argv + ["--cache-dir", cache_dir]) in (0, 1)
    (obj,) = dumped
    assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        [[], {}, ()],
        {"a": {}, "b": [[]], "c": ({},)},
        (1, (2.5, "x"), [None, (True,)]),
        {1.5: 1, 2: 2.0, True: False, None: None, -0.0: "z", math.nan: 0, math.inf: -1, -math.inf: 1},
        {"k": {False: [1], 7: {"x": None}, 0.1: ()}},
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324, 0.1, 10**30, -7, True, False, None],
        [np.float64(0.1), np.float64(math.nan), -np.float64(math.inf)],  # float subclasses
        ["quote \" backslash \\ slash / \t\n\r\b\f nul \x00 \x1f del \x7f", "é ü 中 \U0001f600 \u2028 \ud800", ""],
        {"é\n\"": ["\x1f", {"\u00ff": "\udfff"}], "": ""},
        "a lone string \u00e9",
        3.25,
        math.nan,
        -0.0,
        None,
        True,
        7,
        {"deep": [[[[[[[[[[1, [2]]]]]]]]]]], "z": [[[]]]},
        {"mixed": [1, [2], {"k": (3, [])}, "s"], "k2": "v", "k3": {"only": "scalars", "n": 1}},
    ],
)
def test_the_json_writer_matches_json_dumps_on_edge_cases(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{"a": object()}, [np.bool_(True)], {(1, 2): 0}, {"a": [{1, 2}]}, [[{(): 1}]]])
def test_the_json_writer_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        cli._dumps(obj)


def test_the_json_writer_without_the_c_encoder(monkeypatch):
    obj = {"a": [1.5, math.nan, (2, "é")], "b": {}, 3: [[]]}
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert cli._dumps(obj) == json.dumps(obj, indent=2)
