"""The package surface, and what a fresh interpreter loads to use it.

The limit side (`thermo`, and `thermo` without `--n`) needs only the
standard library; the numpy-backed modules load on first use. Each probe
runs in its own interpreter, since this one has numpy loaded already.
"""

import json
import os
import subprocess
import sys

import pytest

import annealed_ising
from annealed_ising import criticality, finiten, kernels, matching, thermo
from annealed_ising.cli import main

_SRC = os.path.dirname(os.path.dirname(annealed_ising.__file__))
_EXPORTED = ["__version__", *kernels.__all__, *matching.__all__, *thermo.__all__, *finiten.__all__, *criticality.__all__]


def _fresh(snippets: list[str]) -> list[tuple[str, dict]]:
    """Run each snippet in its own interpreter, all at once; return its stdout and
    the JSON object its last stderr line holds (the snippet's `probe`, plus
    whether numpy was imported)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    tail = "\nimport json, sys\nprint(json.dumps({**globals().get('probe', {}), 'numpy': 'numpy' in sys.modules}), file=sys.stderr)"
    procs = [
        subprocess.Popen([sys.executable, "-c", s + tail], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for s in snippets
    ]
    results = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            results.append((out, json.loads(err.splitlines()[-1])))
    finally:
        for proc in procs:
            proc.kill()  # a no-op on each one that finished
    return results


def _cli(argv: list[str]) -> str:
    return f"from annealed_ising import cli\nprobe = {{'rc': cli.main({argv!r})}}"


LIMIT_ARGV = ["thermo", "--d", "3", "--beta-range", "0.3:0.6:4", "--B-range", "0:0.2:2"]
NUMPY_ARGV = [
    ["thermo", "--d", "3", "--n", "8", "--beta", "0.4", "--B", "0.1"],
    ["gtable", "--d", "3", "--n", "10", "--beta", "0.5"],
    ["verify", "--suite", "taylor", "--d", "3"],
]


def test_the_limit_side_loads_no_numpy(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width here and in a fresh interpreter
    limit = [
        "import annealed_ising",
        "import annealed_ising\nannealed_ising.thermo_point(annealed_ising.ModelParams(3, 0.5, 0.1))",
    ]
    argvs = [LIMIT_ARGV, LIMIT_ARGV + ["--format", "json"], ["--help"], *NUMPY_ARGV]
    results = _fresh(limit + [_cli(argv) for argv in argvs])
    assert [probe["numpy"] for _, probe in results[:2]] == [False, False]
    # each command prints in a fresh interpreter what it prints here; only
    # gtable, thermo --n and verify import numpy
    for argv, (out, probe) in zip(argvs, results[2:]):
        rc = main(argv)
        assert (out, probe["rc"]) == (capsys.readouterr().out, rc), argv
        assert probe["numpy"] is (argv[0] in ("gtable", "verify") or "--n" in argv), argv
    assert results[-1][1]["rc"] == 0 and json.loads(results[-1][0])["pass"] is True


def test_the_package_exports_every_modules_names():
    assert annealed_ising.__all__ == _EXPORTED
    star = {}
    exec("from annealed_ising import *", star)
    for mod in (kernels, matching, thermo, finiten, criticality):
        for name in mod.__all__:
            assert star[name] is getattr(mod, name) is getattr(annealed_ising, name)
    assert star["__version__"] == annealed_ising.__version__
    assert set(_EXPORTED) <= set(dir(annealed_ising))
    assert annealed_ising.KERNEL_BACKEND == kernels.KERNEL_BACKEND  # read by the benchmark's environment()
    for name in ("no_such_name", "_private", "__wrapped__"):
        with pytest.raises(AttributeError, match=name):
            getattr(annealed_ising, name)


def test_a_fresh_package_loads_its_names_on_first_use():
    """`import *` and `dir` each load every module when they come first; a
    submodule named first loads alone."""
    star, listed, alone = _fresh(
        [
            "ns = {}\nexec('from annealed_ising import *', ns)\nprobe = {'names': sorted(set(ns) - {'__builtins__'})}",
            "import annealed_ising\nprobe = {'names': dir(annealed_ising), 'all': annealed_ising.__all__}",
            "import sys\nfrom annealed_ising import quadrature\nprobe = {'names': sorted(sys.modules)}",
        ]
    )
    assert star[1]["names"] == sorted(_EXPORTED)
    assert set(_EXPORTED) < set(listed[1]["names"]) and listed[1]["all"] == _EXPORTED
    assert alone[1]["numpy"] is True and "annealed_ising.matching" not in alone[1]["names"]
