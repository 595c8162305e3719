"""Command-line surface: subcommands, exit codes, determinism, formats.

Most invocations go through main() in-process for speed; the installed
entry point itself is exercised once via a real subprocess.
"""

import ast
import importlib
import itertools
import json
import math
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from magnet.cli import main
from magnet.degree_dist import DegreePmfTable

from conftest import CHILD_ENV

INI = """\
[model]
q11 = 0.7
q10 = 0.2
q00 = 0.5
mu1 = 0.6

[scaling]
rho = 1.0

[experiment]
kind = kl_reconcile
n_grid = 1000 1000000
draws = 100
seed = 17
"""


def test_generate_writes_deterministic_edge_list(tmp_path):
    out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["generate", "--n", "40", "--l", "3", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    body = [ln for ln in out1.read_text().splitlines() if not ln.startswith("#")]
    for ln in body:
        u, v = map(int, ln.split("\t"))
        assert 0 <= u < v < 40


def test_generate_attributes_sidecar(tmp_path):
    out = tmp_path / "g.tsv"
    attrs = tmp_path / "attrs.txt"
    assert main([
        "generate", "--n", "10", "--l", "4", "--seed", "1",
        "--out", str(out), "--attributes-out", str(attrs),
    ]) == 0
    rows = [ln for ln in attrs.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 10
    assert all(len(r) == 4 for r in rows)


def test_degrees_thread_invariance(tmp_path):
    base = ["degrees", "--n", "1000", "--l", "5", "--count", "2000",
            "--seed", "9", "--method", "direct"]
    out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_threads_flag_starts_no_thread(tmp_path, monkeypatch):
    # --threads is accepted and changes nothing: the samplers run every
    # chunk on the calling thread, at 40000 direct draws and 600 replicates
    # of 200 nodes too, and write the bytes they write at --threads 1
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    ini = tmp_path / "probe.ini"
    ini.write_text(INI.replace("kl_reconcile", "lambda_probe")
                   .replace("n_grid = 1000 1000000", "n_grid = 1000")
                   .replace("draws = 100", "draws = 40000"))
    commands = {
        "direct": ["degrees", "--method", "direct", "--n", "1000", "--count", "40000"],
        "fullgraph": ["degrees", "--method", "fullgraph", "--n", "200", "--count", "600"],
        "experiment": ["experiment", str(ini)],
    }
    for name, args in commands.items():
        outs = [tmp_path / f"{name}_t{t}.out" for t in (1, 4)]
        for t, out in zip((1, 4), outs):
            assert main(args + ["--seed", "3", "--threads", str(t), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes(), name


def test_degrees_fullgraph_method(tmp_path):
    out = tmp_path / "fg.csv"
    assert main(["degrees", "--n", "30", "--l", "3", "--count", "200",
                 "--seed", "2", "--method", "fullgraph", "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "degree"
    vals = np.array([int(x) for x in rows[1:]])
    assert len(vals) == 200
    assert np.all((0 <= vals) & (vals < 30))


def test_pmf_csv(tmp_path, capsys):
    assert main(["pmf", "--n", "30", "--l", "3", "--d-max", "5"]) == 0
    outerr = capsys.readouterr()
    lines = outerr.out.strip().split("\n")
    assert lines[0] == "d,pmf,cdf"
    assert len(lines) == 7
    total = sum(float(ln.split(",")[1]) for ln in lines[1:])
    assert 0.8 < total < 1.0


def test_regime_json(capsys):
    assert main(["regime", "--rho", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "supercritical"
    assert payload["kappa"] == pytest.approx(0.12833797838868689, rel=1e-13)
    assert main(["regime", "--rho", "2.0"]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "subcritical"


def test_approx_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["approx", "--n", "1000000", "--rho", "1.0",
                 "--d-max", "30", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,t,cdf_exact,cdf_approx,abs_err"
    assert len(lines) == 32
    n, t, ce, ca, err = lines[7].split(",")
    assert (int(n), int(t)) == (1000000, 6)
    assert abs(float(ce) - float(ca)) == pytest.approx(float(err), rel=1e-12)


def test_bound_csv_and_json(tmp_path, capsys):
    assert main(["bound", "--n", "1000000", "--rho", "1.0",
                 "--delta", "0.5", "--eta", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("n,delta,eta,term_clt")
    assert lines[1].endswith("true")  # vacuous here
    assert main(["bound", "--n", "1000", "--n", "1000000", "--rho", "1.0",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["n"] for c in payload] == [1000, 1000000]
    assert all(c["c_star"] == 0.4748 for c in payload)
    assert payload[0]["total"] > payload[1]["total"]  # optimizer shrinks with n


def test_experiment_subcommand_roundtrip(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(INI)
    out = tmp_path / "report.txt"
    assert main(["experiment", str(ini), "--out", str(out)]) == 0
    status = capsys.readouterr().out
    assert "all checks passed" in status
    first = out.read_bytes()
    assert main(["experiment", str(ini), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == first  # byte-identical rerun
    assert (tmp_path / "report.txt.meta.json").exists()
    # an explicit --seed overrides the file and changes the body
    assert main(["experiment", str(ini), "--seed", "18", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() != first


def test_exit_code_2_on_invalid_configuration(tmp_path, capsys):
    assert main(["pmf", "--n", "1", "--l", "3"]) == 2
    assert main(["generate", "--n", "30", "--l", "0"]) == 2
    assert main(["approx", "--n", "1000", "--d-max", "-1"]) == 2
    assert main(["approx", "--n", "1000", "--d-max", "1000"]) == 2
    assert main(["degrees", "--n", "30", "--l", "3", "--count", "0"]) == 2
    assert main(["bound", "--n", "100", "--rho", "1.0", "--eta", "0.1"]) == 2
    assert main(["generate", "--n", "30", "--l", "3", "--seed", "-1"]) == 2
    assert main(["generate", "--n", "30", "--l", "3", "--threads", "0"]) == 2
    assert main(["generate", "--n", "100", "--pair-budget", "0"]) == 2
    assert main(["generate", "--n", "100", "--pair-budget", "-5"]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text(INI.replace("kind = kl_reconcile", "kind = nope"))
    assert main(["experiment", str(bad)]) == 2
    capsys.readouterr()


def test_exit_code_3_on_regime_violation(capsys):
    assert main(["approx", "--n", "100", "--rho", "2.0"]) == 3
    assert main(["bound", "--n", "100", "--rho", "2.0", "--delta", "0.5"]) == 3
    err = capsys.readouterr().err
    assert "regime" in err


def test_approx_decides_the_limit_before_building_the_table(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the exact law's table was built")

    monkeypatch.setattr(DegreePmfTable, "from_model", refuse)
    flat = ["--q11", "0.99", "--q10", "0.99", "--q00", "0.99", "--mu1", "0.5"]  # sigma = 0
    assert main(["approx", "--n", str(2 ** 53), *flat]) == 3
    assert main(["approx", "--n", "100", "--rho", "2.0"]) == 3  # subcritical
    assert capsys.readouterr().err.count("regime violation") == 2


def test_exit_code_3_on_degenerate_sigma(tmp_path, capsys):
    # q00 = 0.7 and mu1 = 0.5 give gamma0 = gamma1 = 0.45, so sigma = 0
    flat = ["--n", "1000", "--q00", "0.7", "--mu1", "0.5"]
    assert main(["bound", *flat]) == 3
    assert main(["bound", *flat, "--delta", "0.5"]) == 3
    assert main(["approx", *flat, "--d-max", "5"]) == 3
    probe = tmp_path / "probe.ini"
    probe.write_text(INI.replace("q00 = 0.5", "q00 = 0.7").replace("mu1 = 0.6", "mu1 = 0.5")
                     .replace("kind = kl_reconcile", "kind = lambda_probe"))
    assert main(["experiment", str(probe)]) == 3
    assert "sigma = 0" in capsys.readouterr().err


def test_output_in_a_missing_directory_is_refused_before_any_work(tmp_path, monkeypatch,
                                                                   capsys):
    import magnet.experiments
    import magnet.sampler

    def no_work(*args, **kwargs):
        raise AssertionError("sampled before the output path was checked")

    monkeypatch.setattr(magnet.sampler, "sample_graph", no_work)
    monkeypatch.setattr(magnet.experiments, "sample_degrees_direct", no_work)
    missing = str(tmp_path / "missing" / "x")
    assert main(["generate", "--n", "20000", "--out", missing]) == 2
    assert main(["generate", "--n", "20000", "--attributes-out", missing]) == 2
    assert main(["generate", "--n", "20000", "--out", str(tmp_path)]) == 2  # a directory
    assert main(["generate", "--n", "20000", "--out", ""]) == 2
    # both outputs in one file would leave only the attribute rows in it
    same = tmp_path / "x"
    for alias in (same, tmp_path / "." / "x"):
        assert main(["generate", "--n", "20000", "--out", str(same),
                     "--attributes-out", str(alias)]) == 2
    assert not same.exists()
    ini = tmp_path / "ks.ini"
    ini.write_text(INI.replace("kind = kl_reconcile", "kind = lognormal_ks")
                   + f"out = {missing}\n")
    assert main(["experiment", str(ini)]) == 2
    assert main(["experiment", str(ini), "--out", missing]) == 2
    err = capsys.readouterr().err
    assert err.count("is not a file in an existing directory") == 6
    assert err.count("name one file") == 2


def test_experiment_report_never_overwrites_its_config(tmp_path, monkeypatch, capsys):
    # a report or sidecar path naming the config (by --out, an alias, a link or
    # the out key), or a sidecar path that is a directory, is refused before
    # any work, and every file is left as it was
    import magnet.experiments

    def no_work(*args, **kwargs):
        raise AssertionError("ran the experiment before its report paths were checked")

    monkeypatch.setattr(magnet.experiments, "run_experiment", no_work)
    ini = tmp_path / "exp.ini"
    ini.write_text(INI)
    (tmp_path / "link.ini").symlink_to(ini)
    for out in (ini, tmp_path / "." / "exp.ini", tmp_path / "link.ini"):
        assert main(["experiment", str(ini), "--out", str(out)]) == 2
    keyed = tmp_path / "keyed.ini"
    keyed.write_text(INI + f"out = {keyed}\n")
    assert main(["experiment", str(keyed)]) == 2
    sidecar = tmp_path / "r.meta.json"
    sidecar.write_text(INI)
    assert main(["experiment", str(sidecar), "--out", str(tmp_path / "r")]) == 2
    (tmp_path / "d.meta.json").mkdir()
    assert main(["experiment", str(ini), "--out", str(tmp_path / "d")]) == 2
    assert ini.read_text() == sidecar.read_text() == INI
    assert keyed.read_text() == INI + f"out = {keyed}\n"
    assert not (tmp_path / "d").exists() and not (tmp_path / "r").exists()
    err = capsys.readouterr().err
    assert err.count("name one file") == 5
    assert err.count("is not a file in an existing directory") == 1


@pytest.mark.parametrize("kind, grid, draws, want", [
    *((kind, "1000000 100000000000000000000", 4000000, 2)
      for kind in ("lognormal_ks", "lambda_probe", "degree_fit", "zero_one_law")),
    ("degree_fit", "2000 200000", 40000, 4),  # 1999990000 fullgraph pairs at n = 200000
], ids=["lognormal_ks", "lambda_probe", "degree_fit", "zero_one_law", "pair_budget"])
def test_experiment_grid_is_refused_before_any_work(tmp_path, monkeypatch, capsys, kind, grid,
                                                    draws, want):
    # n = 1e20 is past the exact range of every sampler and of the exact law;
    # each exit comes from one check of the whole grid, not from the runner
    # at its first n
    import magnet.experiments

    def no_work(*args, **kwargs):
        raise AssertionError("sampled or built the exact law before the grid was checked")

    for name in ("sample_degrees_direct", "sample_degrees_fullgraph"):
        monkeypatch.setattr(magnet.experiments, name, no_work)
    monkeypatch.setattr(DegreePmfTable, "from_model", classmethod(no_work))
    ini = tmp_path / f"{kind}.ini"
    ini.write_text(INI.replace("kl_reconcile", kind)
                   .replace("n_grid = 1000 1000000", f"n_grid = {grid}")
                   .replace("draws = 100", f"draws = {draws}"))
    assert main(["experiment", str(ini)]) == want
    err = capsys.readouterr().err
    assert ("n_grid entry must be an integer in [2, 9007199254740992]" if want == 2
            else "1999990000 node pairs exceed the pair budget") in err


def test_exit_code_4_on_budget_exceeded(capsys):
    assert main(["generate", "--n", "2000000", "--l", "2"]) == 4
    err = capsys.readouterr().err
    assert "budget" in err.lower()


def test_exit_code_4_on_fullgraph_budget_exceeded(capsys):
    # 20001 replicates of node 0's 49999 pairs are 1,000,029,999 pairs, over
    # the default budget of 10**9; one replicate is well within it
    assert main(["degrees", "--method", "fullgraph", "--n", "50000", "--count", "20001"]) == 4
    err = capsys.readouterr().err
    assert "1000029999 node pairs exceed the pair budget" in err
    assert "raise the budget" not in err  # degrees has no --pair-budget flag


def test_edge_inputs_exit_cleanly_in_bounded_memory(tmp_path):
    # each child caps its own address space at 2 GB: the exact law at
    # n = 1e12 must fit without --d-max, and so must the attribute-count law
    # at l = 1e7 and 1e8 (its window, not all of 0..l), and the pmf at
    # l = 1e7, whose 120181 components share one floored p_s; an n, l or --count
    # past 2**53 or an --out that cannot be opened must be refused with exit
    # 2, and so must a rho whose rho * ln n overflows to inf, a --rho out of
    # range next to --l, and a --count or --d-max out of range, before the
    # exact law at l = 1e12 (past the cap) is built; an allocation
    # past the cap (7.45 GiB and 64 PiB of degrees, 22.4 GiB of attribute
    # uniforms, a 10**15-bit attribute row whose link bound's exponent
    # would overflow) must exit 4; fullgraph at n = 1e7 and 999999999 draws
    # attribute rows only for node 0's candidate neighbours and reads its
    # pair uniforms under advanced keys, with no array of pair positions,
    # and fits; never a traceback
    script = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from magnet.cli import main
sys.exit(main(sys.argv[1:]))
"""
    pmf_out = tmp_path / "pmf.csv"
    huge_rho = tmp_path / "huge_rho.ini"
    huge_rho.write_text(INI.replace("rho = 1.0", "rho = 1e308"))
    cases = [
        (["pmf", "--n", str(10**12), "--out", str(pmf_out)], 0),
        (["approx", "--n", str(10**12), "--out", str(tmp_path / "approx.csv")], 0),
        (["degrees", "--n", str(10**20)], 2),
        (["degrees", "--n", "1000", "--l", str(10**8), "--count", "10"], 0),
        (["pmf", "--n", "1000", "--l", str(10**7)], 0),
        (["pmf", "--n", "1000", "--l", str(10**7), "--d-max", "200"], 0),
        (["degrees", "--n", "1000", "--l", str(10**18), "--count", "10"], 2),
        (["degrees", "--n", "1000", "--l", str(10**12), "--count", "0"], 2),
        (["pmf", "--n", "1000", "--l", str(10**12), "--d-max", "-1"], 2),
        (["pmf", "--n", "1000", "--l", "7", "--rho", "nan", "--d-max", "3"], 2),
        (["degrees", "--n", "1000", "--l", "7", "--rho", "-1", "--count", "3"], 2),
        (["generate", "--n", "30", "--l", "3", "--out", str(tmp_path / "missing" / "x")], 2),
        (["degrees", "--n", "1000", "--count", str(10**9)], 4),
        (["degrees", "--n", "30", "--count", str(2**64)], 2),
        (["degrees", "--n", "30", "--count", str(2**53)], 4),
        (["generate", "--n", "30", "--l", str(10**8)], 4),
        (["degrees", "--method", "fullgraph", "--n", str(10**7), "--count", "1"], 0),
        (["degrees", "--method", "fullgraph", "--n", "999999999", "--count", "1"], 0),
        (["degrees", "--method", "fullgraph", "--n", "2", "--l", str(10**15), "--q11",
          "0.9999999999999999", "--q00", "1e-300", "--count", "1"], 4),
        *(([command, "--n", "1000", "--rho", "1e308"], 2)
          for command in ("bound", "pmf", "approx", "degrees")),
        (["bound", "--n", str(10**50), "--rho", "1e307"], 2),
        (["experiment", str(huge_rho)], 2),
    ]
    for args, want in cases:
        proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                              text=True, timeout=120, env=CHILD_ENV)
        assert proc.returncode == want, (args, proc.stderr)
        assert "Traceback" not in proc.stderr, (args, proc.stderr)
        if args[-1] == str(2**64):
            assert "count must be an integer in [1, 9007199254740992]" in proc.stderr
        if "1e307" in args or "1e308" in args or args[-1] == str(huge_rho):
            assert "magnet: invalid configuration: rho * ln n overflows" in proc.stderr
    assert pmf_out.read_text().splitlines()[-1].startswith("3906,")


# Flag values for the argument sweep, as (valid, edge) pools: valid values
# keep sizes small; edge values are boundary, negative, huge (past 2**53 and
# 2**64) or not numbers at all.
_HUGE = [str(2 ** 53 + 1), str(2 ** 64), str(10 ** 30)]
_JUNK = ["x", "1e3", "", "0x10"]
_REAL = (["0.3", "0.6", "0.9", "5e-324"], ["0", "1", "-0.2", "1e300", "nan", "inf", "x"])
_SWEEP_VALUES = {
    "--n": (["2", "3", "30", "300"], ["1", "0", "-5", str(2 ** 53), *_HUGE, *_JUNK]),
    "--l": (["1", "3", "8"], ["0", "-1", str(2 ** 53), *_HUGE, *_JUNK]),
    "--count": (["1", "10", "500"], ["0", "-2", str(2 ** 53), *_HUGE, *_JUNK]),
    "--d-max": (["0", "5", "40"], ["-1", "299", str(2 ** 53), *_HUGE, *_JUNK]),
    "--pair-budget": (["5000", str(10 ** 9)], ["1", "0", "-5", *_HUGE, *_JUNK]),
    "--seed": (["0", "7"], [str(2 ** 64 - 1), "-1", *_HUGE, *_JUNK]),
    "--threads": (["1", "2"], ["4", "0", "-3", *_JUNK]),  # never more than 4
    "--rho": (["1.0", "2.0", "0.7"], ["0", "-1", "1e300", "1e308", "1e-300", "nan", "inf", "x"]),
    "--method": (["direct", "fullgraph"], ["exact"]),
    "--delta": (["0.5", "1e-4"], ["0", "1", "-1", "nan", "1e300", "x"]),
    "--eta": (["0.1"], ["1e-9", "0", "0.6", "-1", "nan", "x"]),
    "--format": (["csv", "json"], ["xml"]),
    **{f"--{name}": _REAL for name in ("q11", "q10", "q00", "mu1")},
}
_SHARED_FLAGS = ["--q11", "--q10", "--q00", "--mu1", "--rho", "--seed", "--threads"]
_SWEEP_FLAGS = {
    "generate": ["--n", "--l", "--pair-budget", *_SHARED_FLAGS],
    "degrees": ["--n", "--l", "--count", "--method", *_SHARED_FLAGS],
    "pmf": ["--n", "--l", "--d-max", *_SHARED_FLAGS],
    "regime": _SHARED_FLAGS,
    "approx": ["--n", "--d-max", *_SHARED_FLAGS],
    "bound": ["--n", "--delta", "--eta", "--format", *_SHARED_FLAGS],
    "experiment": ["--seed", "--threads"],
}


def _sweep_argv(rng, configs):
    """One argument vector: valid values on a random subset of the command's
    flags (always --n), then mostly one or two flags set to an edge value."""
    command = rng.choice(sorted(_SWEEP_FLAGS))
    flags = _SWEEP_FLAGS[command]
    values = {f: rng.choice(_SWEEP_VALUES[f][0]) for f in flags
              if f == "--n" or rng.random() < 0.4}
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        flag = rng.choice(flags)
        values[flag] = rng.choice(_SWEEP_VALUES[flag][1])
    argv = [command, rng.choice(configs)] if command == "experiment" else [command]
    for flag, value in values.items():
        argv += [flag, value]
    if command == "bound" and rng.random() < 0.5:  # a sweep over two n
        argv += ["--n", rng.choice(_SWEEP_VALUES["--n"][0])]
    return argv


# Runs main() in-process on each argument vector read from stdin, under a
# 2 GB address-space cap and a per-call alarm; prints [argv, exit, stderr].
_SWEEP_CHILD = """
import contextlib, io, json, resource, signal, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from magnet.cli import main

class Overtime(BaseException):  # no handler in main() may take it for an OSError
    pass

def on_alarm(signum, frame):
    raise Overtime("call still running after its alarm")

signal.signal(signal.SIGALRM, on_alarm)
for argv in json.load(sys.stdin):
    err = io.StringIO()
    signal.alarm(5)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except BaseException:
        code = traceback.format_exc()
    finally:
        signal.alarm(0)
    print(json.dumps([argv, code, err.getvalue()]), flush=True)
"""


def test_argument_sweep_exits_0_2_3_or_4_without_traceback(tmp_path):
    # a seeded sweep over every flag: each call succeeds or exits 2, 3 or 4,
    # and never prints a traceback
    ini = tmp_path / "exp.ini"
    ini.write_text(INI.replace("n_grid = 1000 1000000", "n_grid = 1000"))
    configs = [str(ini), str(tmp_path), str(tmp_path / "missing.ini")]
    rng = random.Random(20260)
    vectors = [_sweep_argv(rng, configs) for _ in range(240)]
    proc = subprocess.run([sys.executable, "-c", _SWEEP_CHILD], input=json.dumps(vectors),
                          capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert "Traceback" not in proc.stderr, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(vectors), proc.stderr
    for argv, code, err in results:
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err, (argv, err)
        assert code != 0 or "Warning" not in err, (argv, err)


def test_subnormal_mu1_warns_nothing(capsys):
    # mu1 = 5e-324 is a valid mu1 below the smallest normal double; the
    # attribute law is still evaluated without a floating-point warning, and
    # keeps P(S = 1) = l mu1 (1 - mu1)**(l - 1) rather than 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["degrees", "--count", "5"], ["pmf"], ["approx"]):
            assert main([*argv, "--n", "1000", "--mu1", "5e-324"]) == 0, argv
    assert capsys.readouterr().err == ""
    from magnet import ModelParams
    table = DegreePmfTable.from_model(ModelParams(0.7, 0.2, 0.5, 5e-324), 1000, 7)
    assert table.log_w[1] == pytest.approx(math.log(7) + math.log(5e-324), rel=1e-15)


def test_approx_rejects_mismatched_l(capsys):
    # approx compares against the scaled limit, so it always uses L_n and has
    # no --l flag: any --l, even L_n = 14 itself, is a usage error
    for l in ("9", "14"):
        with pytest.raises(SystemExit) as exc:
            main(["approx", "--n", "1000000", "--rho", "1.0", "--l", l])
        assert exc.value.code == 2
    capsys.readouterr()


def test_bound_has_no_c_star_flag(capsys):
    # C* is fixed at its best proven value, so --c-star is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "1000", "--c-star", "0.5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_no_command_has_a_rounding_flag(capsys):
    # L_n = round(rho * ln n), rounding half up, is the one attribute-count
    # rule, so --rounding is a usage error
    for argv in (["regime"], *([c, "--n", "1000"] for c in
                               ("generate", "degrees", "pmf", "approx", "bound"))):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--rounding", "ceil"])
        assert exc.value.code == 2, argv
    capsys.readouterr()


#: Every dest and default after a minimal command line: the shared flags
#: (--seed, --out, --threads), then the model flags and --rho on the six
#: model commands, then each command's own.
_SHARED_DEFAULTS = {"seed": None, "out": None, "threads": 1}
_MODEL_DEFAULTS = {**_SHARED_DEFAULTS, "q11": 0.7, "q10": 0.2, "q00": 0.5, "mu1": 0.6,
                   "rho": 1.0}
_PARSED_DEFAULTS = {
    ("generate", "--n", "30"): {**_MODEL_DEFAULTS, "n": 30, "l": None,
                                "pair_budget": 10**9, "attributes_out": None},
    ("degrees", "--n", "30"): {**_MODEL_DEFAULTS, "n": 30, "l": None, "count": 1000,
                               "method": "direct"},
    ("pmf", "--n", "30"): {**_MODEL_DEFAULTS, "n": 30, "l": None, "d_max": None},
    ("regime",): _MODEL_DEFAULTS,
    ("approx", "--n", "30"): {**_MODEL_DEFAULTS, "n": 30, "d_max": None},
    ("bound", "--n", "30"): {**_MODEL_DEFAULTS, "n": [30], "delta": None, "eta": None,
                             "format": "csv"},
    ("experiment", "x.ini"): {**_SHARED_DEFAULTS, "config": "x.ini"},
}


def test_parsed_dests_and_defaults_are_frozen(capsys):
    from magnet.cli import build_parser

    parser = build_parser()
    # a flag set on one command must not leak into the next parse
    assert parser.parse_args(["pmf", "--n", "30", "--seed", "5", "--rho", "2"]).seed == 5
    for argv, want in _PARSED_DEFAULTS.items():
        assert vars(parser.parse_args(argv)) == {"command": argv[0], **want}, argv
    for flag in ("--q11", "--rho"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["experiment", "x.ini", flag, "0.5"])
        assert exc.value.code == 2, flag
    capsys.readouterr()


#: Run in a fresh interpreter: ``import magnet``, or ``cli.main(argv)``
#: when there are arguments; prints which of ``_WATCHED`` got loaded.
_LOADED = """
import io, json, sys
from contextlib import redirect_stdout
if len(sys.argv) == 1:
    import magnet
else:
    import magnet.cli as cli
    with redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(sys.argv[1:])
        except SystemExit as exc:  # --version
            rc = exc.code
    assert rc == 0, sys.argv
print(json.dumps([m for m in %r if m in sys.modules]))
"""
_WATCHED = ("numpy", "numpy.ma", "scipy", "scipy.special", "scipy.stats", "magnet.sampler",
            "magnet.experiments")


def test_start_up_path_loads_scipy_on_first_use(tmp_path):
    # each case in a fresh interpreter: import magnet, --version and regime
    # load no numpy; bound, pmf (to its default --d-max) and approx load
    # numpy and nothing else watched, direct degree draws (BTRS included)
    # add the sampler; the zero_one_law, lognormal_ks, kl_reconcile and
    # degree_fit experiments need no scipy (degree_fit's chi-square p-value
    # has a closed form), and no command needs scipy.stats
    ini = {}
    for kind, grid in (("zero_one_law", "1000 1000000"), ("lognormal_ks", "1000 1000000"),
                       ("kl_reconcile", "1000 1000000"), ("degree_fit", "30")):
        ini[kind] = tmp_path / f"{kind}.ini"
        ini[kind].write_text(INI.replace("kl_reconcile", kind)
                             .replace("n_grid = 1000 1000000", f"n_grid = {grid}")
                             .replace("draws = 100", "draws = 400"))
    numpy, experiment = ["numpy"], ["numpy", "magnet.sampler", "magnet.experiments"]
    cases = [
        ([], []), (["--version"], []), (["regime"], []),
        (["bound", "--n", "1000000"], numpy),
        (["pmf", "--n", "1000000000"], numpy),
        (["approx", "--n", "1000000"], numpy),
        (["degrees", "--method", "direct", "--n", "1000000", "--rho", "0.5", "--count", "100"],
         ["numpy", "magnet.sampler"]),
        *((["experiment", str(ini[k])], experiment)
          for k in ("zero_one_law", "lognormal_ks", "kl_reconcile", "degree_fit")),
    ]
    for argv, expected in cases:
        proc = subprocess.run([sys.executable, "-c", _LOADED % (_WATCHED,), *argv],
                              capture_output=True, text=True, timeout=60, env=CHILD_ENV)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert json.loads(proc.stdout) == expected, argv


#: The package's public names by owning module, in ``magnet.__all__`` order.
PUBLIC = {
    "errors": ["MagnetError", "InvalidParamsError", "ConfigError", "RegimeError", "BudgetError"],
    "model": ["ModelParams", "DerivedConstants", "Scaling", "Regime", "RegimeResult",
              "derive_constants", "classify_regime", "REFERENCE_PARAMS", "BOUNDARY_TOL"],
    "degree_dist": ["DegreePmfTable", "write_pmf_csv"],
    "sampler": ["SampleMethod", "MagGraph", "DegreeSampleSet", "sample_graph",
                "sample_degrees_direct", "sample_degrees_fullgraph", "write_edge_list",
                "write_attributes", "write_degrees_csv"],
    "limits": ["LogNormalSpec", "std_normal_cdf", "lognormal_cdf", "transform_degree",
               "cdf_approx", "kl_params", "kl_reconciled_law", "lambda_limit_probe"],
    "bounds": ["C_STAR", "psi", "BoundCertificate", "GridSpec", "default_eta",
               "berry_esseen_bound", "optimize_bound", "ratio_concentration_bound",
               "write_bound_csv"],
    "experiments": ["SupDelta", "empirical_sup_delta", "ExperimentKind", "ExperimentConfig",
                    "parse_config", "canonical_text", "config_hash", "ReportRow",
                    "ExperimentReport", "run_experiment"],
}


def test_package_names_resolve_lazily_to_their_modules():
    import magnet

    names = ["__version__"] + [n for names in PUBLIC.values() for n in names]
    assert magnet.__all__ == names
    for module, public in PUBLIC.items():
        owner = importlib.import_module(f"magnet.{module}")
        for name in public:
            assert getattr(magnet, name) is getattr(owner, name), name
    with pytest.raises(AttributeError):
        magnet.no_such_name
    # from a fresh interpreter: an unknown private name loads nothing, and
    # the star import binds exactly the public names
    script = """
import json, sys
import magnet
try:
    magnet._no_such_name
except AttributeError:
    pass
numpy = "numpy" in sys.modules
namespace = {}
exec("from magnet import *", namespace)
print(json.dumps([numpy, sorted(set(namespace) - {"__builtins__"})]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, sorted(names)]


def test_openblas_thread_count_leaves_betaincc_pmf_bytes_alone():
    # at l = 1 and n = 240000 the larger component's mean is 1.2e5, past
    # the band sums, so the default --d-max quantile takes the incomplete
    # beta and the BLAS product in DegreePmfTable.cdf; main sets one
    # OpenBLAS thread unless the variable is preset or numpy already loaded
    script = """
import hashlib, io, os, sys
from contextlib import redirect_stdout
if sys.argv[1] == "numpy-first":
    import numpy
import magnet.cli as cli
out = io.StringIO()
with redirect_stdout(out):
    assert cli.main(["pmf", "--n", "240000", "--l", "1"]) == 0
print(os.environ.get("OPENBLAS_NUM_THREADS"), "scipy.special" in sys.modules,
      hashlib.sha256(out.getvalue().encode()).hexdigest())
"""
    unset = {k: v for k, v in CHILD_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    seen = []
    for first, env in (("cli", unset), ("cli", {**unset, "OPENBLAS_NUM_THREADS": "2"}),
                       ("numpy-first", unset)):
        proc = subprocess.run([sys.executable, "-c", script, first], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        seen.append(proc.stdout.split())
    assert [s[:2] for s in seen] == [["1", "True"], ["2", "True"], ["None", "True"]]
    assert len({s[2] for s in seen}) == 1


def test_bench_tracer_hooks_resolve_in_the_package(tmp_path, monkeypatch):
    # bench/tracing.py wraps the table's methods by name and bench/run.py
    # imports these names; a rename in the package must fail here first
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    from magnet import REFERENCE_PARAMS, DegreePmfTable, GridSpec, ModelParams
    from magnet.sampler import INVERSION_MEAN_MAX

    methods = ("from_model", "log_pmf", "pmf", "cdf", "quantile", "prob_zero")
    originals = {m: DegreePmfTable.__dict__[m] for m in methods}
    assert isinstance(originals["from_model"], classmethod)
    # A tiny replay of the traced benchmark's commands: bench/run.py reads
    # each span below by name, indexes the first and divides by their work
    # and duration, so each must be recorded with nonzero work.
    def experiment(kind: str, grid: str, draws: int) -> list[str]:
        ini = tmp_path / f"{kind}.ini"
        ini.write_text(INI.replace("kl_reconcile", kind)
                       .replace("n_grid = 1000 1000000", f"n_grid = {grid}")
                       .replace("draws = 100", f"draws = {draws}"))
        return ["experiment", str(ini)]

    direct = ["degrees", "--n", "1000000", "--count", "500"]
    commands = {
        "generate": ["generate", "--n", "300"],
        "direct_t1": [*direct, "--threads", "1"],
        "direct_t2": [*direct, "--threads", "2"],
        "fullgraph": ["degrees", "--method", "fullgraph", "--n", "100", "--count", "100"],
        "pmf": ["pmf", "--n", "1000000"],
        "approx": ["approx", "--n", "1000000"],
        "bound": ["bound", "--n", "1000"],
        "degree_fit": experiment("degree_fit", "50 100", 400),
        "lognormal_ks": experiment("lognormal_ks", "1000 10000", 400),
    }
    by_cmd = {}
    tracer = tracing.Tracer()
    with tracer:
        for key, args in commands.items():
            i0 = len(tracer.spans)
            assert main([*args, "--seed", "1", "--out", str(tmp_path / f"{key}.out")]) == 0
            by_cmd[key] = tracer.spans[i0:]
    assert all(DegreePmfTable.__dict__[m] is originals[m] for m in methods)
    wanted = {
        "generate": ["rng.uniforms_at", "sampler.sample_graph", "sampler.write_edge_list"],
        "direct_t1": ["sampler.sample_degrees_direct", "sampler.write_degrees_csv"],
        "direct_t2": ["sampler.sample_degrees_direct"],
        "fullgraph": ["sampler.sample_degrees_fullgraph", "sampler.write_degrees_csv"],
        "pmf": [f"degree_dist.{m}" for m in ("from_model", "quantile", "cdf", "pmf",
                                             "write_pmf_csv")],
        "approx": ["limits.cdf_approx"],
        "bound": ["bounds.optimize_bound", "bounds.berry_esseen_bound"],
        "degree_fit": ["stats.chi_square_gof", "stats.two_sample_ks", "stats.tv_to_exact",
                       "experiments.run_experiment.degree_fit"],
        "lognormal_ks": ["stats.ks_statistic", "experiments.run_experiment.lognormal_ks"],
    }
    for key, names in wanted.items():
        for name in names:
            spans = [s for s in by_cmd[key] if s[3] == name]
            assert spans and spans[0][6] > 0, (key, name)
            assert sum(s[5] - s[4] for s in spans) > 0, (key, name)
    assert isinstance(REFERENCE_PARAMS, ModelParams)
    assert GridSpec().n_delta * GridSpec().n_eta > 0
    assert INVERSION_MEAN_MAX > 0


def test_every_bench_command_parses_and_every_bench_hook_resolves(tmp_path, monkeypatch):
    # the benchmark runs src through its three workloads' argvs and INIs, wraps
    # functions by name in bench/tracing.py and imports names in bench/run.py:
    # a flag, key or name that src drops must fail here, not in a bench run
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    from magnet.cli import build_parser
    from magnet.experiments import parse_config

    parser = build_parser()
    commands = {w: workloads.build(w, 1) for w in workloads.WORKLOADS}
    assert all(commands.values())
    for cmd in itertools.chain.from_iterable(commands.values()):
        args = parser.parse_args(cmd.argv(str(tmp_path)))
        if cmd.config is not None:
            ini = Path(cmd.config_path(str(tmp_path)))
            ini.write_text(cmd.config)
            assert args.config == str(ini)
            parse_config(str(ini))
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"magnet.{layer}")
        for name in tracing._EXTRA.get(layer, ()):
            assert callable(getattr(module, name)), (layer, name)
    assert all(m in DegreePmfTable.__dict__ for m in tracing._TABLE_METHODS)
    imported = [(node.module, alias.name)
                for node in ast.walk(ast.parse((bench / "run.py").read_text()))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("magnet")
                for alias in node.names]
    assert ("magnet.sampler", "INVERSION_MEAN_MAX") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_every_bench_command_passes_the_bench_output_checks(tmp_path, monkeypatch):
    # one reduced pass of each workload, at the bench self-test's scale: an
    # output the benchmark would refuse as incorrect must fail here first
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")

    for w in workloads.WORKLOADS:
        out_dir = tmp_path / w
        out_dir.mkdir()
        outputs = {}
        for cmd in workloads.build(w, 1, scale=0.05):
            if cmd.config is not None:
                Path(cmd.config_path(str(out_dir))).write_text(cmd.config)
            assert main(cmd.argv(str(out_dir))) == 0, cmd.key
            outputs[cmd.key] = Path(cmd.out_path(str(out_dir))).read_bytes()
            assert checks.check(cmd, outputs[cmd.key]) == [], cmd.key
            if cmd.twin is not None:
                assert outputs[cmd.key] == outputs[cmd.twin], (cmd.key, cmd.twin)


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "magnet", "regime", "--rho", "1.0"],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["regime"] == "supercritical"
    ver = subprocess.run(
        [sys.executable, "-m", "magnet", "--version"],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert ver.returncode == 0
    assert "magnet" in ver.stdout
