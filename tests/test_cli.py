"""Command-line surface: subcommands, exit codes, determinism, formats.

Most invocations go through main() in-process for speed; the installed
entry point itself is exercised once via a real subprocess.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from magnet.cli import main

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
param_sets = 3
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
    assert main(["degrees", "--n", "30", "--l", "3", "--count", "0"]) == 2
    assert main(["bound", "--n", "100", "--rho", "1.0", "--eta", "0.1"]) == 2
    assert main(["generate", "--n", "30", "--l", "3", "--seed", "-1"]) == 2
    assert main(["generate", "--n", "30", "--l", "3", "--threads", "0"]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text(INI.replace("kind = kl_reconcile", "kind = nope"))
    assert main(["experiment", str(bad)]) == 2
    capsys.readouterr()


def test_exit_code_3_on_regime_violation(capsys):
    assert main(["approx", "--n", "100", "--rho", "2.0"]) == 3
    assert main(["bound", "--n", "100", "--rho", "2.0", "--delta", "0.5"]) == 3
    err = capsys.readouterr().err
    assert "regime" in err


def test_exit_code_3_on_degenerate_sigma(capsys):
    # q00 = 0.7 and mu1 = 0.5 give gamma0 = gamma1 = 0.45, so sigma = 0
    flat = ["--n", "1000", "--q00", "0.7", "--mu1", "0.5"]
    assert main(["bound", *flat]) == 3
    assert main(["bound", *flat, "--delta", "0.5"]) == 3
    assert main(["approx", *flat, "--d-max", "5"]) == 3
    assert "sigma = 0" in capsys.readouterr().err


def test_exit_code_4_on_budget_exceeded(capsys):
    assert main(["generate", "--n", "2000000", "--l", "2"]) == 4
    err = capsys.readouterr().err
    assert "budget" in err.lower()


def test_exit_code_4_on_fullgraph_budget_exceeded(capsys):
    # 50000 nodes are 1,249,975,000 pairs, over the default budget of 10**9
    assert main(["degrees", "--method", "fullgraph", "--n", "50000", "--count", "1"]) == 4
    err = capsys.readouterr().err
    assert "1249975000 node pairs exceed the pair budget" in err
    assert "raise the budget" not in err  # degrees has no --pair-budget flag


def test_edge_inputs_exit_cleanly_in_bounded_memory(tmp_path):
    # each child caps its own address space at 2 GB: the exact law at
    # n = 1e12 must fit without --d-max, and an n past 2**53 or an --out
    # that cannot be opened must be refused with exit 2, not a traceback
    script = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from magnet.cli import main
sys.exit(main(sys.argv[1:]))
"""
    pmf_out = tmp_path / "pmf.csv"
    cases = [
        (["pmf", "--n", str(10**12), "--out", str(pmf_out)], 0),
        (["approx", "--n", str(10**12), "--out", str(tmp_path / "approx.csv")], 0),
        (["degrees", "--n", str(10**20)], 2),
        (["generate", "--n", "30", "--l", "3", "--out", str(tmp_path / "missing" / "x")], 2),
    ]
    for args, want in cases:
        proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                              text=True, timeout=120, env=CHILD_ENV)
        assert proc.returncode == want, (args, proc.stderr)
        assert "Traceback" not in proc.stderr, (args, proc.stderr)
    assert pmf_out.read_text().splitlines()[-1].startswith("3906,")


def test_approx_rejects_mismatched_l(capsys):
    # --l must match the scaled attribute count for limit comparisons
    assert main(["approx", "--n", "1000000", "--rho", "1.0", "--l", "9"]) == 2
    capsys.readouterr()


def test_start_up_path_loads_scipy_on_first_use():
    # regime, bound and direct degree draws (BTRS included) need numpy only;
    # pmf needs scipy.special, and only degree_fit's tests need scipy.stats
    script = """
import io, sys
from contextlib import redirect_stdout
import magnet
import magnet.cli as cli
def loaded():
    return ["scipy.special" in sys.modules, "scipy.stats" in sys.modules]
with redirect_stdout(io.StringIO()):
    assert cli.main(["regime"]) == 0
    assert cli.main(["bound", "--n", "1000000"]) == 0
    assert cli.main(["degrees", "--method", "direct", "--n", "1000000",
                     "--rho", "0.5", "--count", "100"]) == 0
    before = loaded()
    assert cli.main(["pmf", "--n", "1000", "--d-max", "5"]) == 0
print(before, loaded())
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False] [True, False]"


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
