#!/usr/bin/env python3
"""End-to-end and traced benchmark of the `magnet` CLI.

    python3 bench/run.py --workload analytics|degrees|graph|all --seed N \\
                         --seconds S --trace 0|1

Run from a source checkout (``src/magnet`` next to this directory); the
package is not installed, every child runs ``python -m magnet`` with
``PYTHONPATH=src``.

``--trace 0`` is a closed loop with one client: it runs the workload's
commands one after another, each in a fresh child process, and waits for
each.  It repeats the whole sequence (a pass) until ``--seconds`` have gone
by and reports medians over passes.  Later passes are reruns that must
reproduce the first byte for byte; after a single pass every
``RERUN_EVERY``-th command is rerun instead.  Set-up time is the median of
several fresh-interpreter ``import magnet``.

``--trace 1`` replays one pass of every workload in this process with spans
around each call into a layer (see ``tracing.py``), adds the ``-X
importtime`` start-up breakdown, and reports per-layer metrics.  Spans go
to ``bench/out/``.

Every output is checked (``checks.py``); the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import law  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_IMPORTS = 3
RERUN_EVERY = 8
#: Children still running this long after start-up are killed and count as
#: failed, so a hung command cannot keep a run past its time limit.
RUN_BUDGET_S = 150.0
_STARTED = time.monotonic()
#: Node counts of the reported normalisation residual |sum pmf - 1|.
NORM_RESID_N = {"n1e6": 10 ** 6, "n1e9": 10 ** 9, "n1e12": 10 ** 12}


# ---------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run ``python <argv>`` to completion: (wall s, peak RSS MB, exit code)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        budget = max(1.0, _STARTED + RUN_BUDGET_S - time.monotonic())
        killer = threading.Timer(budget, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def time_import(out_dir: Path, flags: tuple[str, ...] = ()) -> tuple[float, str]:
    log = out_dir / "import.log"
    wall, _, rc = run_child([*flags, "-c", "import magnet"], log)
    if rc != 0:
        raise RuntimeError(f"import magnet failed: {log.read_text()[-500:]}")
    return wall, log.read_text()


class Pass:
    """Runs one pass of commands and checks every output.

    ``reference`` maps command keys to the bytes an earlier pass wrote; a
    rerun must reproduce them exactly.  Content checks run once per
    distinct output: on the first pass, on ``--threads 1`` outputs.
    """

    def __init__(self, cmds, out_dir: Path, runner, reference: dict[str, bytes]):
        self.records: list[dict] = []
        self.failures: list[str] = []
        outputs: dict[str, bytes] = {}
        for cmd in cmds:
            if cmd.config is not None:
                Path(cmd.config_path(str(out_dir))).write_text(cmd.config)
            path = Path(cmd.out_path(str(out_dir)))
            path.unlink(missing_ok=True)  # an earlier pass's file must not pass for this one's
            wall, rss, rc = runner(cmd, out_dir)
            fails = []
            if rc != 0 or not path.is_file():
                fails.append(f"{cmd.key}: exit code {rc}, see {cmd.key}.log")
            else:
                data = outputs[cmd.key] = path.read_bytes()
                if cmd.key in reference:
                    fails += checks.same_bytes(reference[cmd.key], data, f"{cmd.key} rerun")
                elif cmd.twin is not None:
                    fails += checks.same_bytes(outputs.get(cmd.twin, b""), data,
                                               f"{cmd.key} vs {cmd.twin}")
                else:
                    fails += checks.check(cmd, data)
            self.failures += fails
            self.records.append({"key": cmd.key, "threads": cmd.threads, "wall_s": wall,
                                 "peak_rss_mb": rss, "ok": not fails})
        self.outputs = outputs
        paired = {c.twin for c in cmds if c.twin} | {c.key for c in cmds if c.twin}
        self.wall_s = sum(r["wall_s"] for r in self.records)
        self.wall_t1_s = sum(r["wall_s"] for r in self.records
                             if r["key"] in paired and r["threads"] == 1)
        self.wall_t2_s = sum(r["wall_s"] for r in self.records
                             if r["key"] in paired and r["threads"] == 2)
        self.peak_rss_mb = max(r["peak_rss_mb"] for r in self.records)


def child_runner(cmd, out_dir: Path) -> tuple[float, float, int]:
    return run_child(["-m", "magnet", *cmd.argv(str(out_dir))], out_dir / f"{cmd.key}.log")


# ---------------------------------------------------------------------
# --trace 0: end to end
# ---------------------------------------------------------------------

def run_end_to_end(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    setup = [time_import(out_dir)[0] for _ in range(SETUP_IMPORTS)]
    cmds = workloads.build(workload, seed)
    passes: list[Pass] = []
    reference: dict[str, bytes] = {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        p = Pass(cmds, out_dir, child_runner, reference)
        reference = reference or p.outputs
        passes.append(p)
    checked = passes
    if len(passes) == 1:
        # Rerun every k-th command, rotated by the seed, so that a series of
        # seeds reruns them all.  Not timed into the metrics.
        k = min(RERUN_EVERY, len(cmds))
        checked = passes + [Pass(cmds[seed % k::k], out_dir, child_runner, reference)]

    def med(attr: str) -> float:
        return statistics.median(getattr(p, attr) for p in passes)

    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "wall_t1_s": (med("wall_t1_s"), "s"),
        "wall_t2_s": (med("wall_t2_s"), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": sum(len(p.records) for p in checked),
        "failed": sum(not r["ok"] for p in checked for r in p.records),
        "failures": [f for p in checked for f in p.failures],
        "detail": {"setup_samples_s": setup, "passes": [p.records for p in checked]},
    }


# ---------------------------------------------------------------------
# --trace 1: per layer
# ---------------------------------------------------------------------

def importtime_breakdown(text: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy.special and scipy.stats (each
    with everything it pulled in first), magnet's own modules, and all."""
    rows = []  # (indent, name, self us), in the order -X importtime prints
    for line in text.splitlines():
        if line.startswith("import time:") and "[us]" not in line:
            self_us, _, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(self_us)))

    def subtree_s(module: str) -> float:
        # A package scipy loads lazily has no row of its own; then its
        # submodules' rows stand in for it.
        names = {n for _, n, _ in rows}
        match = ((lambda n: n == module) if module in names
                 else (lambda n: n.startswith(module + ".")))
        # Rows print after their children, so walking backwards each
        # matching row is followed by its descendants (deeper indent).
        total, inside = 0, None
        for indent, name, self_us in reversed(rows):
            if inside is not None and indent > inside:
                total += self_us
                continue
            inside = None
            if match(name):
                total += self_us
                inside = indent
        return total / 1e6

    return {
        "import.numpy_s": subtree_s("numpy"),
        "import.scipy_special_s": subtree_s("scipy.special"),
        "import.scipy_stats_s": subtree_s("scipy.stats"),
        "import.magnet_self_s": sum(s for _, n, s in rows
                                    if n == "magnet" or n.startswith("magnet.")) / 1e6,
        "import.magnet_total_s": subtree_s("magnet"),
    }


def inprocess_runner(cmd, out_dir: Path) -> tuple[float, float, int]:
    from magnet import cli

    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.main(cmd.argv(str(out_dir)))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - t0
    (out_dir / f"{cmd.key}.log").write_text(sink.getvalue())
    return wall, 0.0, rc


def run_traced(workload: str, seed: int, out_dir: Path) -> dict:
    import numpy as np
    from tracing import LAYERS, Tracer, self_times, span_cost

    sys.path.insert(0, str(SRC))
    from magnet import REFERENCE_PARAMS, DegreePmfTable, GridSpec
    from magnet.sampler import INVERSION_MEAN_MAX

    startup = statistics.median(time_import(out_dir)[0] for _ in range(SETUP_IMPORTS))
    breakdowns = [importtime_breakdown(time_import(out_dir, ("-X", "importtime"))[1])
                  for _ in range(SETUP_IMPORTS)]
    metrics = {k: (statistics.median(b[k] for b in breakdowns), "s") for k in breakdowns[0]}

    # Replay one pass of every workload so every layer metric is measured
    # on the inputs of the workload that exercises it.
    by_cmd: dict[tuple[str, str], list[tuple]] = {}
    failures, attempted, failed, walls = [], 0, 0, {}
    with Tracer() as tracer:
        for run_id, wl in enumerate(workloads.WORKLOADS, 1):
            tracer.run_id = run_id
            wl_dir = out_dir / wl
            wl_dir.mkdir()
            cmds = workloads.build(wl, seed)

            def runner(cmd, d, wl=wl):
                i0 = len(tracer.spans)
                res = inprocess_runner(cmd, d)
                by_cmd[wl, cmd.key] = tracer.spans[i0:]
                return res

            p = Pass(cmds, wl_dir, runner, {})
            failures += p.failures
            attempted += len(p.records)
            failed += sum(not r["ok"] for r in p.records)
            walls[wl] = p.wall_s
    spans = tracer.spans
    selfs = self_times(spans)
    cost = span_cost()

    def named(wl: str, key: str | None, name: str) -> list[tuple]:
        return [s for (w, k), ss in by_cmd.items() if w == wl and key in (None, k)
                for s in ss if s[3] == name]

    def dur(ss) -> float:
        return sum(s[5] - s[4] for s in ss)

    def rate(ss) -> float:
        return sum(s[6] for s in ss) / dur(ss)

    work: dict[str, float] = {}

    def put(name: str, value: float, unit: str, **counts: float) -> None:
        """Record a metric and, beside it, the exact work it is a rate of."""
        metrics[name] = (value, unit)
        base = name.rsplit(".", 1)[0]
        work.update({f"{base}.{k}": v for k, v in counts.items()})

    uni = named("graph", "generate_t1", "rng.uniforms_at")
    put("rng.uniforms_at.words_per_s", rate(uni), "1/s", words=sum(s[6] for s in uni))
    for mix, n, rho, _ in workloads.DIRECT_MIXES:
        t1 = named("degrees", f"direct_{mix}_t1", "sampler.sample_degrees_direct")
        t2 = named("degrees", f"direct_{mix}_t2", "sampler.sample_degrees_direct")
        l = law.attr_count(n, rho)
        put(f"sampler.direct.{mix}.draws_per_s", rate(t1), "1/s", draws=t1[0][6],
            rejection_share=law.rejection_share(n, l, INVERSION_MEAN_MAX),
            rng_words=t1[0][6] * (l + 1))
        put(f"sampler.direct.{mix}.t2_speedup", dur(t1) / dur(t2), "ratio")
    gen = named("graph", "generate_t1", "sampler.sample_graph")
    put("sampler.sample_graph.pairs_per_s", rate(gen), "1/s", pairs=gen[0][6])
    fg1 = named("graph", "fullgraph_t1", "sampler.sample_degrees_fullgraph")
    fg2 = named("graph", "fullgraph_t2", "sampler.sample_degrees_fullgraph")
    put("sampler.fullgraph.pairs_per_s", rate(fg1), "1/s", pairs=fg1[0][6])
    put("sampler.fullgraph.t2_speedup", dur(fg1) / dur(fg2), "ratio")
    wdc = named("degrees", None, "sampler.write_degrees_csv")
    put("sampler.write_degrees_csv.rows_per_s", rate(wdc), "1/s", rows=sum(s[6] for s in wdc))
    wel = named("graph", None, "sampler.write_edge_list")
    put("sampler.write_edge_list.rows_per_s", rate(wel), "1/s", rows=sum(s[6] for s in wel))

    pmf = named("analytics", None, "degree_dist.pmf")
    put("degree_dist.pmf.rows_per_s", rate(pmf), "1/s", rows=sum(s[6] for s in pmf))
    cdf = named("analytics", None, "degree_dist.cdf")
    put("degree_dist.cdf.rows_per_s", rate(cdf), "1/s", rows=sum(s[6] for s in cdf))
    quantile_ids = {s[1] for s in named("analytics", None, "degree_dist.quantile")}
    put("degree_dist.quantile.rows_scanned",
        sum(s[6] for s in pmf if s[2] in quantile_ids), "count")
    wpc = named("analytics", None, "degree_dist.write_pmf_csv")
    wpc_rows = sum(s[6] for s in pmf if s[2] in {w[1] for w in wpc})
    put("degree_dist.write_pmf_csv.rows_per_s", wpc_rows / dur(wpc), "1/s", rows=wpc_rows)
    for key, n in NORM_RESID_N.items():
        l = law.attr_count(n, 1.0)
        table = DegreePmfTable.from_model(REFERENCE_PARAMS, n, l)
        total = math.fsum(table.pmf(np.arange(law.norm_scan_end(n, l) + 1)))
        put(f"degree_dist.norm_resid.{key}", abs(total - 1.0), "1")
    cap = named("analytics", None, "limits.cdf_approx")
    put("limits.cdf_approx.rows_per_s", rate(cap), "1/s", rows=sum(s[6] for s in cap))
    opt = named("analytics", None, "bounds.optimize_bound")
    put("bounds.optimize_bound.calls_per_s", len(opt) / dur(opt), "1/s", calls=len(opt),
        grid_cells=len(opt) * GridSpec().n_delta * GridSpec().n_eta)
    be = named("analytics", None, "bounds.berry_esseen_bound")
    put("bounds.berry_esseen_bound.calls_per_s", len(be) / dur(be), "1/s", calls=len(be))
    for fn, wl, key in (("chi_square_gof", "graph", "exp_degree_fit_t1"),
                        ("two_sample_ks", "graph", "exp_degree_fit_t1"),
                        ("tv_to_exact", "graph", "exp_degree_fit_t1"),
                        ("ks_statistic", "degrees", "exp_lognormal_ks_t1")):
        put(f"stats.{fn}_s", dur(named(wl, key, f"stats.{fn}")), "s")
    for wl in workloads.WORKLOADS:
        for cmd in workloads.build(wl, seed):
            if cmd.check == "report" and cmd.threads == 1:
                name = f"experiments.run_experiment.{cmd.info['kind']}"
                put(f"{name}_s", dur(named(wl, cmd.key, name)), "s")

    # The traced workload itself: where its time goes.  Self times of spans
    # in worker threads overlap, so shares are of thread time: start-up
    # per command plus the summed self time of every span.
    own = [s for (w, _), ss in by_cmd.items() if w == workload for s in ss]
    layer_self = {layer.lstrip("_"): 0.0 for layer in LAYERS}
    for s in own:
        layer_self[s[3].split(".", 1)[0]] += selfs[s[1]]
    startup_total = startup * sum(s[3] == "cli.main" for s in own)
    inproc = sum(layer_self.values())
    shares = {k: v / (startup_total + inproc)
              for k, v in {"startup": startup_total, **layer_self}.items()}
    inproc_shares = {k: v / inproc for k, v in layer_self.items()}
    put("cli.self_s", layer_self["cli"], "s")
    put("startup.share", shares["startup"], "fraction")
    put("trace.spans", float(len(own)), "count")
    put("trace.overhead_s", len(own) * cost, "s")

    span_file = out_dir.parent / f"spans-{workload}-s{seed}.jsonl"
    names = ("run", "id", "parent", "name", "start", "end", "work")
    with open(span_file, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(names, s))) + "\n")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "detail": {"span_file": str(span_file.relative_to(ROOT)), "span_cost_s": cost,
                   "startup_per_command_s": startup, "inprocess_wall_s": walls,
                   "share_of_wall": shares, "share_of_inprocess": inproc_shares,
                   "work_counts": work},
    }


# ---------------------------------------------------------------------
# Provenance and entry point
# ---------------------------------------------------------------------

def provenance(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if res.returncode == 0:
            commit = res.stdout.strip()

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {"seed": seed, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, write its result file and print its figures."""
    tag = f"{workload}-s{seed}-trace{trace}"
    out_dir = OUT / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if trace:
        res = run_traced(workload, seed, out_dir)
    else:
        res = run_end_to_end(workload, seed, seconds, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    prov = provenance(seed)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "trace": trace, "provenance": prov,
                   "metrics": metrics, "attempted": res["attempted"], "failed": res["failed"],
                   "failures": res["failures"], **res["detail"]}, fh, indent=1)

    print(f"# {tag}: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for k, (v, u) in res["metrics"].items():
        print(f"{k:42s} {v:.6g} {u}")
    detail = res["detail"]
    for k, v in detail.get("work_counts", {}).items():
        print(f"work  {k:42s} {v:.6g}")
    for k, v in detail.get("share_of_wall", {}).items():
        print(f"share of wall       {k:12s} {v:.3f}")
    for k, v in detail.get("share_of_inprocess", {}).items():
        print(f"share of in-process {k:12s} {v:.3f}")
    if "span_file" in detail:
        print(f"spans: {detail['span_file']} ({detail['span_cost_s'] * 1e6:.2f} us per span)")
    print(f"fail_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']})")
    for f in res["failures"][:20]:
        print(f"FAIL {f}")
    return {"correct": not res["failures"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                    help="'all' runs every workload and prefixes metric names with it")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "magnet" / "__init__.py").is_file():
        print(f"bench: no magnet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Turn a termination request into an exception, so children are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {wl: run_workload(wl, args.seed, args.seconds, args.trace)
               for wl in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{k}": v for wl, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
