"""Command line interface.

Subcommands: generate, degrees, pmf, regime, approx, bound, experiment.
Common flags: --seed <u64>, --out <path>, --threads <k> (accepted and
checked to be at least 1, but it changes nothing: every command runs on one
thread).  Exit codes: 0 success, 2 invalid configuration (an output path
that cannot be opened included, and before any work one that is empty, a
directory, in a missing directory or shared), 3 regime violation (before
any draw in an experiment), 4 budget exceeded (a failed allocation included).
Reruns with the same arguments and seed produce byte-identical outputs;
wall-clock metadata only ever lands in report sidecars.  Each command
loads only the modules it runs, and OpenBLAS runs one thread unless
OPENBLAS_NUM_THREADS is set before start-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

from ._version import __version__
from .errors import BudgetError, InvalidParamsError, RegimeError
from .model import (
    DEFAULT_PAIR_BUDGET, REFERENCE_PARAMS, ModelParams, SampleMethod, Scaling,
    classify_regime, derive_constants, _check, _lognormal_limit, _rows, _write_out,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="magnet",
        description="MAG degree laws: sampling, exact analytics, limits, bounds.",
    )
    top.add_argument("--version", action="version", version=f"magnet {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="base seed (u64, default 0)")
    common.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; changes nothing")
    model = argparse.ArgumentParser(add_help=False, parents=[common])
    for f in dataclasses.fields(ModelParams):
        model.add_argument(f"--{f.name}", type=float, default=getattr(REFERENCE_PARAMS, f.name))
    model.add_argument("--rho", type=float, default=1.0)

    with_n = argparse.ArgumentParser(add_help=False, parents=[model])
    with_n.add_argument("--n", type=int, required=True)
    with_l = argparse.ArgumentParser(add_help=False, parents=[with_n])
    with_l.add_argument("--l", type=int, default=None,
                        help="attribute count (default: L_n from the scaling)")

    p = sub.add_parser("generate", help="sample one graph and write its edge list",
                       parents=[with_l])
    p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET)
    p.add_argument("--attributes-out", type=str, default=None,
                   help="also dump attribute rows ('0'/'1' lines) to this path")

    p = sub.add_parser("degrees", help="draw node degrees and write them as CSV", parents=[with_l])
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--method", choices=[m.value for m in SampleMethod],
                   default=SampleMethod.DIRECT.value)

    p = sub.add_parser("pmf", help="exact degree pmf/cdf table as CSV", parents=[with_l])
    p.add_argument("--d-max", type=int, default=None)

    sub.add_parser("regime", help="criticality and derived constants as JSON", parents=[model])

    p = sub.add_parser("approx", help="exact vs log-normal cdf sweep as CSV", parents=[with_n])
    p.add_argument("--d-max", type=int, default=None)

    p = sub.add_parser("bound", help="Berry-Esseen certificates as CSV or JSON", parents=[model])
    p.add_argument("--n", type=int, action="append", required=True,
                   help="node count; repeat for a sweep")
    p.add_argument("--delta", type=float, default=None,
                   help="fix delta (otherwise optimize over the grid)")
    p.add_argument("--eta", type=float, default=None,
                   help="fix eta (with --delta; default min(mu1,mu0)/4)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("experiment", help="run an experiment config and write its report",
                       parents=[common])
    p.add_argument("config", type=str, help="experiment INI file")

    return top


def _seed(args: argparse.Namespace) -> int:
    return 0 if args.seed is None else args.seed


def _check_dest(*paths: str | None) -> None:
    """Refuse, before any work, paths (outputs, and an input they must spare)
    that are empty, name a directory, lie in a missing one or share a file."""
    given = [p for p in paths if p is not None]
    for p in given:
        if not p or os.path.isdir(p) or not os.path.isdir(os.path.dirname(p) or "."):
            raise InvalidParamsError(f"output path {p!r} is not a file in an existing directory")
    if len({os.path.realpath(p) for p in given}) < len(given):
        raise InvalidParamsError(f"paths {given!r} name one file")


def _target(args: argparse.Namespace):
    """Where a subcommand writes: the --out path, else standard output."""
    return sys.stdout if args.out is None else args.out


def _cmd_generate(args: argparse.Namespace) -> None:
    from .sampler import sample_graph, write_attributes, write_edge_list
    graph = sample_graph(args.params, args.n, args.l, _seed(args), pair_budget=args.pair_budget)
    write_edge_list(graph, _target(args))
    if args.attributes_out is not None:
        write_attributes(graph, args.attributes_out)


def _cmd_degrees(args: argparse.Namespace) -> None:
    from .sampler import sample_degrees_direct, sample_degrees_fullgraph, write_degrees_csv
    sampler = (sample_degrees_direct if args.method == SampleMethod.DIRECT.value
               else sample_degrees_fullgraph)
    samples = sampler(args.params, args.n, args.l, args.count, _seed(args))
    write_degrees_csv(samples, _target(args))


def _cmd_pmf(args: argparse.Namespace) -> None:
    from .degree_dist import write_pmf_csv
    write_pmf_csv(_target(args), args.params, args.n, args.l, d_max=args.d_max)


def _cmd_regime(args: argparse.Namespace) -> None:
    res = classify_regime(args.params, args.rho)
    c = derive_constants(args.params)
    payload = {
        "rho": args.rho,
        "kappa": res.kappa,
        "regime": res.regime.value,
        "gamma0": c.gamma0,
        "gamma1": c.gamma1,
        "sigma0": c.sigma0,
        "sigma": c.sigma,
        "r": c.r,
        "r_kl": c.gamma0 / c.gamma1,
        "log_gamma_bar": c.log_gamma_bar,
    }
    _write_out(_target(args), [json.dumps(payload, indent=2, sort_keys=True)])


def _cmd_approx(args: argparse.Namespace) -> None:
    from .degree_dist import _pmf_rows
    from .limits import cdf_approx
    params, scaling, n = args.params, args.scaling, args.n
    l, _, _ = _lognormal_limit(params, n, scaling, "the log-normal degree limit")
    rows = _pmf_rows(params, n, l, args.d_max, 0.999)
    # cdf_exact is the pmf command's cdf column: the running sum of the pmf
    blocks = ((t, exact, cdf_approx(t, n, scaling, params)) for t, _, exact in rows)
    _write_out(_target(args), itertools.chain(["n,t,cdf_exact,cdf_approx,abs_err"], (
        text for t, exact, approx in blocks
        for text in _rows(f"{n},%d,%.17g,%.17g,%.17g", t, exact, approx, abs(exact - approx)))))


def _cmd_bound(args: argparse.Namespace) -> None:
    from .bounds import C_STAR, berry_esseen_bound, optimize_bound, write_bound_csv
    if args.delta is None and args.eta is not None:
        raise InvalidParamsError("--eta needs --delta (or drop both to optimize)")
    params, scaling = args.params, args.scaling
    certs = [optimize_bound(params, n, scaling) if args.delta is None
             else berry_esseen_bound(params, n, scaling, args.delta, eta=args.eta)
             for n in args.n]
    if args.format == "csv":
        write_bound_csv(_target(args), certs)
    else:
        payload = [
            {**dataclasses.asdict(c), "c_star": C_STAR, "total": c.total, "vacuous": c.vacuous}
            for c in certs
        ]
        _write_out(_target(args), [json.dumps(payload, indent=2, sort_keys=True)])


def _cmd_experiment(args: argparse.Namespace) -> None:
    from .experiments import config_hash, parse_config, run_experiment
    config = parse_config(args.config)
    out = args.out if args.out is not None else config.out
    if out is not None:  # the config, the report and its sidecar: three files
        _check_dest(args.config, out, out + ".meta.json")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_experiment(config)
    if out is None:
        _write_out(sys.stdout, report.lines())
    else:
        report.write(out)
        sys.stdout.write(
            f"report written to {out} (config {config_hash(config)[:12]}, "
            f"{'all checks passed' if report.all_passed() else 'SOME CHECKS FAILED'})\n"
        )


_COMMANDS = {
    "generate": _cmd_generate,
    "degrees": _cmd_degrees,
    "pmf": _cmd_pmf,
    "regime": _cmd_regime,
    "approx": _cmd_approx,
    "bound": _cmd_bound,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # magnet does no parallel BLAS work: one thread starts faster and
        # keeps output bytes independent of the host's core count
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check("seed", _seed(args), 0, 2 ** 64 - 1, integer=True)
        _check("threads", args.threads, 1, integer=True)
        _check_dest(args.out, vars(args).get("attributes_out"))
        if "rho" in args:  # the model flags: one parameter set, scaling and L_n
            args.params = ModelParams(q11=args.q11, q10=args.q10, q00=args.q00, mu1=args.mu1)
            args.scaling = Scaling(args.rho)
            if "l" in args and args.l is None:
                args.l = args.scaling.attr_count(args.n)
        _COMMANDS[args.command](args)
    except RegimeError as exc:
        print(f"magnet: regime violation: {exc}", file=sys.stderr)
        return 3
    except (BudgetError, MemoryError) as exc:  # a refused or a failed allocation
        print(f"magnet: budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # OSError: an --out path that cannot be opened
        print(f"magnet: invalid configuration: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
