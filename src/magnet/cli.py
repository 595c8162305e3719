"""Command line interface.

Subcommands: generate, degrees, pmf, regime, approx, bound, experiment.
Common flags: --seed <u64>, --out <path>, --threads <k> (threads affect
speed only, never output).  Exit codes: 0 success, 2 invalid
configuration (an output path that cannot be opened included), 3 regime
violation, 4 budget exceeded.  Reruns with the same arguments and seed
produce byte-identical outputs; wall-clock metadata only ever lands in
report sidecars.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from ._version import __version__
from .bounds import DEFAULT_C_STAR, berry_esseen_bound, optimize_bound, write_bound_csv
from .degree_dist import DegreePmfTable, _write_out, write_pmf_csv
from .errors import BudgetError, InvalidParamsError, MagnetError, RegimeError
from .experiments import config_hash, parse_config, run_experiment
from .limits import cdf_approx
from .model import ModelParams, Rounding, Scaling, classify_regime, derive_constants
from .sampler import (
    DEFAULT_PAIR_BUDGET,
    SampleMethod,
    sample_degrees_direct,
    sample_degrees_fullgraph,
    sample_graph,
    write_attributes,
    write_degrees_csv,
    write_edge_list,
)

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="base seed (u64, default 0)")
    parser.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads; affects speed only, never output")


def _add_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q11", type=float, default=0.7)
    parser.add_argument("--q10", type=float, default=0.2)
    parser.add_argument("--q00", type=float, default=0.5)
    parser.add_argument("--mu1", type=float, default=0.6)


def _add_scaling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho", type=float, default=1.0)
    parser.add_argument("--rounding", choices=[r.value for r in Rounding],
                        default=Rounding.ROUND.value)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="magnet",
        description="MAG degree laws: sampling, exact analytics, limits, bounds.",
    )
    top.add_argument("--version", action="version", version=f"magnet {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample one graph and write its edge list")
    _add_common(p)
    _add_model(p)
    _add_scaling(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None,
                   help="attribute count (default: L_n from the scaling)")
    p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET)
    p.add_argument("--attributes-out", type=str, default=None,
                   help="also dump attribute rows ('0'/'1' lines) to this path")

    p = sub.add_parser("degrees", help="draw node degrees and write them as CSV")
    _add_common(p)
    _add_model(p)
    _add_scaling(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--method", choices=[m.value for m in SampleMethod],
                   default=SampleMethod.DIRECT.value)

    p = sub.add_parser("pmf", help="exact degree pmf/cdf table as CSV")
    _add_common(p)
    _add_model(p)
    _add_scaling(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--d-max", type=int, default=None)

    p = sub.add_parser("regime", help="criticality and derived constants as JSON")
    _add_common(p)
    _add_model(p)
    _add_scaling(p)

    p = sub.add_parser("approx", help="exact vs log-normal cdf sweep as CSV")
    _add_common(p)
    _add_model(p)
    _add_scaling(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--d-max", type=int, default=None)

    p = sub.add_parser("bound", help="Berry-Esseen certificates as CSV or JSON")
    _add_common(p)
    _add_model(p)
    _add_scaling(p)
    p.add_argument("--n", type=int, action="append", required=True,
                   help="node count; repeat for a sweep")
    p.add_argument("--delta", type=float, default=None,
                   help="fix delta (otherwise optimize over the grid)")
    p.add_argument("--eta", type=float, default=None,
                   help="fix eta (with --delta; default min(mu1,mu0)/4)")
    p.add_argument("--c-star", type=float, default=DEFAULT_C_STAR)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("experiment", help="run an experiment config and write its report")
    _add_common(p)
    p.add_argument("config", type=str, help="experiment INI file")

    return top


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(q11=args.q11, q10=args.q10, q00=args.q00, mu1=args.mu1)


def _seed(args: argparse.Namespace) -> int:
    return 0 if args.seed is None else args.seed


def _scaling(args: argparse.Namespace) -> Scaling:
    return Scaling(rho=args.rho, rounding=Rounding(args.rounding))


def _attr_count(args: argparse.Namespace) -> int:
    if args.l is not None:
        if args.l < 1:
            raise InvalidParamsError(f"l must be >= 1, got {args.l}")
        return args.l
    return _scaling(args).attr_count(args.n)


def _target(args: argparse.Namespace):
    """Where a subcommand writes: the --out path, else standard output."""
    return sys.stdout if args.out is None else args.out


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = sample_graph(_params(args), args.n, _attr_count(args), _seed(args),
                         pair_budget=args.pair_budget)
    write_edge_list(graph, _target(args))
    if args.attributes_out is not None:
        write_attributes(graph, args.attributes_out)
    return 0


def _cmd_degrees(args: argparse.Namespace) -> int:
    sampler = (
        sample_degrees_direct
        if args.method == SampleMethod.DIRECT.value
        else sample_degrees_fullgraph
    )
    samples = sampler(_params(args), args.n, _attr_count(args), args.count,
                      _seed(args), threads=args.threads)
    write_degrees_csv(samples, _target(args))
    return 0


def _cmd_pmf(args: argparse.Namespace) -> int:
    write_pmf_csv(_target(args), _params(args), args.n, _attr_count(args), d_max=args.d_max)
    return 0


def _cmd_regime(args: argparse.Namespace) -> int:
    params = _params(args)
    res = classify_regime(params, args.rho)
    c = derive_constants(params)
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
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    params = _params(args)
    scaling = _scaling(args)
    n = args.n
    l = _attr_count(args)
    if args.l is not None and args.l != scaling.attr_count(n):
        raise InvalidParamsError(
            "approx compares against the scaled limit; --l must match the "
            f"scaling (L_n = {scaling.attr_count(n)} at n = {n})"
        )
    table = DegreePmfTable.from_model(params, n, l)
    d_max = args.d_max if args.d_max is not None else table.quantile(0.999)
    if not 0 <= d_max <= n - 1:
        raise InvalidParamsError(f"d_max must lie in [0, {n - 1}]")
    t = np.arange(d_max + 1, dtype=np.int64)
    exact = np.asarray(table.cdf(t))
    approx = np.asarray(cdf_approx(t.astype(np.float64), n, scaling, params))
    lines = ["n,t,cdf_exact,cdf_approx,abs_err"]
    for ti, ei, ai in zip(t, exact, approx):
        lines.append(f"{n},{int(ti)},{ei:.17g},{ai:.17g},{abs(ei - ai):.17g}")
    _write_out(_target(args), lines)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    params = _params(args)
    scaling = _scaling(args)
    certs = []
    for n in args.n:
        if args.delta is not None:
            certs.append(berry_esseen_bound(params, n, scaling, args.delta,
                                            eta=args.eta, c_star=args.c_star))
        else:
            if args.eta is not None:
                raise InvalidParamsError("--eta needs --delta (or drop both to optimize)")
            certs.append(optimize_bound(params, n, scaling, c_star=args.c_star))
    if args.format == "csv":
        write_bound_csv(_target(args), certs)
    else:
        payload = [
            {**dataclasses.asdict(c), "total": c.total, "vacuous": c.vacuous} for c in certs
        ]
        _write_out(_target(args), [json.dumps(payload, indent=2, sort_keys=True)])
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_experiment(config, threads=args.threads)
    out = args.out if args.out is not None else config.out
    if out is None:
        _write_out(sys.stdout, report.lines())
    else:
        report.write(out)
        sys.stdout.write(
            f"report written to {out} (config {config_hash(config)[:12]}, "
            f"{'all checks passed' if report.all_passed() else 'SOME CHECKS FAILED'})\n"
        )
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise InvalidParamsError("seed must be a u64")
        if args.threads < 1:
            raise InvalidParamsError("threads must be >= 1")
        return _COMMANDS[args.command](args)
    except RegimeError as exc:
        print(f"magnet: regime violation: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"magnet: budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (InvalidParamsError, ValueError) as exc:
        print(f"magnet: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except MagnetError as exc:
        print(f"magnet: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out path that cannot be opened
        print(f"magnet: invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
