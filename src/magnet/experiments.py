"""Reproducible Monte Carlo experiments over the degree asymptotics.

An experiment is described by a single INI file (sections ``[model]``,
``[scaling]``, ``[experiment]``; exact schema in the package README) and
produces a flat report: provenance header lines, then CSV rows

    n,statistic,value,stderr,exact,pass

Every statistic carries either a Monte Carlo standard-error proxy or an
exactness marker.  Reports are byte-identical across reruns of the same
config and seed and across thread counts; wall-clock metadata lives in a
JSON sidecar next to the report, never inside it.
"""

from __future__ import annotations

import configparser
import dataclasses
import datetime
import enum
import hashlib
import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _rng
from ._version import __version__
from .bounds import optimize_bound
from .degree_dist import DegreePmfTable
from .errors import ConfigError, InvalidParamsError, RegimeError
from .limits import (
    LogNormalSpec,
    cdf_approx,
    kl_params,
    kl_reconciled_law,
    lambda_limit_probe,
    lognormal_cdf,
    transform_degree,
    _check_sample_l,
)
from .model import (
    DEFAULT_PAIR_BUDGET,
    EXACT_MAX,
    ModelParams,
    Regime,
    Scaling,
    classify_regime,
    derive_constants,
    _check,
    _lognormal_limit,
    _write_out,
)
from .sampler import (
    DegreeSampleSet, sample_degrees_direct, sample_degrees_fullgraph, _check_pair_budget,
)
from .stats import (
    FIT_ALPHA, chi_square_gof, dkw_proxy, ks_statistic, tv_limit, tv_to_exact, two_sample_ks,
)

__all__ = [
    "SupDelta",
    "empirical_sup_delta",
    "ExperimentKind",
    "ExperimentConfig",
    "parse_config",
    "canonical_text",
    "config_hash",
    "ReportRow",
    "ExperimentReport",
    "run_experiment",
]

#: Residual tolerances of the reconciliation identities.
KL_VAR_TOL = 1e-12
KL_MEAN_TOL = 1e-10
KL_CDF_TOL = 1e-12


# =====================================================================
# Kolmogorov distance to the limit, with the zero atom
# =====================================================================

@dataclass(frozen=True)
class SupDelta:
    """Empirical Kolmogorov distance of transformed degrees to the limit.

    ``sup_delta = max(zero_fraction, ks_nonzero)``: the limit law puts no
    mass at 0, so the empirical zero atom is itself a lower bound on the
    distance, and the nonzero draws carry the usual KS statistic.
    """

    sup_delta: float
    ks_nonzero: float
    zero_fraction: float
    proxy: float
    n_total: int
    n_nonzero: int


def empirical_sup_delta(samples: DegreeSampleSet, scaling: Scaling) -> SupDelta:
    """KS distance of ``transform_degree`` draws to LogNormal(0, sigma**2).

    Zero degrees are excluded from the KS part and reported (and folded in)
    through the zero atom; the stderr proxy is :func:`dkw_proxy` of the
    nonzero sample size.  When every draw is 0, ``ks_nonzero`` reads 0,
    ``sup_delta`` the zero fraction 1, and the proxy is that of all draws.
    """
    params = samples.params
    n = samples.n
    l, _, sigma = _lognormal_limit(params, n, scaling, "the log-normal KS statistic")
    _check_sample_l(samples, l)
    d = samples.degrees
    zero_fraction = float((d == 0).mean())
    nonzero = d[d > 0]
    ks = 0.0
    if len(nonzero):
        w = transform_degree(nonzero, n, scaling, params)
        spec = LogNormalSpec(m=0.0, sigma2=sigma ** 2)
        ks = ks_statistic(w, lambda x: lognormal_cdf(x, spec))
    return SupDelta(
        sup_delta=max(zero_fraction, ks),
        ks_nonzero=ks,
        zero_fraction=zero_fraction,
        proxy=dkw_proxy(len(nonzero) or len(d)),
        n_total=len(d),
        n_nonzero=len(nonzero),
    )


# =====================================================================
# Configuration
# =====================================================================

class ExperimentKind(enum.Enum):
    DEGREE_FIT = "degree_fit"
    LOGNORMAL_KS = "lognormal_ks"
    ZERO_ONE_LAW = "zero_one_law"
    LAMBDA_PROBE = "lambda_probe"
    BOUND_CHECK = "bound_check"
    KL_RECONCILE = "kl_reconcile"


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see the README for the file schema."""

    params: ModelParams
    scaling: Scaling
    kind: ExperimentKind
    n_grid: tuple[int, ...]
    draws: int
    seed: int
    out: str | None = None

    def __post_init__(self) -> None:
        try:
            for name, cls in (("params", ModelParams), ("scaling", Scaling)):
                if not isinstance(getattr(self, name), cls):
                    raise InvalidParamsError(
                        f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
            try:
                object.__setattr__(self, "kind", ExperimentKind(self.kind))
            except ValueError:
                raise InvalidParamsError(f"unknown experiment kind {self.kind!r}") from None
            if not isinstance(self.n_grid, Sequence):
                raise InvalidParamsError(
                    f"n_grid must be a sequence of integers, got {self.n_grid!r}")
            n_grid = tuple(_check("each n_grid entry", n, 2, integer=True) for n in self.n_grid)
            if not n_grid:
                raise InvalidParamsError("n_grid must be nonempty")
            if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
                raise InvalidParamsError("n_grid must be strictly increasing")
            object.__setattr__(self, "n_grid", n_grid)
            object.__setattr__(self, "draws", _check("draws", self.draws, 100, integer=True))
            object.__setattr__(self, "seed", _check("seed", self.seed, 0, 2 ** 64 - 1,
                                                    integer=True))
        except InvalidParamsError as exc:
            raise ConfigError(str(exc)) from exc


#: The [experiment] keys: every config field but the [model] and [scaling]
#: sections.
_EXPERIMENT_FIELDS = tuple(
    f for f in dataclasses.fields(ExperimentConfig) if f.name not in ("params", "scaling")
)

#: How an INI value is read, by the annotation of its field.
_CASTS = {
    "int": int,
    "float": float,
    "ExperimentKind": ExperimentKind,
    "str | None": str,
    "tuple[int, ...]": lambda raw: tuple(int(tok) for tok in raw.split()),
}


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment INI file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc

    sections = {
        "model": dataclasses.fields(ModelParams),
        "scaling": dataclasses.fields(Scaling),
        "experiment": _EXPERIMENT_FIELDS,
    }
    extra = set(cp.sections()) - set(sections)
    if extra:
        raise ConfigError(f"unknown sections: {sorted(extra)}")
    values: dict[str, dict] = {}
    for section, section_fields in sections.items():
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")
        unknown = set(cp.options(section)) - {f.name for f in section_fields}
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        values[section] = {}
        for f in section_fields:
            if not cp.has_option(section, f.name):
                if f.default is dataclasses.MISSING:
                    raise ConfigError(f"missing required key {section}.{f.name}")
                continue
            raw = cp.get(section, f.name).strip()
            try:
                values[section][f.name] = _CASTS[f.type](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {section}.{f.name}: {raw!r}") from exc
    try:
        return ExperimentConfig(params=ModelParams(**values["model"]),
                                scaling=Scaling(**values["scaling"]), **values["experiment"])
    except InvalidParamsError as exc:
        raise ConfigError(str(exc)) from exc


def canonical_text(config: ExperimentConfig) -> str:
    """Canonical serialization of the parsed config (the hash input).

    One ``section.key = value`` line per config field, sorted; floats in
    ``repr`` form.  The output path is excluded: it does not influence any
    number.
    """
    items = {}
    for section, obj in (("model", config.params), ("scaling", config.scaling),
                         ("experiment", config)):
        for f in dataclasses.fields(obj):
            if f.name in ("params", "scaling", "out"):
                continue
            value = getattr(obj, f.name)
            if isinstance(value, enum.Enum):
                text = value.value
            elif isinstance(value, tuple):
                text = " ".join(repr(v) for v in value)
            else:
                text = repr(value)
            items[f"{section}.{f.name}"] = text
    return "\n".join(f"{k} = {items[k]}" for k in sorted(items)) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest()


# =====================================================================
# Report
# =====================================================================

@dataclass(frozen=True)
class ReportRow:
    n: int
    statistic: str
    value: float
    stderr: float | None = None
    exact: bool = False
    passed: bool | None = None

    def to_csv(self) -> str:
        err = "" if self.stderr is None else repr(float(self.stderr))
        ok = "" if self.passed is None else str(self.passed).lower()
        return (
            f"{self.n},{self.statistic},{float(self.value)!r},{err},"
            f"{str(self.exact).lower()},{ok}"
        )


@dataclass(frozen=True)
class ExperimentReport:
    kind: ExperimentKind
    provenance: dict[str, str]
    rows: tuple[ReportRow, ...]

    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)

    def lines(self) -> list[str]:
        """The report body, one string per line."""
        lines = ["# magnet experiment report"]
        lines.extend(f"# {k}={self.provenance[k]}" for k in sorted(self.provenance))
        lines.append("n,statistic,value,stderr,exact,pass")
        lines.extend(r.to_csv() for r in self.rows)
        return lines

    def write(self, path: str) -> None:
        """Write the report to ``path`` and its wall-clock sidecar beside it."""
        _write_out(path, self.lines())
        meta = {
            "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "report": os.path.basename(path),
        }
        _write_out(path + ".meta.json", [json.dumps(meta, indent=2, sort_keys=True)])


# =====================================================================
# Runners
# =====================================================================

def _direct_draws(config: ExperimentConfig, n: int) -> DegreeSampleSet:
    """The config's direct degree draws at node count ``n``."""
    seed = _rng.word_at(_rng.stream_key(config.seed, _rng.TAG_GRID_DIRECT), n)
    return sample_degrees_direct(config.params, n, config.scaling.attr_count(n),
                                 config.draws, seed)


def _fullgraph_count(config: ExperimentConfig) -> int:
    """degree_fit's fullgraph draws at each n: a quarter of the direct ones."""
    return max(100, config.draws // 4)


def _check_grid(config: ExperimentConfig) -> None:
    """Refuse, before any work, a grid that the runner cannot run: past the
    exact range (exit 2), without the log-normal limit it reads (3) or over
    degree_fit's pair budget (4).  Each bound grows with n, so the largest n
    covers the grid."""
    kind, n = config.kind, config.n_grid[-1]
    if kind in (ExperimentKind.BOUND_CHECK, ExperimentKind.KL_RECONCILE):
        return  # no draw and no exact law: any n >= 2
    n = _check("each n_grid entry", n, 2, EXACT_MAX, integer=True)
    _check("L_n", config.scaling.attr_count(n), 1, EXACT_MAX, integer=True)
    if kind in (ExperimentKind.LOGNORMAL_KS, ExperimentKind.LAMBDA_PROBE):
        _lognormal_limit(config.params, n, config.scaling, f"the {kind.value} experiment")
    if kind is ExperimentKind.DEGREE_FIT:
        _check_pair_budget(_fullgraph_count(config) * (n - 1), DEFAULT_PAIR_BUDGET)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the experiment described by ``config`` and build its report."""
    _check_grid(config)
    runner = {
        ExperimentKind.DEGREE_FIT: _run_degree_fit,
        ExperimentKind.LOGNORMAL_KS: _run_lognormal_ks,
        ExperimentKind.ZERO_ONE_LAW: _run_zero_one_law,
        ExperimentKind.LAMBDA_PROBE: _run_lambda_probe,
        ExperimentKind.BOUND_CHECK: _run_bound_check,
        ExperimentKind.KL_RECONCILE: _run_kl_reconcile,
    }[config.kind]
    rows = runner(config)
    prov = {
        "kind": config.kind.value,
        "config_hash": config_hash(config),
        "seed": str(config.seed),
        "version": __version__,
        "params": (
            f"q11={config.params.q11!r} q10={config.params.q10!r} "
            f"q00={config.params.q00!r} mu1={config.params.mu1!r}"
        ),
        "rho": repr(config.scaling.rho),
        "n_grid": " ".join(str(n) for n in config.n_grid),
        "draws": str(config.draws),
    }
    return ExperimentReport(kind=config.kind, provenance=prov, rows=tuple(rows))


def _fraction_stderr(frac: float, count: int) -> float:
    """Binomial standard error sqrt(f(1 - f)/N) of a fraction ``frac`` of
    ``count`` draws, kept above 0 when f is 0 or 1."""
    return math.sqrt(max(frac * (1.0 - frac), 1e-300) / count)


def _run_degree_fit(config: ExperimentConfig) -> list[ReportRow]:
    rows: list[ReportRow] = []
    for n in config.n_grid:
        l = config.scaling.attr_count(n)
        direct = _direct_draws(config, n)
        graph_seed = _rng.word_at(_rng.stream_key(config.seed, _rng.TAG_GRID_GRAPH), n)
        graph = sample_degrees_fullgraph(config.params, n, l, _fullgraph_count(config),
                                         graph_seed)
        table = DegreePmfTable.from_model(config.params, n, l)
        d_hi = int(max(direct.degrees.max(), graph.degrees.max()))
        exact = table.pmf(np.arange(d_hi + 1))

        tv_d = tv_to_exact(direct.degrees, exact)
        tv_g = tv_to_exact(graph.degrees, exact)
        _, chi_p, _ = chi_square_gof(direct.degrees, exact)
        _, ks_p = two_sample_ks(direct.degrees, graph.degrees)
        # One draw moves TV by at most 1/N, so by Efron-Stein its sd is at
        # most 1/sqrt(2N).
        rows.extend([
            ReportRow(n, "tv_direct", tv_d, stderr=1.0 / math.sqrt(2.0 * direct.count),
                      passed=tv_d <= tv_limit(exact, direct.count)),
            ReportRow(n, "tv_fullgraph", tv_g, stderr=1.0 / math.sqrt(2.0 * graph.count),
                      passed=tv_g <= tv_limit(exact, graph.count)),
            ReportRow(n, "chisq_p_direct", chi_p, passed=chi_p > FIT_ALPHA),
            ReportRow(n, "ks2_p", ks_p, passed=ks_p > FIT_ALPHA),
        ])
    return rows


def _run_lognormal_ks(config: ExperimentConfig) -> list[ReportRow]:
    rows: list[ReportRow] = []
    deltas: list[SupDelta] = []
    for n in config.n_grid:
        sd = empirical_sup_delta(_direct_draws(config, n), config.scaling)
        deltas.append(sd)
        cert = optimize_bound(config.params, n, config.scaling)
        dominates = cert.vacuous or (sd.sup_delta + 3.0 * sd.proxy <= cert.total)
        rows.extend([
            ReportRow(n, "zero_fraction", sd.zero_fraction,
                      stderr=_fraction_stderr(sd.zero_fraction, sd.n_total)),
            ReportRow(n, "ks_nonzero", sd.ks_nonzero, stderr=sd.proxy),
            ReportRow(n, "sup_delta", sd.sup_delta, stderr=sd.proxy),
            ReportRow(n, "bound_total", cert.total, exact=True),
            ReportRow(n, "bound_vacuous", float(cert.vacuous), exact=True),
            ReportRow(n, "bound_dominates", cert.total - (sd.sup_delta + 3.0 * sd.proxy),
                      exact=False, passed=dominates),
        ])
    n_last = config.n_grid[-1]
    increases = [
        b.sup_delta - a.sup_delta - 2.0 * (a.proxy + b.proxy)
        for a, b in zip(deltas, deltas[1:])
    ]
    rows.append(ReportRow(
        n_last, "sup_delta_nonincreasing",
        max(increases) if increases else 0.0,
        passed=all(x <= 0 for x in increases),
    ))
    rows.append(ReportRow(
        n_last, "sup_delta_final", deltas[-1].sup_delta, stderr=deltas[-1].proxy,
        passed=deltas[-1].sup_delta < 0.1,
    ))
    return rows


def _run_zero_one_law(config: ExperimentConfig) -> list[ReportRow]:
    regime = classify_regime(config.params, config.scaling.rho)
    if regime.regime is Regime.BOUNDARY:
        raise RegimeError("the zero-one law experiment needs a non-boundary regime")
    p0s = []
    rows: list[ReportRow] = []
    for n in config.n_grid:
        l = config.scaling.attr_count(n)
        p0 = DegreePmfTable.from_model(config.params, n, l).prob_zero()
        p0s.append(p0)
        rows.append(ReportRow(n, "p0", p0, exact=True))
    n_last = config.n_grid[-1]
    steps = [b - a for a, b in zip(p0s, p0s[1:])]
    if regime.regime is Regime.SUBCRITICAL:
        monotone = all(s > 0 for s in steps)
        final_ok = p0s[-1] > 0.9
        worst = min(steps) if steps else 0.0
    else:
        monotone = all(s < 0 for s in steps)
        final_ok = p0s[-1] < 0.1
        worst = max(steps) if steps else 0.0
    rows.append(ReportRow(n_last, "p0_trend_monotone", worst, exact=True, passed=monotone))
    rows.append(ReportRow(n_last, "p0_final", p0s[-1], exact=True, passed=final_ok))
    return rows


def _run_lambda_probe(config: ExperimentConfig) -> list[ReportRow]:
    rows: list[ReportRow] = []
    for n in config.n_grid:
        samples = _direct_draws(config, n)
        for t in (0.1, 1.0, 10.0):
            frac = lambda_limit_probe(t, samples, config.scaling)
            rows.append(ReportRow(
                n, f"lambda_frac[t={t:g}]", frac,
                stderr=_fraction_stderr(frac, samples.count),
                passed=abs(frac - 0.5) <= 0.07,
            ))
    return rows


def _run_bound_check(config: ExperimentConfig) -> list[ReportRow]:
    rows: list[ReportRow] = []
    totals: list[float] = []
    for n in config.n_grid:
        cert = optimize_bound(config.params, n, config.scaling)
        totals.append(cert.total)
        rows.extend([
            ReportRow(n, "delta_opt", cert.delta, exact=True),
            ReportRow(n, "eta_opt", cert.eta, exact=True),
            ReportRow(n, "term_clt", cert.term_clt, exact=True),
            ReportRow(n, "term_be", cert.term_be, exact=True),
            ReportRow(n, "term_hoeffding", cert.term_hoeffding, exact=True),
            ReportRow(n, "term_chernoff", cert.term_chernoff, exact=True),
            ReportRow(n, "bound_total", cert.total, exact=True),
            ReportRow(n, "bound_vacuous", float(cert.vacuous), exact=True),
        ])
    rows.append(ReportRow(
        config.n_grid[-1], "total_shrinks_across_grid", totals[0] - totals[-1],
        exact=True, passed=totals[-1] < totals[0],
    ))
    return rows


def _run_kl_reconcile(config: ExperimentConfig) -> list[ReportRow]:
    # q11, q10, q00, mu1 of each of 20 random sets: uniform on [0.05, 0.95)
    u = _rng.uniforms_at(_rng.stream_key(config.seed, _rng.TAG_PARAM_SETS), np.arange(4 * 20))
    draws = (0.05 + 0.9 * u).reshape(-1, 4).tolist()
    param_sets = [config.params] + [ModelParams(*q) for q in draws]
    rows: list[ReportRow] = []
    for n in config.n_grid:
        var_resid = 0.0
        mean_resid = 0.0
        cdf_resid = 0.0
        log_n = math.log(n)
        for p in param_sets:
            c = derive_constants(p)
            rho_n = config.scaling.rho_n(n)
            kp = kl_params(p, n, config.scaling)
            if kp.sigma2 > 0:
                var_resid = max(
                    var_resid,
                    abs(kp.sigma2 - rho_n * c.sigma ** 2 * log_n) / kp.sigma2,
                )
            m_direct = (1.0 + rho_n * c.log_gamma_bar) * log_n \
                + 0.5 * (c.sigma ** 2) * rho_n * log_n
            mean_resid = max(mean_resid, abs(kp.m - m_direct) / max(abs(kp.m), 1e-300))
            try:
                _lognormal_limit(p, n, config.scaling, "the KL cdf residual")
            except RegimeError:  # no log-normal limit to compare against
                continue
            law = kl_reconciled_law(p, n, config.scaling)
            sd = math.sqrt(law.sigma2)
            for z in (-2.0, -1.0, 0.0, 1.0, 2.0):
                t = math.exp(law.m + z * sd)
                cdf_resid = max(
                    cdf_resid,
                    abs(lognormal_cdf(t, law) - cdf_approx(t, n, config.scaling, p)),
                )
        rows.extend([
            ReportRow(n, "kl_var_resid_max", var_resid, exact=True,
                      passed=var_resid <= KL_VAR_TOL),
            ReportRow(n, "kl_mean_resid_max", mean_resid, exact=True,
                      passed=mean_resid <= KL_MEAN_TOL),
            ReportRow(n, "kl_cdf_resid_max", cdf_resid, exact=True,
                      passed=cdf_resid <= KL_CDF_TOL),
        ])
    return rows
