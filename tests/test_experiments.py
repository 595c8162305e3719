"""Experiment configs, canonical hashing, report determinism, sup-delta."""

import json
import math

import numpy as np
import pytest

from magnet import (
    ConfigError,
    ExperimentConfig,
    ExperimentKind,
    ModelParams,
    REFERENCE_PARAMS,
    RegimeError,
    Scaling,
    canonical_text,
    config_hash,
    empirical_sup_delta,
    parse_config,
    run_experiment,
    sample_degrees_direct,
)

P = REFERENCE_PARAMS
SC = Scaling(rho=1.0)

GOOD_INI = """\
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

# The example config of the README.
README_INI = """\
[model]
q11 = 0.7
q10 = 0.2
q00 = 0.5
mu1 = 0.6

[scaling]
rho = 1.0          ; rounding = round | ceil | floor (default round)

[experiment]
kind = zero_one_law
n_grid = 100 1000 10000   ; whitespace-separated, strictly increasing
draws = 2000              ; >= 100
seed = 7
"""

# Every optional key set away from its default.
FULL_INI = """\
[model]
q11 = 0.7
q10 = 0.2
q00 = 0.5
mu1 = 0.6

[scaling]
rho = 1.5
rounding = ceil

[experiment]
kind = degree_fit
n_grid = 30 300
draws = 400
seed = 11
out = report.csv
graph_draws = 250
t_values = 0.5 2.0
tolerance = 0.05
param_sets = 4
c_star = 0.56
tv_direct_max = 0.02
tv_graph_max = 0.03
p_min = 0.002
final_sup_delta_max = 0.2
final_p0_min = 0.8
final_p0_max = 0.15
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_roundtrip(tmp_path):
    cfg = parse_config(_write(tmp_path, GOOD_INI))
    assert cfg.kind is ExperimentKind.KL_RECONCILE
    assert cfg.params == P
    assert cfg.scaling.rho == 1.0
    assert cfg.n_grid == (1000, 1000000)
    assert cfg.draws == 100
    assert cfg.seed == 17
    assert cfg.param_sets == 3


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda s: s.replace("[scaling]\nrho = 1.0\n", ""), "missing"),
        (lambda s: s.replace("kind = kl_reconcile", "kind = no_such_kind"), "kind"),
        (lambda s: s + "unknown_key = 3\n", "unknown"),
        (lambda s: s.replace("draws = 100", "draws = 99"), "draws"),
        (lambda s: s.replace("n_grid = 1000 1000000", "n_grid = 1000 10"), "increasing"),
        (lambda s: s.replace("q11 = 0.7", "q11 = 1.7"), "q11"),
        (lambda s: s.replace("seed = 17", "seed = -1"), "seed"),
        (lambda s: s + "\n[extra]\nx = 1\n", "section"),
    ],
)
def test_parse_config_rejections(tmp_path, mutate, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, mutate(GOOD_INI)))
    assert needle.lower() in str(err.value).lower()


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/exp.ini")


def test_config_hash_ignores_output_path_but_tracks_substance(tmp_path):
    base = parse_config(_write(tmp_path, GOOD_INI))
    with_out = parse_config(
        _write(tmp_path, GOOD_INI + "out = /tmp/somewhere.txt\n", "b.ini")
    )
    assert config_hash(base) == config_hash(with_out)
    reseeded = parse_config(
        _write(tmp_path, GOOD_INI.replace("seed = 17", "seed = 18"), "c.ini")
    )
    assert config_hash(base) != config_hash(reseeded)
    assert "out" not in canonical_text(base)
    assert len(config_hash(base)) == 64  # sha256 hex
    # frozen: the README example config and one that sets every optional key
    readme = parse_config(_write(tmp_path, README_INI, "readme.ini"))
    assert config_hash(readme) == (
        "27b996091f795590837637b7c08af04a4c8c3f233123fbfef4ca22e3dfd342cc"
    )
    full = parse_config(_write(tmp_path, FULL_INI, "full.ini"))
    assert config_hash(full) == (
        "40299902ef5964e29b2a08152f2dc2c72a0283b0d6bd16a616330c0e623b35cf"
    )


def test_report_bytes_are_deterministic(tmp_path):
    cfg = parse_config(_write(tmp_path, GOOD_INI))
    a = run_experiment(cfg).lines()
    b = run_experiment(cfg).lines()
    assert a == b
    # threads must never leak into the output
    c = run_experiment(cfg, threads=4).lines()
    assert a == c


def test_report_sidecar_holds_the_timestamp(tmp_path):
    cfg = parse_config(_write(tmp_path, GOOD_INI))
    report = run_experiment(cfg)
    out = tmp_path / "report.txt"
    report.write(str(out))
    body = out.read_text()
    assert "written_at" not in body
    meta = json.loads((tmp_path / "report.txt.meta.json").read_text())
    assert "written_at" in meta
    assert meta["report"].endswith("report.txt")
    # provenance in the body instead
    assert f"# config_hash={config_hash(cfg)}" in body
    assert "# seed=17" in body
    assert "# version=" in body


def test_report_rows_carry_stderr_or_exactness():
    cfg = ExperimentConfig(
        params=P, scaling=SC, kind=ExperimentKind.ZERO_ONE_LAW,
        n_grid=(100, 1000), draws=100, seed=1,
    )
    report = run_experiment(cfg)
    assert report.rows
    for row in report.rows:
        # every statistic is either exact or carries a Monte Carlo stderr
        assert row.exact or row.stderr is not None


@pytest.mark.parametrize("seed", [6, 46, 270, 271])
def test_kl_reconcile_passes_its_own_cdf_tolerance(seed):
    # These seeds draw parameter sets with gamma1 close to gamma0 (sd of
    # ln D down to 6e-7), where a one-ulp gap between the two laws' centres
    # would read as a cdf residual near 1e-9.
    cfg = ExperimentConfig(
        params=P, scaling=SC, kind=ExperimentKind.KL_RECONCILE,
        n_grid=(10**3, 10**6, 10**9), draws=100, seed=seed,
    )
    rows = [r for r in run_experiment(cfg).rows if r.statistic == "kl_cdf_resid_max"]
    assert len(rows) == 3
    assert all(r.passed for r in rows), [(r.n, r.value) for r in rows]


def test_zero_one_law_experiment_trends():
    sub = ExperimentConfig(
        params=P, scaling=Scaling(rho=2.0), kind=ExperimentKind.ZERO_ONE_LAW,
        n_grid=(100, 1000, 10000), draws=100, seed=1,
    )
    rep = run_experiment(sub)
    p0 = [r.value for r in rep.rows if r.statistic == "p0"]
    assert len(p0) == 3
    assert p0[0] < p0[1] < p0[2]
    assert rep.all_passed()

    sup = ExperimentConfig(
        params=P, scaling=SC, kind=ExperimentKind.ZERO_ONE_LAW,
        n_grid=(100, 1000, 10000), draws=100, seed=1,
    )
    p0s = [r.value for r in run_experiment(sup).rows if r.statistic == "p0"]
    assert p0s[0] > p0s[1] > p0s[2]


def test_boundary_scaling_is_refused():
    lgbar = -0.87166202161131311
    cfg = ExperimentConfig(
        params=P, scaling=Scaling(rho=-1.0 / lgbar),
        kind=ExperimentKind.ZERO_ONE_LAW, n_grid=(100, 1000), draws=100, seed=1,
    )
    with pytest.raises(RegimeError):
        run_experiment(cfg)


def test_invalid_config_objects_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(params=P, scaling=SC, kind=ExperimentKind.DEGREE_FIT,
                         n_grid=(), draws=100, seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(params=P, scaling=SC, kind=ExperimentKind.DEGREE_FIT,
                         n_grid=(30,), draws=99, seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(params=P, scaling=SC, kind=ExperimentKind.DEGREE_FIT,
                         n_grid=(30, 30), draws=100, seed=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(params=P, scaling=SC, kind=ExperimentKind.LAMBDA_PROBE,
                         n_grid=(100,), draws=100, seed=1, t_values=(0.0,))


def test_sup_delta_estimator_separates_the_zero_atom():
    samples = sample_degrees_direct(P, 10**6, 14, 20000, seed=9)
    sd = empirical_sup_delta(samples, SC)
    assert sd.n_total == 20000
    assert sd.n_nonzero == sd.n_total - int(round(sd.zero_fraction * sd.n_total))
    assert sd.sup_delta == max(sd.zero_fraction, sd.ks_nonzero) or (
        sd.sup_delta == sd.ks_nonzero
    )
    assert 0.0 < sd.sup_delta < 1.0
    assert sd.proxy == pytest.approx(
        math.sqrt(math.log(2 / 0.05) / (2 * sd.n_nonzero)), rel=1e-12
    )


def test_sup_delta_shrinks_with_n():
    small = empirical_sup_delta(sample_degrees_direct(P, 10**3, 7, 20000, seed=4), SC)
    large = empirical_sup_delta(sample_degrees_direct(P, 10**6, 14, 20000, seed=4), SC)
    assert large.sup_delta < small.sup_delta


def test_sup_delta_rejects_degenerate_samples():
    flat = ModelParams(q11=0.4, q10=0.4, q00=0.4, mu1=0.6)
    samples = sample_degrees_direct(P, 100, 5, 150, seed=2)
    with pytest.raises(RegimeError):
        # sigma = 0: no continuous reference law to compare against
        empirical_sup_delta(
            sample_degrees_direct(flat, 100, 5, 150, seed=2), SC
        )
    with pytest.raises(RegimeError):
        empirical_sup_delta(samples, Scaling(rho=2.0))


def test_degree_fit_experiment_passes_at_desk_scale():
    cfg = ExperimentConfig(
        params=P, scaling=SC, kind=ExperimentKind.DEGREE_FIT,
        n_grid=(30,), draws=20000, seed=3, graph_draws=5000,
    )
    rep = run_experiment(cfg)
    stats_seen = {r.statistic for r in rep.rows}
    assert {"tv_direct", "tv_fullgraph", "chisq_p_direct", "ks2_p"} <= stats_seen
    assert rep.all_passed()
