"""Experiment configs, canonical hashing, report determinism, sup-delta."""

import json
import math
import re
from pathlib import Path

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
    _rng,
    run_experiment,
    sample_degrees_direct,
    sample_degrees_fullgraph,
)
from magnet import experiments
from magnet.degree_dist import DegreePmfTable
from magnet.experiments import _EXPERIMENT_FIELDS
from magnet.stats import tv_limit, tv_to_exact, two_sample_ks

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
"""

# The example config of the README.
README_INI = """\
[model]
q11 = 0.7
q10 = 0.2
q00 = 0.5
mu1 = 0.6

[scaling]
rho = 1.0          ; L_n = round(rho * ln n), half up, at least 1

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

[experiment]
kind = degree_fit
n_grid = 30 300
draws = 400
seed = 11
out = report.csv
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


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda s: s.replace("[scaling]\nrho = 1.0\n", ""), "missing"),
        (lambda s: s.replace("kind = kl_reconcile", "kind = no_such_kind"), "kind"),
        (lambda s: s + "unknown_key = 3\n", "unknown"),
        # a pass threshold is fixed or derived from the draws, not a key
        (lambda s: s + "tolerance = 0.07\n", "tolerance"),
        # the Berry-Esseen constant is fixed at its best proven value
        (lambda s: s + "c_star = 0.5\n", "c_star"),
        # one attribute-count rule and fixed experiment sizes, not keys
        pytest.param(lambda s: s.replace("rho = 1.0\n", "rho = 1.0\nrounding = ceil\n"),
                     "unknown", id="rounding"),
        pytest.param(lambda s: s + "graph_draws = 250\n", "unknown", id="graph_draws"),
        pytest.param(lambda s: s + "t_values = 0.5 2.0\n", "unknown", id="t_values"),
        pytest.param(lambda s: s + "param_sets = 4\n", "unknown", id="param_sets"),
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


def test_parse_config_skips_a_byte_order_mark(tmp_path):
    # editors on some systems save UTF-8 with a leading BOM; it is not part of
    # the first section header
    bom = tmp_path / "bom.ini"
    bom.write_bytes(b"\xef\xbb\xbf" + GOOD_INI.encode())
    assert parse_config(str(bom)) == parse_config(_write(tmp_path, GOOD_INI))


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
    # frozen: the README example config and one that sets every optional key.
    # Re-pinned when experiment.c_star left the canonical text:
    # readme 522327fe…942c -> c04c388b…8911, full d44170f1…c406 -> cce19d41…ae16;
    # and when scaling.rounding, experiment.graph_draws, experiment.t_values
    # and experiment.param_sets left it:
    # readme c04c388b…8911 -> 5afb3f1d…2cd4, full cce19d41…ae16 -> fddf01ce…2d57
    readme = parse_config(_write(tmp_path, README_INI, "readme.ini"))
    assert config_hash(readme) == (
        "5afb3f1d240f13f2eb86ae81749b8c9814fea8a41c7dff14727f12efba212cd4"
    )
    full = parse_config(_write(tmp_path, FULL_INI, "full.ini"))
    assert config_hash(full) == (
        "fddf01ceed4f4ad5fa5d8f789cd22bc8bfa0599b4333b79ef526f25394de2d57"
    )


def test_a_config_built_in_python_hashes_as_its_ini(tmp_path):
    # numpy scalars, an int rho and a list n_grid are stored as the INI
    # parser stores them: Python ints and floats, and a tuple
    built = ExperimentConfig(
        params=ModelParams(np.float64(0.7), 0.2, np.float32(0.5), 0.6), scaling=Scaling(1),
        kind=ExperimentKind.KL_RECONCILE, n_grid=[1000, np.int64(1000000)],
        draws=np.int64(100), seed=np.uint64(17))
    assert built.n_grid == (1000, 1000000) and type(built.n_grid) is tuple
    assert canonical_text(built) == canonical_text(parse_config(_write(tmp_path, GOOD_INI)))
    assert config_hash(built) == config_hash(parse_config(_write(tmp_path, GOOD_INI)))


def _built(**fields) -> ExperimentConfig:
    """GOOD_INI's config built in Python, with ``fields`` replaced."""
    return ExperimentConfig(**{"params": P, "scaling": SC, "kind": ExperimentKind.KL_RECONCILE,
                               "n_grid": (1000, 1000000), "draws": 100, "seed": 17, **fields})


def test_a_config_refuses_an_n_grid_that_is_not_a_sequence():
    for n_grid in (5, None, {1000, 1000000}):
        with pytest.raises(ConfigError, match="n_grid must be a sequence of integers"):
            _built(n_grid=n_grid)


def test_a_config_stores_its_kind_as_an_experiment_kind(tmp_path):
    # a kind given by its INI text runs and hashes as the INI-built config
    built = _built(kind="kl_reconcile")
    assert built.kind is ExperimentKind.KL_RECONCILE
    assert canonical_text(built) == canonical_text(parse_config(_write(tmp_path, GOOD_INI)))
    assert run_experiment(built).kind is ExperimentKind.KL_RECONCILE
    for kind in ("zero_one", None, 3):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            _built(kind=kind)


def test_a_config_refuses_params_and_scaling_of_other_types():
    for fields in ({"params": None}, {"params": (0.7, 0.2, 0.5, 0.6)}, {"scaling": 1.0},
                   {"scaling": None}, {"params": SC, "scaling": P}):
        with pytest.raises(ConfigError, match="must be a (ModelParams|Scaling), got"):
            _built(**fields)


def test_report_bytes_are_deterministic(tmp_path):
    cfg = parse_config(_write(tmp_path, GOOD_INI))
    a = run_experiment(cfg).lines()
    b = run_experiment(cfg).lines()
    assert a == b


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


def test_grid_point_seeds_come_from_keyed_streams():
    # the draws at grid point n use word n of the stream keyed by
    # (seed, TAG_GRID_DIRECT), and degree_fit's graph draws word n of
    # (seed, TAG_GRID_GRAPH)
    def grid_seed(seed, tag, n):
        return _rng.word_at(_rng.stream_key(seed, tag), n)

    cfg = ExperimentConfig(params=P, scaling=SC, kind=ExperimentKind.LOGNORMAL_KS,
                           n_grid=(10**3, 10**4), draws=2000, seed=5)
    rows = {(r.n, r.statistic): r.value for r in run_experiment(cfg).rows}
    for n in cfg.n_grid:
        draws = sample_degrees_direct(P, n, SC.attr_count(n), 2000,
                                      seed=grid_seed(5, _rng.TAG_GRID_DIRECT, n))
        sd = empirical_sup_delta(draws, SC)
        assert rows[(n, "zero_fraction")] == sd.zero_fraction
        assert rows[(n, "ks_nonzero")] == sd.ks_nonzero
    fit = ExperimentConfig(params=P, scaling=SC, kind=ExperimentKind.DEGREE_FIT,
                           n_grid=(30,), draws=400, seed=5)
    ks2_p = next(r.value for r in run_experiment(fit).rows if r.statistic == "ks2_p")
    direct = sample_degrees_direct(P, 30, SC.attr_count(30), 400,
                                   seed=grid_seed(5, _rng.TAG_GRID_DIRECT, 30))
    graph = sample_degrees_fullgraph(P, 30, SC.attr_count(30), 100,
                                     seed=grid_seed(5, _rng.TAG_GRID_GRAPH, 30))
    assert ks2_p == two_sample_ks(direct.degrees, graph.degrees)[1]


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


@pytest.mark.parametrize("seed", [6, 46, 270, 271, 2191, 3849, 11183, 15518])
def test_kl_reconcile_passes_its_own_cdf_tolerance(seed):
    # Seeds 2191, 3849, 11183 and 15518 draw parameter sets with gamma1
    # close to gamma0 (|ln(gamma1/gamma0)| down to 7.5e-7), where centring
    # the law at m_kl - sigma2_kl/2, an ulp or two off, reads as a cdf
    # residual of 3e-11 to 2e-10; the first four draw ordinary sets.
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


@pytest.mark.parametrize("kind", [ExperimentKind.LOGNORMAL_KS, ExperimentKind.LAMBDA_PROBE])
@pytest.mark.parametrize("rho,needle", [(1.0, "sigma = 0"), (2.0, "supercritical")])
def test_log_normal_limit_is_decided_before_any_draw(kind, rho, needle, monkeypatch):
    # q11 = q10 = q00 gives gamma0 = gamma1, so sigma = 0 (at rho = 2 the set
    # is also subcritical): the grid is refused before 4e5 draws at n = 1e6
    def no_draw(*args, **kwargs):
        raise AssertionError("drew degrees before deciding the log-normal limit")

    monkeypatch.setattr(experiments, "sample_degrees_direct", no_draw)
    cfg = ExperimentConfig(params=ModelParams(0.4, 0.4, 0.4, 0.6), scaling=Scaling(rho=rho),
                           kind=kind, n_grid=(10**6, 10**7), draws=400000, seed=1)
    with pytest.raises(RegimeError, match=needle):
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


def test_degree_fit_finishes_when_its_chi_square_has_one_bin():
    # rho = 4 is deep in the subcritical regime: nearly every draw is 0, so
    # one merged bin holds them all and fits them exactly
    cfg = ExperimentConfig(params=P, scaling=Scaling(rho=4.0), kind=ExperimentKind.DEGREE_FIT,
                           n_grid=(100, 200), draws=400, seed=3)
    chi_p = [r.value for r in run_experiment(cfg).rows if r.statistic == "chisq_p_direct"]
    assert chi_p == [1.0, 1.0]


def test_lognormal_ks_finishes_when_every_draw_is_zero():
    cfg = ExperimentConfig(params=ModelParams(q11=0.02, q10=0.01, q00=0.01, mu1=0.5),
                           scaling=Scaling(rho=0.1), kind=ExperimentKind.LOGNORMAL_KS,
                           n_grid=(2, 3), draws=100, seed=3)
    rows = {(r.n, r.statistic): r for r in run_experiment(cfg).rows}
    assert rows[2, "zero_fraction"].value == 1.0
    # the limit puts no mass at 0: the distance is the zero atom, exactly 1
    assert rows[2, "sup_delta"].value == 1.0
    assert rows[2, "ks_nonzero"].value == 0.0
    assert rows[2, "sup_delta"].stderr == math.sqrt(math.log(2 / 0.05) / (2 * 100))


def test_degree_fit_experiment_passes_at_desk_scale():
    # The TV limits derived from these draw counts are 0.0099 (direct) and
    # 0.020 (full graph); this seed's exact samplers read 0.0027 and 0.0036.
    cfg = ExperimentConfig(
        params=P, scaling=SC, kind=ExperimentKind.DEGREE_FIT,
        n_grid=(30,), draws=100000, seed=3,
    )
    rep = run_experiment(cfg)
    stderr = {r.statistic: r.stderr for r in rep.rows}
    assert {"tv_direct", "tv_fullgraph", "chisq_p_direct", "ks2_p"} <= set(stderr)
    # a TV row's stderr is the Efron-Stein bound 1/sqrt(2N) on TV's sd
    assert stderr["tv_direct"] == 1.0 / math.sqrt(2.0 * 100000)
    # degree_fit samples max(100, draws // 4) = 25000 full graphs
    assert stderr["tv_fullgraph"] == 1.0 / math.sqrt(2.0 * 25000)
    assert rep.all_passed()


@pytest.mark.parametrize("seed", range(5))
def test_degree_fit_passes_at_bench_scale(seed):
    # the benchmark's degree_fit sizes: 5000 direct and 1250 full-graph draws,
    # where fixed TV limits of 0.01 and 0.02 failed correct samplers
    cfg = ExperimentConfig(params=P, scaling=SC, kind=ExperimentKind.DEGREE_FIT,
                           n_grid=(1000, 2000), draws=5000, seed=seed)
    rep = run_experiment(cfg)
    assert rep.all_passed(), [(r.n, r.statistic, r.value) for r in rep.rows]


@pytest.mark.parametrize("n", [30, 1000, 2000])
def test_tv_limit_rejects_draws_at_the_wrong_attribute_count(n):
    # direct draws made at l + 1 against the law at l: TV about 0.3, far
    # above the limit, while draws at l stay below it
    l = SC.attr_count(n)
    table = DegreePmfTable.from_model(P, n, l)
    for draw_l, want in ((l, True), (l + 1, False)):
        d = sample_degrees_direct(P, n, draw_l, 5000, seed=8).degrees
        exact = np.asarray(table.pmf(np.arange(int(d.max()) + 1)))
        assert (tv_to_exact(d, exact) <= tv_limit(exact, len(d))) is want


def test_readme_lists_every_optional_experiment_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Optional keys \((.*?)\)", readme, flags=re.S)
    assert sentence, "README lost its list of optional [experiment] keys"
    optional = set(re.findall(r"`(\w+)`", sentence.group(1)))
    required = {"kind", "n_grid", "draws", "seed"}
    assert optional | required == {f.name for f in _EXPERIMENT_FIELDS}
    assert not optional & required
