"""Parameter objects, derived constants, regime classification, scalings.

Frozen reference values were recomputed independently with 40-digit
arithmetic (mpmath) for the reference parameters q11=0.7, q10=0.2,
q00=0.5, mu1=0.6.
"""

import dataclasses
import functools
import io
import json
import math

import numpy as np
import pytest

import magnet.model as model

from magnet import (
    BOUNDARY_TOL,
    REFERENCE_PARAMS,
    BudgetError,
    DegreePmfTable,
    ExperimentConfig,
    ExperimentKind,
    InvalidParamsError,
    LogNormalSpec,
    ModelParams,
    Regime,
    RegimeError,
    Scaling,
    berry_esseen_bound,
    cdf_approx,
    classify_regime,
    derive_constants,
    empirical_sup_delta,
    lambda_limit_probe,
    lognormal_cdf,
    optimize_bound,
    psi,
    ratio_concentration_bound,
    sample_degrees_direct,
    sample_degrees_fullgraph,
    sample_graph,
    std_normal_cdf,
    transform_degree,
    write_degrees_csv,
    write_edge_list,
    write_pmf_csv,
)
from magnet.model import _rows, _write_out
from magnet.stats import (
    chi_square_gof, dkw_proxy, ks_statistic, tv_limit, tv_to_exact, two_sample_ks,
)

# 40-digit recomputation, rounded to nearest float64:
SIGMA = 0.21863513604494742
SIGMA2 = 0.047801322713392668
LOG_GAMMA_BAR = -0.87166202161131311
KAPPA_RHO_1 = 0.12833797838868689   # 1 + 1.0 * LOG_GAMMA_BAR
KAPPA_RHO_2 = -0.74332404322262623  # 1 + 2.0 * LOG_GAMMA_BAR


def test_reference_constants_match_high_precision_recomputation():
    c = derive_constants(REFERENCE_PARAMS)
    assert c.gamma1 == pytest.approx(0.50, rel=1e-15)
    assert c.gamma0 == pytest.approx(0.32, rel=1e-15)
    assert c.sigma0 == pytest.approx(math.sqrt(0.24), rel=1e-15)
    assert c.sigma == pytest.approx(SIGMA, rel=1e-14)
    assert c.sigma**2 == pytest.approx(SIGMA2, rel=1e-14)
    assert c.log_gamma_bar == pytest.approx(LOG_GAMMA_BAR, rel=1e-14)
    assert c.r == pytest.approx(0.50 / 0.32, rel=1e-15)
    assert c.r * (c.gamma0 / c.gamma1) == pytest.approx(1.0, rel=1e-15)


def test_kappa_frozen_values():
    assert classify_regime(REFERENCE_PARAMS, 1.0).kappa == pytest.approx(KAPPA_RHO_1, rel=1e-13)
    assert classify_regime(REFERENCE_PARAMS, 2.0).kappa == pytest.approx(KAPPA_RHO_2, rel=1e-13)


def test_regime_classification_signs():
    assert classify_regime(REFERENCE_PARAMS, 1.0).regime is Regime.SUPERCRITICAL
    assert classify_regime(REFERENCE_PARAMS, 2.0).regime is Regime.SUBCRITICAL
    # rho exactly at -1/lgbar lands on the boundary
    rho_star = -1.0 / LOG_GAMMA_BAR
    res = classify_regime(REFERENCE_PARAMS, rho_star)
    assert abs(res.kappa) <= BOUNDARY_TOL
    assert res.regime is Regime.BOUNDARY


def test_kappa_scales_linearly_in_rho():
    c = derive_constants(REFERENCE_PARAMS)
    for scale in (0.25, 0.5, 1.0, 3.0, 7.7):
        kappa = classify_regime(REFERENCE_PARAMS, scale).kappa
        assert abs(kappa - (1.0 + scale * c.log_gamma_bar)) < 1e-12


def _draws(params: ModelParams, scaling: Scaling):
    return sample_degrees_direct(params, 1000, scaling.attr_count(1000), 200, 0)


#: Every entry point of the log-normal limit, called at n = 1000 (and on
#: 200 direct draws at L_n where it reads draws).
_LOGNORMAL_ENTRY_POINTS = {
    "transform_degree": lambda p, s: transform_degree(5, 1000, s, p),
    "cdf_approx": lambda p, s: cdf_approx(5.0, 1000, s, p),
    "lambda_limit_probe": lambda p, s: lambda_limit_probe(1.0, _draws(p, s), s),
    "berry_esseen_bound": lambda p, s: berry_esseen_bound(p, 1000, s, 0.5),
    "optimize_bound": lambda p, s: optimize_bound(p, 1000, s),
    "empirical_sup_delta": lambda p, s: empirical_sup_delta(_draws(p, s), s),
}


@pytest.mark.parametrize("entry", _LOGNORMAL_ENTRY_POINTS)
@pytest.mark.parametrize("params, rho, match", [
    (REFERENCE_PARAMS, 2.0, "is subcritical"),
    (REFERENCE_PARAMS, -1.0 / LOG_GAMMA_BAR, "is boundary"),
    (ModelParams(q11=0.4, q10=0.4, q00=0.4, mu1=0.6), 1.0, "sigma = 0"),  # gamma0 = gamma1
], ids=["subcritical", "boundary", "sigma0"])
def test_lognormal_entry_points_need_a_nondegenerate_supercritical_limit(entry, params, rho, match):
    call = _LOGNORMAL_ENTRY_POINTS[entry]
    call(REFERENCE_PARAMS, Scaling(1.0))  # supercritical with sigma != 0: passes
    with pytest.raises(RegimeError, match=match):
        call(params, Scaling(rho))


def test_sigma_sign_follows_gamma_ordering():
    # gamma1 < gamma0 here: sigma negative, |sigma| still the law's scale
    p = ModelParams(q11=0.2, q10=0.3, q00=0.9, mu1=0.5)
    c = derive_constants(p)
    assert c.gamma1 < c.gamma0
    assert c.sigma < 0.0
    flat = ModelParams(q11=0.4, q10=0.4, q00=0.4, mu1=0.3)
    assert derive_constants(flat).sigma == 0.0


def test_gammas_are_convex_combinations():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q11, q10, q00, mu1 = rng.uniform(0.01, 0.99, size=4)
        c = derive_constants(ModelParams(q11=q11, q10=q10, q00=q00, mu1=mu1))
        assert 0.0 < c.gamma0 < 1.0 and 0.0 < c.gamma1 < 1.0
        assert min(q11, q10) <= c.gamma1 <= max(q11, q10)
        assert min(q10, q00) <= c.gamma0 <= max(q10, q00)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(q11=0.0, q10=0.2, q00=0.5, mu1=0.6),
        dict(q11=1.0, q10=0.2, q00=0.5, mu1=0.6),
        dict(q11=0.7, q10=-0.1, q00=0.5, mu1=0.6),
        dict(q11=0.7, q10=0.2, q00=0.5, mu1=0.0),
        dict(q11=0.7, q10=0.2, q00=0.5, mu1=1.0),
        dict(q11=float("nan"), q10=0.2, q00=0.5, mu1=0.6),
        dict(q11=0.7, q10=0.2, q00=float("inf"), mu1=0.6),
    ],
)
def test_params_outside_open_unit_interval_rejected(kwargs):
    with pytest.raises(InvalidParamsError):
        ModelParams(**kwargs)


@functools.cache
def _table() -> DegreePmfTable:
    return DegreePmfTable.from_model(REFERENCE_PARAMS, 1000, 7)  # L_n = 7 at rho = 1


def _config(**fields) -> ExperimentConfig:
    return ExperimentConfig(**{"params": REFERENCE_PARAMS, "scaling": Scaling(1.0),
                               "kind": ExperimentKind.KL_RECONCILE, "n_grid": (1000,),
                               "draws": 100, "seed": 0, **fields})


#: Values that no integer input takes, whatever its range.
_NOT_INTS = [True, 2.5, "3"]

#: Every input of the library with a range, scalar or array-or-scalar: a call
#: passing v as that input (all other arguments valid), the values at or past
#: the ends of its range, and values inside it; np.int64, np.int32 and
#: np.uint64 copies of the first inside value are tried too when it is an int,
#: np.float64 and np.float32 copies otherwise.  A range with no upper end
#: lists 10**400 inside it.
_RANGED_INPUTS = {
    **{f"ModelParams.{f}": (
        lambda v, f=f: dataclasses.replace(REFERENCE_PARAMS, **{f: v}), [0, 1, -1.0], [0.5])
       for f in ("q11", "q10", "q00", "mu1")},
    "Scaling.rho": (lambda v: Scaling(v), [0, -1.0], [0.5, 3]),
    "classify_regime.rho": (lambda v: classify_regime(REFERENCE_PARAMS, v), [0, -1.0], [0.5]),
    "berry_esseen_bound.delta": (
        lambda v: berry_esseen_bound(REFERENCE_PARAMS, 1000, Scaling(1.0), v),
        [0, 1, -1.0], [0.5]),
    "berry_esseen_bound.eta": (
        lambda v: berry_esseen_bound(REFERENCE_PARAMS, 1000, Scaling(1.0), 0.5, v),
        [0, 0.6, -1.0], [0.3, None]),  # None: the default eta
    "ratio_concentration_bound.delta": (
        lambda v: ratio_concentration_bound(REFERENCE_PARAMS, 1000, 7, v, 0.1),
        [0, -1.0], [0.5, 7.0]),
    "ratio_concentration_bound.eta": (
        lambda v: ratio_concentration_bound(REFERENCE_PARAMS, 1000, 7, 0.5, v),
        [0, 0.6, -1.0], [0.3]),
    "DegreePmfTable.quantile.q": (lambda v: _table().quantile(v), [0, 1, -1.0], [0.5]),
    "lambda_limit_probe.t": (
        lambda v: lambda_limit_probe(
            v, sample_degrees_direct(REFERENCE_PARAMS, 1000, 7, 10, 0), Scaling(1.0)),
        [0, -1.0], [0.5]),
    "LogNormalSpec.m": (lambda v: LogNormalSpec(v, 1.0), [], [-1.0]),
    "LogNormalSpec.sigma2": (lambda v: LogNormalSpec(0.0, v), [-1.0, np.array([1.0, 2.0])],
                             [1.0, 0.0]),
    **{f"DegreePmfTable.{m}.d": (
        lambda v, m=m: getattr(_table(), m)(v), [-1, 1000, 0.5, "3", ["2"]],
        [3.0, 0, 999, [0, 999]])
       for m in ("pmf", "log_pmf", "cdf")},
    # the array-or-scalar inputs below, checked by model._as_reals: finite
    # values in a closed range, nonempty arrays of bool, int or float dtype
    "transform_degree.d": (lambda v: transform_degree(v, 1000, Scaling(1.0), REFERENCE_PARAMS),
                           [-1.0, -5e-324, [1.0, -1.0]], [5.0, 0, 1e300, [0, 5]]),
    "cdf_approx.t": (lambda v: cdf_approx(v, 1000, Scaling(1.0), REFERENCE_PARAMS),
                     [-1.0, -5e-324, [1.0, -1.0]], [5.0, 0, 1e300, [0, 5]]),
    "lognormal_cdf.x": (lambda v: lognormal_cdf(v, LogNormalSpec(0.0, 1.0)),
                        [], [2.0, -1.0, 0, [-1e300, 1e300]]),
    "std_normal_cdf.z": (std_normal_cdf, [], [0.5, -40.0, [-1e300, 1e300]]),
    "psi.x": (psi, [-1, -1.5, [0.5, -1.0]], [0.5, math.nextafter(-1.0, 0.0), [0, 1e300]]),
    **{f"{name}.draws": (call, [-1, 2.5, *ends], [[0, 1, 2] * 7, *inside])
       for name, call, ends, inside in (
        ("tv_to_exact", lambda v: tv_to_exact(v, [0.5, 0.5]), [[0, -1]], [7, [0, 3]]),
        ("chi_square_gof", lambda v: chi_square_gof(v, [0.5, 0.5]), [-5, [0, -1]], []),
    )},
    **{f"{name}.pmf_prefix": (call, [-0.1, 1.5, [0.5, 1.5]], [[0.3, 0.3, 0.4], 0.5, [0, 1]])
       for name, call in (
        ("tv_to_exact", lambda v: tv_to_exact([0, 1, 2] * 7, v)),
        ("tv_limit", lambda v: tv_limit(v, 100)),
        ("chi_square_gof", lambda v: chi_square_gof([0, 1, 2] * 7, v)),
    )},
    "tv_limit.n": (lambda v: tv_limit([0.5, 0.5], v), [0, -5, 2.5, True, 2**53 + 1], [100, 1]),
    # the integer inputs below: ints or numpy integers, never bools, in a
    # closed range
    "Scaling.attr_count.n": (lambda v: Scaling(1.0).attr_count(v), [1, *_NOT_INTS],
                             [1000, 2, 10**400]),
    "DegreePmfTable.from_model.n": (lambda v: DegreePmfTable.from_model(REFERENCE_PARAMS, v, 7),
                                    [1, 2**53 + 1, *_NOT_INTS], [1000]),
    "DegreePmfTable.from_model.l": (
        lambda v: DegreePmfTable.from_model(REFERENCE_PARAMS, 1000, v),
        [0, 2**53 + 1, *_NOT_INTS], [7]),
    "write_pmf_csv.d_max": (lambda v: write_pmf_csv(io.StringIO(), REFERENCE_PARAMS, 1000, 7, v),
                            [-1, 1000, *_NOT_INTS], [5, 0, 999, None]),  # None: the default
    "sample_graph.n": (lambda v: sample_graph(REFERENCE_PARAMS, v, 4, 0),
                       [1, 2**53 + 1, *_NOT_INTS], [30]),
    "sample_graph.l": (lambda v: sample_graph(REFERENCE_PARAMS, 30, v, 0),
                       [0, 2**53 + 1, *_NOT_INTS], [4]),
    "sample_graph.seed": (lambda v: sample_graph(REFERENCE_PARAMS, 30, 4, v),
                          [-1, 2**64, *_NOT_INTS], [7, 2**64 - 1]),
    "sample_graph.pair_budget": (lambda v: sample_graph(REFERENCE_PARAMS, 30, 4, 0, v),
                                 [0, -1, *_NOT_INTS], [435, 10**400]),  # 435 pairs at n = 30
    "sample_degrees_fullgraph.count": (
        lambda v: sample_degrees_fullgraph(REFERENCE_PARAMS, 30, 4, v, 0),
        [0, 2**53 + 1, *_NOT_INTS], [3]),
    "sample_degrees_direct.count": (
        lambda v: sample_degrees_direct(REFERENCE_PARAMS, 1000, 7, v, 0),
        [0, 2**53 + 1, *_NOT_INTS], [10]),
    "sample_degrees_direct.seed": (
        lambda v: sample_degrees_direct(REFERENCE_PARAMS, 1000, 7, 10, v),
        [-1, 2**64, *_NOT_INTS], [7, 2**64 - 1]),
    "ratio_concentration_bound.n": (
        lambda v: ratio_concentration_bound(REFERENCE_PARAMS, v, 7, 0.5, 0.1),
        [1, *_NOT_INTS], [1000, 10**400]),
    "ratio_concentration_bound.l": (
        lambda v: ratio_concentration_bound(REFERENCE_PARAMS, 1000, v, 0.5, 0.1),
        [0, 2**53 + 1, *_NOT_INTS], [7]),
    "dkw_proxy.n": (dkw_proxy, [0, 2**53 + 1, *_NOT_INTS], [100]),
    "ExperimentConfig.draws": (lambda v: _config(draws=v), [99, *_NOT_INTS], [100, 10**400]),
    "ExperimentConfig.seed": (lambda v: _config(seed=v), [-1, 2**64, *_NOT_INTS], [0, 2**64 - 1]),
    "ExperimentConfig.n_grid": (lambda v: _config(n_grid=[v]), [1, *_NOT_INTS],
                                [1000, 10**400]),
    "ks_statistic.samples": (
        lambda v: ks_statistic(v, lambda x: lognormal_cdf(x, LogNormalSpec(0.0, 1.0))),
        [], [[0.5, 2.0], -3.0, [5e-324]]),
    "two_sample_ks.x": (lambda v: two_sample_ks(v, [1.0, 2.0]), [], [[0.5, 3.0], 2]),
    "two_sample_ks.y": (lambda v: two_sample_ks([1.0, 2.0], v), [], [[0.5, 3.0], 2]),
}


@pytest.mark.parametrize("name", _RANGED_INPUTS)
def test_every_ranged_scalar_input_refuses_what_its_range_excludes(name):
    # non-numbers, nan, +-inf, an int past the double range, arrays with a
    # nan, of no element, of objects or of strings, and the ends all raise
    # InvalidParamsError, never OverflowError, TypeError or numpy's errors;
    # numpy scalars inside the range pass
    call, ends, inside = _RANGED_INPUTS[name]
    bad = [math.nan, math.inf, -math.inf, "0.5", [1, math.nan], [],
           np.array([0.5], dtype=object), ["3"], *ends]
    escaped = []
    for v in bad + [v for v in (10**400, None) if v not in inside]:
        try:
            call(v)
        except InvalidParamsError:
            continue
        except Exception as exc:
            escaped.append((v, type(exc).__name__))
        else:
            escaped.append((v, "accepted"))
    assert escaped == []
    ints = isinstance(inside[0], int)
    kinds = (np.int64, np.int32, np.uint64) if ints else (np.float64, np.float32)
    for v in [*inside, *(kind(inside[0]) for kind in kinds)]:
        call(v)


def test_a_numpy_node_count_meets_the_pair_budget_as_a_python_int():
    # in int64, n (n - 1) // 2 wraps to -4294967296 at n = 2**33
    with pytest.raises(BudgetError, match="^36893488143124135936 node pairs exceed"):
        sample_graph(REFERENCE_PARAMS, np.int64(2**33), 4, 0)


def test_numpy_scalars_are_kept_as_python_ints_and_floats():
    values = (0.7, 0.2, 0.5, 0.6)
    as_f64 = ModelParams(*map(np.float64, values))
    assert all(type(x) is float for x in dataclasses.astuple(as_f64))
    for write, sample in (
            (write_edge_list, lambda p: sample_graph(p, 30, 4, np.uint64(5))),
            (write_degrees_csv, lambda p: sample_degrees_direct(p, 1000, 7, 10, np.int64(5)))):
        texts = []
        for params in (REFERENCE_PARAMS, as_f64):
            buf = io.StringIO()
            write(sample(params), buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
        assert "# q11=0.7 q10=0.2 q00=0.5 mu1=0.6\n# n=" in texts[0]
    # float32 parameters are widened before any arithmetic
    as_f32 = ModelParams(*map(np.float32, values))
    widened = ModelParams(*(float(np.float32(v)) for v in values))
    assert ([float.hex(x) for x in dataclasses.astuple(derive_constants(as_f32))]
            == [float.hex(x) for x in dataclasses.astuple(derive_constants(widened))])
    cert = berry_esseen_bound(REFERENCE_PARAMS, np.int64(1000), Scaling(np.float32(1.0)),
                              np.float32(0.5))
    json.dumps(dataclasses.asdict(cert))
    assert (type(cert.n), type(cert.delta), type(cert.eta)) == (int, float, float)
    assert Scaling(1).rho == 1.0 and repr(classify_regime(REFERENCE_PARAMS, 2).rho) == "2.0"


def test_scaling_attr_count_examples():
    # rho=1, n=8: x = ln 8 = 2.079..., half-up round -> 2
    sc = Scaling(rho=1.0)
    l, rho_n = sc.attr_count(8), sc.rho_n(8)
    assert l == 2
    assert rho_n == pytest.approx(2.0 / math.log(8), rel=1e-15)
    assert rho_n == pytest.approx(0.96179669392597560, rel=1e-13)
    # rho=0.5, n=2: x = 0.346..., round -> 0, clamped to 1; rho_n = 1/ln 2
    sc = Scaling(rho=0.5)
    l, rho_n = sc.attr_count(2), sc.rho_n(2)
    assert l == 1
    assert rho_n == pytest.approx(1.44269504088896341, rel=1e-13)
    # the clamp keeps >= 1 attribute
    assert Scaling(rho=0.1).attr_count(2) == 1


def test_attr_count_rounds_half_up():
    s_round = Scaling(rho=1.0)
    # ln 100 = 4.605...: round 5
    assert s_round.attr_count(100) == 5
    # half-up tie handling: target exactly k + 0.5 rounds up
    n_half = math.ceil(math.exp(2.5))
    x = 1.0 * math.log(n_half)
    if abs(x - 2.5) < 1e-9:  # only assert when the tie is actually hit
        assert s_round.attr_count(n_half) == 3
    s_tie = Scaling(rho=2.5 / math.log(3))
    assert s_tie.rho * math.log(3) == 2.5  # an exact tie in doubles
    assert s_tie.attr_count(3) == 3


def test_attr_count_stays_within_one_of_target():
    s = Scaling(rho=1.3)
    for n in (2, 5, 17, 1000, 10**6, 10**9):
        l = s.attr_count(n)
        assert l >= 1
        assert abs(l - 1.3 * math.log(n)) <= 1.0
        assert s.rho_n(n) * math.log(n) == pytest.approx(l, rel=1e-15)


def test_scaling_validation():
    with pytest.raises(InvalidParamsError):
        Scaling(rho=0.0)
    with pytest.raises(InvalidParamsError):
        Scaling(rho=-2.0)
    with pytest.raises(InvalidParamsError):
        Scaling(rho=1.0).attr_count(1)
    with pytest.raises(InvalidParamsError):
        Scaling(rho=1.0).attr_count(2.5)
    # rho * ln n overflows to inf: refused, not an OverflowError
    with pytest.raises(InvalidParamsError, match="overflows"):
        Scaling(rho=1e308).attr_count(1000)


def test_classify_regime_rejects_bad_rho():
    with pytest.raises(InvalidParamsError):
        classify_regime(REFERENCE_PARAMS, 0.0)
    with pytest.raises(InvalidParamsError):
        classify_regime(REFERENCE_PARAMS, float("nan"))


@pytest.mark.parametrize("block", [3, 7])
def test_rows_match_per_row_formatting_in_blocks(monkeypatch, block):
    monkeypatch.setattr(model, "_WRITE_BLOCK", block)
    rng = np.random.default_rng(block)
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3]
    for size in (0, 1, block - 1, block, block + 1, 2 * block + 1, 3 * block + len(special)):
        bits = rng.integers(0, 2 ** 64, size=(2, size), dtype=np.uint64, endpoint=False)
        x = np.where(np.isfinite(bits.view(np.float64)), bits.view(np.float64), 0.5)
        x.reshape(-1)[:len(special)] = special[:x.size]
        ints = rng.integers(-2 ** 53, 2 ** 53, size=size, endpoint=True)
        ints[:1] = 2 ** 53
        texts = list(_rows("7,%d,%.17g\t%.17g", ints, x[0], x[1]))
        assert [t.count("\n") + 1 for t in texts] == [
            min(block, size - lo) for lo in range(0, size, block)]
        want = [f"7,{i},{a:.17g}\t{b:.17g}" for i, a, b in zip(ints.tolist(), *x.tolist())]
        assert "\n".join(texts) == "\n".join(want)


def test_text_writer_streams_blocks_and_removes_a_failed_file(tmp_path):
    writes = []

    class Stream(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    _write_out(Stream(), ["0\n1\n2", "3\n4\n5", "6"])  # each text as given, plus a newline
    assert writes == ["0\n1\n2\n", "3\n4\n5\n", "6\n"]

    def failing(after):
        yield from map(str, range(after))
        raise MemoryError

    path = tmp_path / "out.csv"
    path.write_text("kept\n")
    with pytest.raises(MemoryError):  # before the first text: the file is never opened
        _write_out(str(path), failing(0))
    assert path.read_text() == "kept\n"
    link = tmp_path / "link.csv"
    link.symlink_to(path)
    with pytest.raises(MemoryError):  # a link (or a device) is written but never removed
        _write_out(str(link), failing(3))
    assert link.is_symlink() and path.read_text() == "0\n1\n2\n"
    with pytest.raises(MemoryError):  # after a written text: the file is removed
        _write_out(str(path), failing(3))
    assert not path.exists()
