"""Degree transform, log-normal approximations, and the historical
parameter reconciliation.

Probe values recomputed independently at 40 digits (mpmath):
  Phi(1)                       = 0.84134474606854295
  Phi(ln(1.2)/sigma)           = 0.79783354405561309   (reference sigma)
  cdf_approx(5; n=1e6, rho=1)  = Phi((ln 5 - expo ln n)/(sqrt(14) sigma))
"""

import math

import numpy as np
import pytest

from magnet import (
    DegreePmfTable,
    InvalidParamsError,
    LogNormalSpec,
    ModelParams,
    REFERENCE_PARAMS,
    RegimeError,
    Scaling,
    cdf_approx,
    derive_constants,
    kl_params,
    kl_reconciled_law,
    lambda_limit_probe,
    lognormal_cdf,
    sample_degrees_direct,
    std_normal_cdf,
    transform_degree,
)

P = REFERENCE_PARAMS
SC = Scaling(rho=1.0)
SIGMA = 0.21863513604494742


def test_normal_cdf_probes():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
    assert std_normal_cdf(1.0) == pytest.approx(0.84134474606854295, abs=1e-15)
    assert std_normal_cdf(-1.0) == pytest.approx(1 - 0.84134474606854295, abs=1e-15)
    assert std_normal_cdf(-40.0) == 0.0
    z = np.array([-2.0, 0.0, 2.0])
    sym = std_normal_cdf(z) + std_normal_cdf(-z)
    np.testing.assert_allclose(sym, 1.0, atol=1e-15)


def test_lognormal_cdf_is_normal_cdf_in_log_coordinates():
    spec = LogNormalSpec(m=0.0, sigma2=SIGMA**2)
    assert lognormal_cdf(math.exp(SIGMA), spec) == pytest.approx(
        0.84134474606854295, abs=1e-14
    )
    assert lognormal_cdf(1.2, spec) == pytest.approx(0.79783354405561309, abs=1e-13)
    assert lognormal_cdf(0.0, spec) == 0.0
    assert lognormal_cdf(-3.0, spec) == 0.0
    x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    out = lognormal_cdf(x, spec)
    assert out[0] == out[1] == 0.0
    assert np.all(np.diff(out) >= 0)


def test_degenerate_spec_is_a_step_function():
    spec = LogNormalSpec(m=1.0, sigma2=0.0)
    e = math.exp(1.0)
    assert lognormal_cdf(e * 0.999999, spec) == 0.0
    assert lognormal_cdf(e * 1.000001, spec) == 1.0
    with pytest.raises(InvalidParamsError):
        LogNormalSpec(m=0.0, sigma2=-1e-12)


def test_transform_two_algebraic_forms_agree():
    # exp((ln d - (1 + rho_n lgbar) ln n)/sqrt L)  vs
    # d**(1/sqrt L) * exp(-sqrt L (1/rho_n + lgbar))
    c = derive_constants(P)
    rng = np.random.default_rng(3)
    for n in (100, 10**4, 10**6):
        l = SC.attr_count(n)
        rho_n = l / math.log(n)
        d = rng.integers(1, 10 * n, size=2000).astype(np.float64)
        got = transform_degree(d, n, SC, P)
        alt = d ** (1.0 / math.sqrt(l)) * math.exp(
            -math.sqrt(l) * (1.0 / rho_n + c.log_gamma_bar)
        )
        np.testing.assert_allclose(got, alt, rtol=1e-12)


def test_transform_zero_convention_and_validation():
    assert transform_degree(0, 10**6, SC, P) == 0.0
    assert transform_degree(0.0, 10**6, SC, P) == 0.0
    with pytest.raises(InvalidParamsError):
        transform_degree(-1, 10**6, SC, P)
    with pytest.raises(RegimeError):
        transform_degree(5, 10**6, Scaling(rho=2.0), P)  # subcritical
    with pytest.raises(InvalidParamsError):
        transform_degree(-0.5, 10**6, SC, P)


def test_cdf_approx_frozen_probe_and_shape():
    # frozen: expo = 1 + rho_n lgbar at n=1e6 (L=14), evaluated via Phi
    got = cdf_approx(5.0, 10**6, SC, P)
    assert got == pytest.approx(0.49863240858095237, rel=1e-12)
    t = np.linspace(0.0, 60.0, 200)
    vals = cdf_approx(t, 10**6, SC, P)
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) >= 0)
    assert np.all(np.diff(cdf_approx(np.arange(400.0), 10**6, SC, P)) >= 0)
    assert cdf_approx(1e9, 10**6, SC, P) > 0.999


def _log_uniform_with_libm_splits(rng: np.random.Generator) -> np.ndarray:
    """200 log-uniform doubles on [1e-3, 1e12] and every one of 3e5 more where
    math.log and np.log differ in the last bit."""
    scan = 10.0 ** rng.uniform(-3, 12, 300_000)
    split = scan[np.array([math.log(v) for v in scan.tolist()]) != np.log(scan)]
    assert split.size > 10  # 83 at this seed: the scalar path is really probed there
    return np.concatenate([10.0 ** rng.uniform(-3, 12, 200), split])


@pytest.mark.parametrize("name", ["lognormal_cdf", "lognormal_cdf_step",
                                  "transform_degree", "cdf_approx"])
def test_scalar_and_array_forms_agree(name):
    # one numpy path serves both forms: a scalar call returns a float equal
    # to the matching array element to the bit, also where libm's log would
    # round the other way, and 0 and negative inputs are treated alike in
    # both forms
    f = {
        "lognormal_cdf": lambda x: lognormal_cdf(x, LogNormalSpec(m=0.3, sigma2=SIGMA**2)),
        "lognormal_cdf_step": lambda x: lognormal_cdf(x, LogNormalSpec(m=math.log(3.0),
                                                                      sigma2=0.0)),
        "transform_degree": lambda x: transform_degree(x, 10**6, SC, P),
        "cdf_approx": lambda x: cdf_approx(x, 10**6, SC, P),
    }[name]
    xs = np.concatenate([[0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 17.0, 1e3, 1e9],
                         _log_uniform_with_libm_splits(np.random.default_rng(0))])
    arr = f(xs)
    got = [f(x) for x in xs.tolist()]
    assert all(type(g) is float for g in got)
    assert np.array_equal(got, arr)
    assert f(0.0) == f(0) == arr[0] == 0.0
    if name.startswith("lognormal_cdf"):
        assert f(-2.0) == 0.0
        assert np.array_equal(f(np.array([-2.0, 0.0])), [0.0, 0.0])
    else:
        with pytest.raises(InvalidParamsError):
            f(-2.0)
        with pytest.raises(InvalidParamsError):
            f(np.array([1.0, -2.0]))


def test_cdf_approx_near_exact_median_at_desk_scale():
    table_median = 5  # median of the exact law at n=1e6, L=14
    exact = DegreePmfTable.from_model(P, 10**6, 14).cdf(table_median)
    approx = cdf_approx(float(table_median), 10**6, SC, P)
    assert abs(approx - exact) < 0.05


def test_cdf_approx_rejects_flat_affinity():
    flat = ModelParams(q11=0.4, q10=0.4, q00=0.4, mu1=0.6)
    with pytest.raises(RegimeError):
        cdf_approx(5.0, 10**6, SC, flat)


def test_kl_identities_at_reference_params():
    c = derive_constants(P)
    for n in (10**3, 10**6, 10**9):
        l = SC.attr_count(n)
        rho_n = l / math.log(n)
        kp = kl_params(P, n, SC)
        assert isinstance(kp, LogNormalSpec)
        # variance identity: sigma2_kl == rho_n sigma^2 ln n == L sigma0^2 (ln r)^2
        want_var = rho_n * c.sigma**2 * math.log(n)
        assert kp.sigma2 == pytest.approx(want_var, rel=1e-12)
        # mean identity: m_kl == (1 + rho_n lgbar) ln n + sigma2/2
        want_m = (1.0 + rho_n * c.log_gamma_bar) * math.log(n) + 0.5 * want_var
        assert kp.m == pytest.approx(want_m, rel=1e-10)


def test_reconciled_law_equals_scale_exponent_form():
    c = derive_constants(P)
    for n in (10**3, 10**6):
        l = SC.attr_count(n)
        rho_n = l / math.log(n)
        law = kl_reconciled_law(P, n, SC)
        assert law.m == pytest.approx(
            (1.0 + rho_n * c.log_gamma_bar) * math.log(n), rel=1e-10
        )
        assert law.sigma2 == pytest.approx(rho_n * c.sigma**2 * math.log(n), rel=1e-12)


def test_reconciled_law_cdf_equals_cdf_approx():
    # change of variables: P(D <= t) under the reconciled law is the
    # transformed-threshold normal probability cdf_approx computes
    law = kl_reconciled_law(P, 10**6, SC)
    for t in (0.5, 1.0, 5.0, 20.0, 300.0):
        assert lognormal_cdf(t, law) == pytest.approx(
            cdf_approx(t, 10**6, SC, P), abs=1e-12
        )


def test_reconciled_law_degenerates_to_point_mass_when_gammas_match():
    flat = ModelParams(q11=0.4, q10=0.4, q00=0.4, mu1=0.6)
    n = 10**6
    law = kl_reconciled_law(flat, n, SC)
    assert law.sigma2 == 0.0
    l = SC.attr_count(n)
    rho_n = l / math.log(n)
    point = math.exp((1.0 + rho_n * math.log(0.4)) * math.log(n))
    assert math.exp(law.m) == pytest.approx(point, rel=1e-12)
    assert lognormal_cdf(point * 1.01, law) == 1.0
    assert lognormal_cdf(point * 0.99, law) == 0.0


def test_lambda_probe_counts_threshold_fraction():
    samples = sample_degrees_direct(P, 10**6, 14, 2000, seed=5)
    frac = lambda_limit_probe(1.0, samples, SC)
    # threshold at t=1 is n**expo ~ 5.01: the fraction is P(D <= 5)-ish
    assert 0.4 < frac < 0.65
    assert frac == lambda_limit_probe(1.0, samples, SC)  # pure function
    with pytest.raises(InvalidParamsError):
        lambda_limit_probe(0.0, samples, SC)
    with pytest.raises(InvalidParamsError):
        lambda_limit_probe(-2.0, samples, SC)
    # sample drawn at the wrong attribute count is refused
    wrong = sample_degrees_direct(P, 10**6, 9, 500, seed=6)
    with pytest.raises(InvalidParamsError):
        lambda_limit_probe(1.0, wrong, SC)
