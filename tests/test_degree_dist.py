"""Exact degree pmf/cdf against an independent high-precision recomputation.

The frozen probe values below come from a 40-digit (mpmath) evaluation of

    pmf(d) = sum_s C(l,s) mu1^s mu0^(l-s) * C(n-1,d) p_s^d (1-p_s)^(n-1-d),
    p_s = gamma1^s gamma0^(l-s),

rounded to nearest float64, and must agree to 1e-12 relative.  At
n = 1e9 and 1e12 the 40-digit reference is recomputed in the test from
the table's own p_s.
"""

import io
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from magnet import (
    DegreePmfTable,
    InvalidParamsError,
    ModelParams,
    REFERENCE_PARAMS,
    Scaling,
    write_pmf_csv,
)
from magnet.degree_dist import _binomial_log_pmf

P = REFERENCE_PARAMS

# n=30, l=3 probes
PMF30 = {
    0: 0.13006448309004160,
    1: 0.23776892082785004,
    2: 0.24090731688539811,
    5: 0.058019898717624406,
    10: 0.00033802452788699292,
    29: 1.3958739685701177e-27,
}
CDF30_AT_3 = 0.78857016413706862

# n=1e6, L=14 probes
PMF1E6 = {
    0: 0.053520720133178631,
    1: 0.092957089827071660,
    5: 0.083365254208911552,
    20: 0.0067419249630953218,
    50: 0.00011637373886730307,
}
CDF1E6_AT_5 = 0.53762251256360681
CDF1E6_AT_50 = 0.99900620092960499


def test_small_instance_matches_high_precision_probes():
    table = DegreePmfTable.from_model(P, 30, 3)
    for d, want in PMF30.items():
        assert table.pmf(d) == pytest.approx(want, rel=1e-12)
    assert table.cdf(3) == pytest.approx(CDF30_AT_3, rel=1e-12)


def test_desk_scale_matches_high_precision_probes():
    table = DegreePmfTable.from_model(P, 10**6, 14)
    for d, want in PMF1E6.items():
        assert table.pmf(d) == pytest.approx(want, rel=1e-12)
    assert table.cdf(5) == pytest.approx(CDF1E6_AT_5, rel=1e-12)
    assert table.cdf(50) == pytest.approx(CDF1E6_AT_50, rel=1e-12)


def _mp_pmf(table, ds):
    """40-digit P(D = d) at each d of ``ds``, from the table's own p_s."""
    m, l = table.n - 1, table.l
    with mp.workdps(40):
        mu1, mu0 = mp.mpf(table.params.mu1), mp.mpf(table.params.mu0)
        comps = [(mp.binomial(l, s) * mu1 ** s * mu0 ** (l - s), mp.mpf(float(p)))
                 for s, p in enumerate(np.exp(table.log_p))]
        return [mp.fsum(w * mp.binomial(m, d) * p ** d * (1 - p) ** (m - d) for w, p in comps)
                for d in ds]


@pytest.mark.parametrize("n, pmf_at, cdf_at", [
    (10**9, (0, 1, 7, 40, 150, 565), (7, 30)),
    (10**12, (0, 3, 100, 1000, 3906), (16, 40)),
])
def test_large_n_matches_40_digit_probes(n, pmf_at, cdf_at):
    table = DegreePmfTable.from_model(P, n, Scaling(rho=1.0).attr_count(n))
    got = table.pmf(np.array(pmf_at))
    for d, g, w in zip(pmf_at, got, _mp_pmf(table, pmf_at)):
        assert abs(g / float(w) - 1.0) <= 1e-12, (d, g, w)
    # 1e-11, not 1e-12: scipy's betaincc is off by ~2.6e-11 (relative) on
    # components with mean 3-9, which puts the mixture 1.6e-12 off at
    # n = 1e9, d = 7.  1 - betainc, bdtr and binom.cdf are all worse.
    for d in cdf_at:
        want = float(mp.fsum(_mp_pmf(table, range(d + 1))))
        assert abs(table.cdf(d) - want) <= 1e-11, (d, table.cdf(d), want)


@pytest.mark.parametrize("n", [10**6, 10**9, 10**12])
def test_exact_law_normalizes_at_every_scale(n):
    table = DegreePmfTable.from_model(P, n, Scaling(rho=1.0).attr_count(n))
    assert 1.0 - table.cdf(n - 1) <= 1e-12
    # past this degree less than 1e-15 of the mass is left
    d_end = table.quantile(1.0 - 1e-15)
    assert abs(math.fsum(table.pmf(np.arange(d_end + 1))) - 1.0) <= 1e-12


def test_tail_quantiles_at_large_n():
    # the 1 - 1e-9 levels that end the default pmf table
    for n, want in ((10**6, 101), (10**9, 565), (10**12, 3906)):
        table = DegreePmfTable.from_model(P, n, Scaling(rho=1.0).attr_count(n))
        assert table.quantile(1.0 - 1e-9) == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, p", [
    (88, 0.546),             # p > 1/2 with both ends of the support
    (10**12 - 1, 1 - 1e-10),  # p > 1/2 at the largest scale
    (999, 1e-20),            # mean far below k: x ln(x/M) with x/M up to 1e20
])
def test_loader_log_pmf_matches_40_digit_reference(m, p):
    mode = math.floor((m + 1) * p)
    ks = np.unique(np.clip(np.concatenate([np.arange(4.0), m - np.arange(4.0),
                                           mode + np.arange(-60.0, 61.0, 10.0)]), 0, m))
    got = _binomial_log_pmf(m, p, ks)
    with mp.workdps(40):
        pm = mp.mpf(p)
        want = [float(mp.log(mp.binomial(m, int(k))) + k * mp.log(pm) + (m - k) * mp.log1p(-pm))
                for k in ks]
    for k, g, w in zip(ks, got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (k, g, w)


def test_pmf_normalizes_on_random_small_instances():
    rng = np.random.default_rng(777)
    for _ in range(50):
        q11, q10, q00, mu1 = rng.uniform(0.05, 0.95, size=4)
        params = ModelParams(q11=q11, q10=q10, q00=q00, mu1=mu1)
        n = int(rng.integers(2, 201))
        l = int(rng.integers(1, 13))
        table = DegreePmfTable.from_model(params, n, l)
        total = float(np.sum(table.pmf(np.arange(n))))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_prob_zero_equals_pmf_at_zero():
    rng = np.random.default_rng(42)
    for _ in range(20):
        q11, q10, q00, mu1 = rng.uniform(0.05, 0.95, size=4)
        params = ModelParams(q11=q11, q10=q10, q00=q00, mu1=mu1)
        n = int(rng.integers(2, 10**6))
        l = int(rng.integers(1, 20))
        table = DegreePmfTable.from_model(params, n, l)
        assert table.prob_zero() == pytest.approx(table.pmf(0), rel=1e-12)


def test_mixture_collapses_to_single_binomial_when_gammas_match():
    # q11 = q10 = q00 = q makes every mixture component Binomial(n-1, q^l)
    q, n, l = 0.35, 25, 4
    params = ModelParams(q11=q, q10=q, q00=q, mu1=0.6)
    d = np.arange(n)
    ours = np.asarray(DegreePmfTable.from_model(params, n, l).pmf(d))
    ref = stats.binom.pmf(d, n - 1, q**l)
    np.testing.assert_allclose(ours, ref, rtol=1e-12)
    # one frozen spot value from the 40-digit run
    assert ours[3] == pytest.approx(0.0049788611106439750, rel=1e-12)


def test_cdf_is_a_proper_distribution_function():
    table = DegreePmfTable.from_model(P, 30, 3)
    d = np.arange(30)
    cdf = np.asarray(table.cdf(d))
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-10)
    pmf = np.asarray(table.pmf(d))
    np.testing.assert_allclose(np.diff(cdf), pmf[1:], atol=1e-12)
    assert cdf[0] == pytest.approx(pmf[0], abs=1e-14)


def test_cdf_scan_is_consistent_at_large_n():
    # the incomplete-beta cdf must agree with a direct pmf cumsum over a prefix
    table = DegreePmfTable.from_model(P, 10**6, 14)
    d = np.arange(200)
    direct = np.cumsum(np.asarray(table.pmf(d)))
    np.testing.assert_allclose(np.asarray(table.cdf(d)), direct, rtol=1e-12)


def test_quantile_inverts_cdf():
    table = DegreePmfTable.from_model(P, 10**6, 14)
    # cdf(4) ~ 0.454, cdf(5) ~ 0.538: the median is 5
    assert table.quantile(0.5) == 5
    for q in (0.01, 0.25, 0.9, 0.999):
        d = table.quantile(q)
        assert table.cdf(d) >= q
        if d > 0:
            assert table.cdf(d - 1) < q
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(InvalidParamsError):
            table.quantile(bad)


def test_log_weights_normalize():
    table = DegreePmfTable.from_model(P, 100, 7)
    from scipy.special import logsumexp

    assert logsumexp(table.log_weights) == pytest.approx(0.0, abs=1e-12)
    assert len(table.log_weights) == 8
    assert np.all(table.log_p < 0)


def test_degree_argument_validation():
    table = DegreePmfTable.from_model(P, 30, 3)
    with pytest.raises(InvalidParamsError):
        table.pmf(-1)
    with pytest.raises(InvalidParamsError):
        table.pmf(30)  # max degree is n-1
    with pytest.raises(InvalidParamsError):
        table.pmf(2.5)
    with pytest.raises(InvalidParamsError):
        DegreePmfTable.from_model(P, 1, 3)
    with pytest.raises(InvalidParamsError):
        DegreePmfTable.from_model(P, 30, 0)


def test_pmf_csv_emission():
    buf = io.StringIO()
    write_pmf_csv(buf, P, 30, 3, d_max=10)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "d,pmf,cdf"
    assert len(lines) == 12
    table = DegreePmfTable.from_model(P, 30, 3)
    running = 0.0
    for i, line in enumerate(lines[1:]):
        d_str, pmf_str, cdf_str = line.split(",")
        assert int(d_str) == i
        running += float(pmf_str)
        assert float(pmf_str) == pytest.approx(float(table.pmf(i)), rel=1e-15)
        assert float(cdf_str) == pytest.approx(running, rel=1e-12)
    # 17-significant-digit round trip: parsing back is exact
    assert float(lines[1].split(",")[1]) == float(table.pmf(0))
