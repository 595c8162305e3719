"""Exact degree pmf/cdf against an independent high-precision recomputation.

The frozen probe values below come from a 40-digit (mpmath) evaluation of

    pmf(d) = sum_s C(l,s) mu1^s mu0^(l-s) * C(n-1,d) p_s^d (1-p_s)^(n-1-d),
    p_s = gamma1^s gamma0^(l-s),

rounded to nearest float64, and must agree to 1e-12 relative.  At
n = 1e9 and 1e12 the 40-digit reference is recomputed in the test from
the same double p_s that the table forms.  Per-s oracles (``_per_s``) are
built in the tests, apart from the table's merged components.
"""

import io
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from scipy import stats

from magnet import (
    DegreePmfTable,
    InvalidParamsError,
    ModelParams,
    REFERENCE_PARAMS,
    Scaling,
    derive_constants,
    write_pmf_csv,
)
from magnet.degree_dist import (
    _BAND_CAP, _attribute_window, _band, _band_cdf, _binomial_log_pmf, _logsumexp_rows,
)

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


def _per_s(params, l):
    """(s, p_s, ln P(S = s)) over the attribute-count window, one entry per
    s: neither merged where p_s repeat nor floored."""
    c = derive_constants(params)
    s, _ = _attribute_window(l, params.mu1)
    return (s, np.exp(s * c.log_gamma1 + (l - s) * c.log_gamma0),
            _binomial_log_pmf(l, params.mu1, s))


def _mp_pmf(params, n, l, ds):
    """40-digit P(D = d) at each d of ``ds``, one component per s of the
    window, from the double p_s that the table forms."""
    m = n - 1
    s, p_s, _ = _per_s(params, l)
    with mp.workdps(40):
        mu1, mu0 = mp.mpf(params.mu1), mp.mpf(params.mu0)
        comps = [(mp.binomial(l, s) * mu1 ** s * mu0 ** (l - s), mp.mpf(float(p)))
                 for s, p in zip(s.astype(int).tolist(), p_s)]
        return [mp.fsum(w * mp.binomial(m, d) * p ** d * (1 - p) ** (m - d) for w, p in comps)
                for d in ds]


@pytest.mark.parametrize("n, pmf_at, cdf_at", [
    (10**9, (0, 1, 7, 40, 150, 565), (7, 30)),
    (10**12, (0, 3, 100, 1000, 3906), (16, 40)),
])
def test_large_n_matches_40_digit_probes(n, pmf_at, cdf_at):
    l = Scaling(rho=1.0).attr_count(n)
    table = DegreePmfTable.from_model(P, n, l)
    got = table.pmf(np.array(pmf_at))
    for d, g, w in zip(pmf_at, got, _mp_pmf(P, n, l, pmf_at)):
        assert abs(g / float(w) - 1.0) <= 1e-12, (d, g, w)
    for d in cdf_at:
        want = float(mp.fsum(_mp_pmf(P, n, l, range(d + 1))))
        assert abs(table.cdf(d) - want) <= 1e-12, (d, table.cdf(d), want)


def test_cdf_matches_40_digit_sums_at_1e9():
    # components with mean 3-9 once put the incomplete-beta cdf 1.6e-12 off
    # here at d = 7; the band sums must stay within 1e-12 at every d <= 50
    n = 10**9
    l = Scaling(rho=1.0).attr_count(n)
    table = DegreePmfTable.from_model(P, n, l)
    ds = np.arange(51)
    with mp.workdps(40):
        want = np.array([float(c) for c in itertools.accumulate(_mp_pmf(P, n, l, ds))])
    got = table.cdf(ds)
    assert np.max(np.abs(got - want)) <= 1e-12, np.abs(got - want).argmax()


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


def test_scalar_pmf_equals_the_array_path_to_the_bit():
    # a scalar degree once took math.exp and differed in the last bit from
    # the array's np.exp in about 4% of such cases
    rng = np.random.default_rng(621)
    for _ in range(100):
        q11, q10, q00, mu1 = rng.uniform(0.05, 0.95, size=4)
        params = ModelParams(q11=q11, q10=q10, q00=q00, mu1=mu1)
        n = int(rng.integers(2, 10**9))
        table = DegreePmfTable.from_model(params, n, int(rng.integers(1, 30)))
        for d in rng.integers(0, min(n - 1, 300), size=3, endpoint=True).tolist():
            assert table.pmf(d) == table.pmf(np.array([d]))[0], (params, n, d)
        assert table.prob_zero() == table.pmf(np.array([0]))[0]


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
    # the band-sum cdf must be nondecreasing and agree with a direct pmf
    # cumsum out to the 1 - 1e-12 quantile
    for n in (10**6, 10**9):
        table = DegreePmfTable.from_model(P, n, Scaling(rho=1.0).attr_count(n))
        d = np.arange(max(200, table.quantile(1.0 - 1e-12) + 1))
        cdf = np.asarray(table.cdf(d))
        direct = np.cumsum(np.asarray(table.pmf(d)))
        assert np.all(np.diff(cdf) >= 0)
        np.testing.assert_allclose(cdf, direct, rtol=1e-12)
        assert np.max(np.abs(cdf - direct)) <= 1e-13


def test_cdf_past_the_band_cap_is_the_incomplete_beta_mixture():
    # at n = 2**53 with q11 = 0.9, q00 = 0.3 the components with mean past
    # ~1.1e5 take betaincc and the rest band sums; the mixture must equal
    # sum_s w_s betaincc(d + 1, n - 1 - d, p_s) throughout
    n = 2**53
    params = ModelParams(q11=0.9, q10=0.2, q00=0.3, mu1=0.6)
    l = Scaling(rho=1.0).attr_count(n)
    table = DegreePmfTable.from_model(params, n, l)
    _, p, log_w = _per_s(params, l)
    mean = (n - 1) * p
    assert 0 < np.sum(_band(mean) > _BAND_CAP) < len(mean)
    d = np.unique(np.concatenate([np.arange(0.0, 7e5, 3500.0), np.floor(mean[mean < 1e12])]))
    want = scipy.special.betaincc(d[:, None] + 1.0, (n - 1) - d[:, None], p) @ np.exp(log_w)
    assert np.max(np.abs(table.cdf(d) - want)) <= 1e-13


def test_band_sum_just_under_the_cap_matches_the_incomplete_beta():
    # mean 113120 gives ceil(12 sqrt(mean)) + 60 = 4096, the widest band
    m = 10**12 - 1
    mean = 113120.0
    band = int(_band(mean))
    assert band == _BAND_CAP
    sd = math.sqrt(mean)
    d = np.floor([mean - sd, mean, mean + sd])
    got = _band_cdf(m, np.array([mean / m]), np.array([mean]), band, d)[:, 0]
    want = scipy.special.betaincc(d + 1.0, m - d, mean / m)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [10**6, 10**9, 10**12])
def test_log_pmf_sum_is_scipy_logsumexp_to_the_bit(n):
    # the pmf bytes rest on this: the mixture's log-sum-exp is formed as
    # scipy.special.logsumexp forms it
    table = DegreePmfTable.from_model(P, n, Scaling(rho=1.0).attr_count(n))
    d = np.arange(table.quantile(1.0 - 1e-12) + 1.0)
    terms = table.log_w + _binomial_log_pmf(n - 1, table.p, d[:, None])
    assert np.array_equal(_logsumexp_rows(terms), scipy.special.logsumexp(terms, axis=1))


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


def test_quantile_stays_within_the_band_bound():
    # past hi = max_s(mu_s + K_s) = 1174 every component holds less than
    # 1e-20, so the answer is at most hi even where the computed cdf stays
    # below q = 1 - 2**-53 up to hi, never a degree out towards n - 1
    params = ModelParams(q11=0.26416816438270224, q10=0.5398063027663567,
                         q00=0.3829596498932713, mu1=0.5935280347365751)
    table = DegreePmfTable.from_model(params, 31833, 5)
    mean = (table.n - 1) * _per_s(params, 5)[1]
    assert math.ceil(np.max(mean + _band(mean))) == 1174
    q = 1.0 - 2.0**-53
    d = table.quantile(q)
    assert d <= 1174
    assert d == 1174 or table.cdf(d) >= q


@pytest.mark.parametrize("l", [10**6, 10**7])
def test_components_sharing_a_floored_p_are_summed_once(l):
    # at n = 1000 every p_s of the window is below the smallest normal
    # double: one component carries all the weight, and the pmf still sums to 1
    table = DegreePmfTable.from_model(P, 1000, l)
    assert len(_attribute_window(l, P.mu1)[0]) > 30000
    assert table.p.tolist() == [np.finfo(np.float64).tiny]
    assert abs(table.log_w[0]) <= 1e-15
    assert abs(math.fsum(table.pmf(np.arange(1000))) - 1.0) <= 1e-12


def test_equal_p_s_are_one_component_even_where_not_adjacent():
    # with gamma1 = gamma0 = 0.99 the computed p_s of s = 0..1000 take two
    # interleaved doubles; each double is one component, whatever its s
    params = ModelParams(q11=0.99, q10=0.99, q00=0.99, mu1=0.5)
    table = DegreePmfTable.from_model(params, 10**6, 1000)
    _, p_s, log_w_s = _per_s(params, 1000)
    assert np.count_nonzero(np.diff(p_s)) > 2
    assert sorted(table.p) == sorted(set(p_s))
    assert len(table.p) == 2
    for value, lw in zip(table.p, table.log_w):
        assert math.exp(lw) == pytest.approx(np.exp(log_w_s)[p_s == value].sum(), rel=1e-14)


def test_distinct_components_keep_their_weights_to_the_bit():
    table = DegreePmfTable.from_model(P, 10**12, 28)
    _, p_s, log_w_s = _per_s(P, 28)
    assert table.log_w.tobytes() == log_w_s.tobytes()
    assert table.p.tobytes() == p_s.tobytes()


def test_pmf_of_many_rows_and_components_stays_in_bounded_memory():
    # 16384 rows against 301 distinct p_s: evaluated whole, the terms and
    # their temporaries peak near 500 MiB; in blocks of _CHUNK terms, 4 MiB
    import tracemalloc

    params = ModelParams(q11=0.93, q10=0.93, q00=0.929, mu1=0.5)
    table = DegreePmfTable.from_model(params, 10**5, 300)
    assert len(np.unique(_per_s(params, 300)[1])) == 301
    assert len(table.p) == 301
    tracemalloc.start()
    try:
        table.pmf(np.arange(16384))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_log_weights_normalize():
    table = DegreePmfTable.from_model(P, 100, 7)
    assert scipy.special.logsumexp(table.log_w) == pytest.approx(0.0, abs=1e-12)
    assert len(table.log_w) == 8
    assert np.all(table.p < 1)


@pytest.mark.parametrize("l, mu1, window", [
    (7, 0.6, (0, 7)),
    (800, 0.6, (0, 800)),
    (10**3, 0.6, (36, 1000)),
    (10**7, 0.6, (5939860, 6060040)),
    (10**8, 1e-6, (0, 698)),
    (10**8, 1 - 1e-6, (99999302, 10**8)),
])
def test_attribute_count_window_drops_less_than_the_smallest_double(l, mu1, window):
    # outside [s_lo, s_hi] every weight times (l + 1) is below 2**-1074, by
    # a 40-digit ln P(S = s); the ends themselves are kept
    params = ModelParams(q11=0.7, q10=0.2, q00=0.5, mu1=mu1)
    table = DegreePmfTable.from_model(params, 1000, l)
    kept, _ = _attribute_window(l, mu1)
    s_lo, s_hi = int(kept[0]), int(kept[-1])
    assert (s_lo, s_hi) == window
    assert np.array_equal(kept, np.arange(s_lo, s_hi + 1.0))
    assert len(table.p) == len(table.log_w)
    with mp.workdps(40):
        floor = -1074 * mp.log(2)

        def log_weight_times_l1(s):
            return (mp.loggamma(l + 1) - mp.loggamma(s + 1) - mp.loggamma(l - s + 1)
                    + s * mp.log(mu1) + (l - s) * mp.log1p(-mp.mpf(mu1)) + mp.log(l + 1))

        for s in (s_lo - 1, s_hi + 1):
            if 0 <= s <= l:
                assert log_weight_times_l1(s) < floor, s
        assert log_weight_times_l1(s_lo) >= floor and log_weight_times_l1(s_hi) >= floor
    assert scipy.special.logsumexp(_per_s(params, l)[2]) == pytest.approx(0.0, abs=1e-12)
    assert scipy.special.logsumexp(table.log_w) == pytest.approx(0.0, abs=1e-12)


def test_whole_range_window_costs_no_bisection(monkeypatch):
    # at l = 14, mu1 = 0.6 both ends of 0..l clear the floor: one call tests
    # them and one evaluates the weights
    import magnet.degree_dist as dd

    calls = []

    def counted(*args):
        calls.append(args)
        return _binomial_log_pmf(*args)

    monkeypatch.setattr(dd, "_binomial_log_pmf", counted)
    table = DegreePmfTable.from_model(P, 10**6, 14)
    assert len(calls) <= 2
    assert len(table.log_w) == 15
    assert _attribute_window(14, P.mu1)[0].tolist() == list(range(15))


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
    with pytest.raises(InvalidParamsError):
        DegreePmfTable.from_model(P, 30, 2**53 + 1)


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
