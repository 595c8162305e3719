"""Empirical statistics: tie-aware KS, TV distance, DKW proxy, chi-square,
and the exact two-sample KS p-value."""

import itertools
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

import magnet.stats as mstats
from conftest import CHILD_ENV
from magnet.errors import InvalidParamsError
from magnet.stats import (
    _chi2_sf,
    _ks_outside_prob,
    chi_square_gof,
    dkw_proxy,
    ks_statistic,
    tv_to_exact,
    two_sample_ks,
)


def test_ks_statistic_matches_scipy_on_continuous_data():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5000)
    got = ks_statistic(x, lambda v: stats.norm.cdf(v))
    want = stats.ks_1samp(x, stats.norm.cdf).statistic
    assert got == pytest.approx(want, abs=1e-12)


def test_ks_statistic_handles_ties_exactly():
    # four points, two tied at 1: ECDF jumps 0 -> 0.75 there.
    x = np.array([1.0, 1.0, 1.0, 2.0])
    # reference cdf F(1) = 0.5, F(2) = 0.9:
    # at 1: |0.75 - 0.5| = 0.25 (above), |0.5 - 0.0| = 0.5 (below)
    got = ks_statistic(x, lambda v: np.where(np.asarray(v) >= 2, 0.9, 0.5))
    assert got == pytest.approx(0.5, abs=1e-15)


def test_ks_statistic_null_distribution_self_test():
    # draws truly from the reference law: KS below the 95% band 1.36/sqrt(N)
    rng = np.random.default_rng(2024)
    n = 10**4
    x = np.exp(0.2186 * rng.standard_normal(n))
    got = ks_statistic(x, lambda v: stats.norm.cdf(np.log(v) / 0.2186))
    assert got < 1.36 / math.sqrt(n)


def test_ks_statistic_rejects_empty():
    with pytest.raises(InvalidParamsError):
        ks_statistic(np.array([]), lambda v: v)


def test_tv_to_exact_includes_tail_mass():
    # all draws at 0, exact pmf has mass 0.5 beyond the prefix
    draws = np.zeros(100, dtype=np.int64)
    exact_prefix = np.array([0.25, 0.25])  # tail mass 0.5 implied
    # TV = 0.5*(|1-0.25| + |0-0.25| + |0-0.5|) = 0.75
    assert tv_to_exact(draws, exact_prefix) == pytest.approx(0.75)
    # perfect agreement when empirical matches the prefix and no tail
    rng = np.random.default_rng(0)
    big = rng.integers(0, 2, size=200000)
    assert tv_to_exact(big, np.array([0.5, 0.5])) < 0.01


def test_tv_to_exact_counts_draws_past_the_prefix_in_bounded_memory():
    # a draw past the prefix is unmatched mass whatever its value: counting
    # draws up to the largest one would take 7.45 GiB at 10**9 and 7.11 PiB
    # at 10**15, so the child runs under a 2 GiB address-space limit
    script = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from magnet.stats import tv_to_exact
print([tv_to_exact([0, far], [0.5, 0.5]) for far in (10**9, 10**15)])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0.5, 0.5]\n"


def test_dkw_proxy_frozen_value():
    # sqrt(ln(2/alpha) / (2 N)) at alpha=0.05, N=1e4
    assert dkw_proxy(10**4) == pytest.approx(
        math.sqrt(math.log(2 / 0.05) / (2 * 10**4)), rel=1e-15
    )
    assert dkw_proxy(10**4) == pytest.approx(0.013581015157406195, rel=1e-12)
    assert dkw_proxy(4 * 10**4) == pytest.approx(dkw_proxy(10**4) / 2, rel=1e-15)


def test_two_sample_ks_same_law_high_p():
    rng = np.random.default_rng(7)
    a = rng.poisson(5.0, size=20000)
    b = rng.poisson(5.0, size=20000)
    _, p = two_sample_ks(a, b)
    assert p > 0.001
    c = rng.poisson(6.0, size=20000)
    _, p_diff = two_sample_ks(a, c)
    assert p_diff < 1e-6


def _ks_samples():
    rng = np.random.default_rng(19)
    return {
        "equal sizes": (rng.normal(0.0, 1.0, 300), rng.normal(0.2, 1.0, 300)),
        "coprime sizes": (rng.normal(0.0, 1.0, 97), rng.normal(0.3, 1.0, 61)),
        "n2 divides n1": (rng.normal(0.0, 1.0, 1200), rng.normal(0.1, 1.0, 300)),
        "swapped order": (rng.normal(0.1, 1.0, 300), rng.normal(0.0, 1.0, 1200)),
        "heavy ties": (rng.poisson(5.0, 5000), rng.poisson(5.2, 1250)),
        "h = 0": (np.arange(40) % 4, np.arange(20) % 4),
        "fully separated": (rng.normal(0.0, 1.0, 50), rng.normal(10.0, 1.0, 40)),
    }


@pytest.mark.parametrize("case", list(_ks_samples()))
def test_two_sample_ks_matches_scipy_exact(case):
    x, y = _ks_samples()[case]
    d, p = two_sample_ks(x, y)
    want = stats.ks_2samp(x, y, method="exact")
    assert d == want.statistic
    assert abs(p - want.pvalue) <= 1e-12
    if case == "h = 0":
        assert (d, p) == (0.0, 1.0)
    if case == "fully separated":
        assert d == 1.0 and p < 1e-12


def test_ks_outside_prob_matches_path_enumeration():
    # every (m, n) with m + n <= 14 and every band half-width h: the share
    # of the C(m+n, n) lattice paths that reach |(n/g) i - (m/g) j| >= h
    for m in range(1, 14):
        for n in range(1, 15 - m):
            g = math.gcd(m, n)
            reach = []
            for ys in itertools.combinations(range(m + n), n):
                i = j = top = 0
                for step in range(m + n):
                    if step in ys:
                        j += 1
                    else:
                        i += 1
                    top = max(top, abs(n // g * i - m // g * j))
                reach.append(top)
            for h in range(1, m * n // g + 1):
                want = Fraction(sum(r >= h for r in reach), len(reach))
                assert abs(_ks_outside_prob(m, n, h) - want) <= 1e-15, (m, n, h)


def _ks_outside_prob_reference(m, n, h):
    """The band sweep with fresh arrays at every step, as first written."""
    g = math.gcd(m, n)
    mg, w = m // g, (m + n) // g
    i = np.arange(m + 1, dtype=np.float64)
    b = np.zeros(m + 2)
    b[1] = 1.0
    for s in range(1, m + n + 1):
        lo = max(0, s - n, (mg * s - h) // w + 1)
        hi = min(m, s, (mg * s + h - 1) // w)
        if lo > hi:
            return 1.0
        ii = i[lo:hi + 1]
        b[lo + 1:hi + 2] = (ii * b[lo:hi + 1] + (s - ii) * b[lo + 1:hi + 2]) / s
        b[lo] = 0.0
    return min(1.0, max(0.0, 1.0 - b[m + 1]))


def test_ks_outside_prob_equals_allocating_sweep():
    # the scratch-row sweep does the same arithmetic in the same order, so
    # every double must match, across shapes, orders and band widths
    for m, n in [(1, 1), (3, 7), (7, 3), (40, 20), (97, 61), (300, 300), (1200, 300),
                 (300, 1200), (5000, 1250)]:
        lcm = m // math.gcd(m, n) * n
        for h in sorted({1, lcm // 200 + 1, lcm // 50 + 1, lcm // 20 + 1, lcm // 5 + 1, lcm}):
            assert _ks_outside_prob(m, n, h) == _ks_outside_prob_reference(m, n, h), (m, n, h)


def test_two_sample_ks_rejects_empty():
    with pytest.raises(InvalidParamsError):
        two_sample_ks(np.array([]), np.array([1.0]))


def _chi_square_gof_and_scipy(monkeypatch, draws, pmf):
    """chi_square_gof next to scipy.stats.chisquare on the same merged bins.

    chi_square_gof rescales the merged expected counts in place, so the
    arrays captured here are exactly the ones its statistic sums over."""
    merge, seen = mstats._merge_bins, []

    def spy(*args):
        seen.append(merge(*args))
        return seen[-1]

    monkeypatch.setattr(mstats, "_merge_bins", spy)
    got = chi_square_gof(draws, pmf)
    monkeypatch.undo()
    return got, stats.chisquare(*seen[-1])


def _chi2_sf_40_digits(x: float, dof: int) -> float:
    """Q(dof/2, x/2), the chi-square upper tail, at 40 digits and then
    rounded to the nearest double."""
    with mp.workdps(40):
        return float(mp.gammainc(mp.mpf(dof) / 2, mp.mpf(x) / 2, regularized=True))


def _assert_p_value(p: float, stat: float, dof: int) -> None:
    want = _chi2_sf_40_digits(stat, dof)
    assert abs(p - want) <= 1e-13 * want, (stat, dof, p, want)


def test_chi_square_gof_calibration(monkeypatch):
    rng = np.random.default_rng(11)
    pmf = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    draws = rng.choice(5, size=50000, p=pmf)
    (stat, p, dof), want = _chi_square_gof_and_scipy(monkeypatch, draws, pmf)
    assert stat == want.statistic
    _assert_p_value(p, stat, dof)
    assert p > 1e-3
    assert dof >= 3
    # a wrong reference law is rejected hard
    wrong = np.array([0.3, 0.3, 0.2, 0.1, 0.1])
    (stat, p_bad, dof), want = _chi_square_gof_and_scipy(monkeypatch, draws, wrong)
    assert stat == want.statistic
    _assert_p_value(p_bad, stat, dof)
    assert p_bad < 1e-10


def test_chi_square_gof_merges_sparse_tail(monkeypatch):
    rng = np.random.default_rng(3)
    lam = 2.0
    draws = rng.poisson(lam, size=20000)
    k = 30  # far into the sparse tail; merging must keep expected >= 5
    pmf = stats.poisson.pmf(np.arange(k), lam)
    (stat, p, dof), want = _chi_square_gof_and_scipy(monkeypatch, draws, pmf)
    assert stat == want.statistic
    _assert_p_value(p, stat, dof)
    assert p > 1e-3
    assert dof < k  # tail bins were merged


def test_chi2_sf_matches_40_digits_over_a_grid():
    # dof 1..300, x <= 1500 from the centre of each law out to both tails.
    # The closed form's worst relative error must stay within 2e-13 and
    # within 1e-15 of scipy's chdtrc's worst on the same grid; below the
    # normal doubles, relative error means nothing, so there p is held to
    # an absolute 1e-300.
    worst = worst_chdtrc = 0.0
    for dof in range(1, 301):
        xs = {dof * f for f in (0.05, 0.3, 0.7, 1.0, 1.3, 2.0, 4.0)}
        xs |= {0.01, 0.5, 1.0, 5.0, 20.0, 100.0, 400.0, 1000.0, 1500.0}
        for x in sorted(v for v in xs if v <= 1500.0):
            want, got = _chi2_sf_40_digits(x, dof), _chi2_sf(x, dof)
            if want < 1e-290:
                assert abs(got - want) <= 1e-300, (x, dof)
                continue
            worst = max(worst, abs(got - want) / want)
            worst_chdtrc = max(worst_chdtrc, abs(special.chdtrc(dof, x) - want) / want)
    assert worst <= 2e-13
    assert worst <= worst_chdtrc + 1e-15


def test_chi2_sf_edges():
    for dof in (1, 2, 7, 300):
        assert _chi2_sf(0.0, dof) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _chi2_sf(1e308, dof) == 0.0
    # the closed form's one-term cases, to the bit
    for x in (1e-9, 0.1, 3.7, 50.0, 700.0):
        assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
        assert _chi2_sf(x, 2) == math.exp(-x / 2)


def test_merge_bins_sweeps_up_and_folds_the_remainder():
    # 1+2+3 closes the first bin, 10 the second; the short tail 1+1 joins it
    exp = np.array([1.0, 2.0, 3.0, 10.0, 1.0, 1.0])
    obs, merged = mstats._merge_bins(exp.copy(), exp)
    assert merged.tolist() == [6.0, 12.0]
    assert obs.tolist() == [6.0, 12.0]


def test_chi_square_gof_fits_one_bin_and_needs_a_bin():
    # every draw in one merged bin: observed equals expected, 0 dof, p = 1
    assert chi_square_gof(np.zeros(10, dtype=np.int64), np.array([1.0])) == (0.0, 1.0, 0)
    # a bin closes at 5 expected counts: 4 draws form none
    with pytest.raises(InvalidParamsError):
        chi_square_gof(np.zeros(4, dtype=np.int64), np.array([1.0]))
