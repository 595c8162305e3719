"""Distributional test statistics shared by the experiment harness."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InvalidParamsError
from .model import EXACT_MAX, _as_reals, _check

__all__ = [
    "tv_to_exact",
    "tv_limit",
    "ks_statistic",
    "dkw_proxy",
    "two_sample_ks",
    "chi_square_gof",
]

#: False-alarm level of each of degree_fit's tests of a sampler.
FIT_ALPHA = 1e-3


def tv_to_exact(values: np.ndarray, exact_pmf_prefix: np.ndarray) -> float:
    """TV between draws (integers >= 0) and an exact law given by its pmf on
    0..K-1 (reals in [0, 1]); the tail mass beyond K-1 enters as unmatched mass."""
    values, _ = _as_reals("draws", values, 0, integer=True)
    p, _ = _as_reals("pmf prefix", exact_pmf_prefix, 0, 1)
    k = len(p)
    emp = np.bincount(np.minimum(values, k).astype(np.int64), minlength=k + 1) / len(values)
    return float(0.5 * (np.abs(emp[:k] - p).sum() + emp[k] + max(0.0, 1.0 - p.sum())))


def tv_limit(exact_pmf_prefix: np.ndarray, n: int) -> float:
    """Level-``FIT_ALPHA`` upper limit on :func:`tv_to_exact` for ``n`` draws of
    the law with pmf ``exact_pmf_prefix`` on 0..K-1.  E[TV] is at most the
    tail beyond K - 1 plus sum_d sqrt(p_d (1 - p_d) / n) / 2 (Jensen), and
    one draw moves TV by at most 1/n (McDiarmid)."""
    n = _check("draw count", n, 1, EXACT_MAX, integer=True)
    p, _ = _as_reals("pmf prefix", exact_pmf_prefix, 0, 1)
    mean_max = 0.5 * float(np.sqrt(p * (1.0 - p) / n).sum()) + max(0.0, 1.0 - float(p.sum()))
    return mean_max + math.sqrt(math.log(1.0 / FIT_ALPHA) / (2.0 * n))


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov statistic of finite reals against a cdf, tie-aware.

    For each distinct sample value x with cumulative count c(x) and
    preceding count c^-(x), the deviation is max(|F(x) - c(x)/N|,
    |F(x) - c^-(x)/N|); the statistic is the maximum over x.
    """
    x = np.sort(_as_reals("samples", samples, -math.inf)[0])
    n = len(x)
    uniq, counts = np.unique(x, return_counts=True)
    hi = np.cumsum(counts) / n
    lo = np.concatenate([[0.0], hi[:-1]])
    f = np.asarray(cdf(uniq), dtype=np.float64)
    return float(np.maximum(np.abs(f - hi), np.abs(f - lo)).max())


def dkw_proxy(n: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band half-width sqrt(ln(2/alpha) / (2n))
    at level alpha = 0.05."""
    n = _check("sample size", n, 1, EXACT_MAX, integer=True)
    return math.sqrt(math.log(2.0 / 0.05) / (2.0 * n))


def two_sample_ks(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sample KS statistic D of finite reals and its exact p-value P(D' >= D).

    D is max |F_x - F_y| over the pooled data, tie-aware, rounded to the
    lattice 1/lcm(m, n) that every attainable value lies on.
    The p-value counts lattice paths (Hodges 1958, Ark. Mat. 3, 469-486)
    and is exact at every sample size.  It costs m + n numpy steps over
    about 2 D m n cells in all.
    """
    x = np.sort(_as_reals("x", x, -math.inf)[0])
    y = np.sort(_as_reals("y", y, -math.inf)[0])
    m, n = len(x), len(y)
    pooled = np.concatenate([x, y])
    diff = (np.searchsorted(x, pooled, side="right") / m
            - np.searchsorted(y, pooled, side="right") / n)
    d = max(diff.max(), -diff.min())
    lcm = m // math.gcd(m, n) * n
    h = int(np.round(d * lcm))
    return h / lcm, (_ks_outside_prob(m, n, h) if h else 1.0)


def _ks_outside_prob(m: int, n: int, h: int) -> float:
    """Share of the C(m+n, m) monotone lattice paths (0,0) -> (m,n) that
    leave the band |i/m - j/n| < h / lcm(m, n).

    Sweeps B(i, j), the share of paths to (i, j) that stay inside, over
    anti-diagonals s = i + j with B(i, j) = (i B(i-1, j) + j B(i, j-1)) / s.
    Along s the band is one run of i, and both of its ends move up by at
    most one per step, so one array indexed by i holds the current
    diagonal; the cell just below the band is zeroed after each step.
    """
    g = math.gcd(m, n)
    mg, w = m // g, (m + n) // g
    i = np.arange(m + 1, dtype=np.float64)
    j = np.arange(m + n, -1, -1, dtype=np.float64)  # j[m + n - s + k] = s - k
    b = np.zeros(m + 2)  # b[k + 1] = B(k, s - k); b[0] stands for i = -1
    b[1] = 1.0
    via_i, via_j = np.empty(m + 1), np.empty(m + 1)  # scratch rows, reused each step
    for s in range(1, m + n + 1):
        lo = max(0, s - n, (mg * s - h) // w + 1)
        hi = min(m, s, (mg * s + h - 1) // w)
        if lo > hi:
            return 1.0
        # positional outputs: numpy parses them faster than out=, and the
        # per-step call overhead is most of the cost at narrow bands
        cur, ti, tj = b[lo + 1:hi + 2], via_i[:hi + 1 - lo], via_j[:hi + 1 - lo]
        np.multiply(i[lo:hi + 1], b[lo:hi + 1], ti)  # i B(i - 1, j)
        np.multiply(j[m + n - s + lo:m + n - s + hi + 1], cur, tj)  # j B(i, j - 1)
        np.add(ti, tj, ti)
        np.divide(ti, s, cur)
        b[lo] = 0.0
    return min(1.0, max(0.0, 1.0 - b[m + 1]))


def chi_square_gof(values: np.ndarray, exact_pmf_prefix: np.ndarray) -> tuple[float, float, int]:
    """Chi-square goodness of fit of draws (integers >= 0) against an exact pmf.

    A bin past the given prefix holds the exact tail mass; bins are then
    merged by :func:`_merge_bins` to at least 5 expected counts each.
    Returns (statistic, p-value, dof); one merged bin fits exactly, (0, 1, 0).
    """
    values, _ = _as_reals("draws", values, 0, integer=True)
    p, _ = _as_reals("pmf prefix", exact_pmf_prefix, 0, 1)
    n, k = len(values), len(p)
    obs = np.bincount(np.minimum(values, k).astype(np.int64), minlength=k + 1).astype(np.float64)
    exp = np.zeros(k + 1)
    exp[:k] = p * n
    exp[k] = max(0.0, 1.0 - float(np.sum(p))) * n

    obs_b, exp_b = _merge_bins(obs, exp)
    if len(obs_b) == 0:
        raise InvalidParamsError("chi-square needs a bin with mass")
    # Rescale residual normalization mismatch (regularity, not correction).
    exp_b *= obs_b.sum() / exp_b.sum()
    dof = len(obs_b) - 1
    stat = float(np.sum((obs_b - exp_b) ** 2 / exp_b)) if dof else 0.0
    return stat, _chi2_sf(stat, dof), dof


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X ~ chi-square(dof), integer dof >= 1, and 1 at x = 0
    (so also for a one-bin fit's dof = 0).

    This is Q(dof/2, y), y = x/2, which has a closed form at integer and
    half-integer shape.  With h = (dof mod 2)/2,

        Q(dof/2, y) = [dof odd] erfc(sqrt y)
                      + sum_{j < dof // 2} y^(j+h) e^(-y) / Gamma(j+h+1).

    Every term is positive, so the exactly rounded sum of the rounded
    terms cancels nothing; each term is taken in logs, so none overflows.
    """
    y = 0.5 * x
    if y <= 0.0:
        return 1.0
    h = 0.5 * (dof % 2)
    ln_y = math.log(y)
    terms = [math.exp((j + h) * ln_y - y - math.lgamma(j + h + 1.0)) for j in range(dof // 2)]
    if h:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


def _merge_bins(obs: np.ndarray, exp: np.ndarray):
    """Sweep up from d = 0, closing a bin once its expected count reaches
    5; a short remainder is folded into the last bin."""
    obs_list: list[float] = []
    exp_list: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_list.append(acc_o)
            exp_list.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and obs_list:
        obs_list[-1] += acc_o
        exp_list[-1] += acc_e
    return np.asarray(obs_list), np.asarray(exp_list)
