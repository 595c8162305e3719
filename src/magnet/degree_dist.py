"""Exact degree law of the homogeneous binary MAG model.

The degree D of a fixed node, conditionally on its attribute count
S ~ Bin(l, mu1), is Bin(n - 1, p_S) with per-count edge probability

    p_s = gamma1**s * gamma0**(l - s),

so the unconditional law is the finite mixture, with w_s = P(S = s),

    P(D = d)  = sum_s w_s P(Bin(n - 1, p_s) = d),
    P(D <= d) = sum_s w_s P(Bin(n - 1, p_s) <= d).

Each component pmf takes Loader's (2000) saddle-point form
(``_binomial_log_pmf``, the package's one binomial pmf: the direct
sampler's inversion tables and BTRS test read it too) and the mixture is
summed in log space by ``_logsumexp_rows``; no binomial coefficient is
formed, so nothing cancels.  The sums, and the direct sampler, run over
the components ``DegreePmfTable.from_model`` builds once: the distinct p_s
of the window of s that drops less than the smallest double of S's mass,
each with the summed weight of its s.  A component's cdf sums its pmf
terms over a band of K_s = ceil(12 sqrt(mu_s)) + 60 degrees next to d
(widened to a power of two), mu_s = (n - 1) p_s, on the side of d away
from the mean (1 minus the upper band when d >= mu_s); beyond the band
each tail is below 1e-20.  Only
a component whose band exceeds ``_BAND_CAP`` takes scipy's regularized
incomplete beta instead, imported on first use.  The quantile is an integer
bisection on the cdf.  Degrees are doubles, exact for n up to 2**53.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np

from .model import (
    EXACT_MAX, _WRITE_BLOCK, ModelParams, derive_constants, _as_reals, _check,
    _rows, _write_out,
)

__all__ = [
    "DegreePmfTable",
    "write_pmf_csv",
]


def _bisect(lo: int, hi: int, above) -> int:
    """Least integer x in (lo, hi] with ``above(x)``, for a predicate that is
    false, then true on (lo, hi]; neither end is evaluated."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return hi


# =====================================================================
# Binomial log pmf (Loader 2000)
# =====================================================================

#: Loader's stirlerr(k) = ln k! - (k + 1/2) ln k + k - ln(2 pi) / 2 at
#: k = 1..15 (index 0 is unused), where its asymptotic series is not yet
#: accurate to double precision.
_STIRLERR_SMALL = np.array([
    0.0,
    0.08106146679532725821967026, 0.04134069595540929409382208,
    0.02767792568499833914878929, 0.02079067210376509311152277,
    0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.01041126526197209649747857,
    0.009255462182712732917728637, 0.008330563433362871256469319,
    0.007573675487951840794972024, 0.006942840107209529865664153,
    0.006408994188004207068439631, 0.005951370112758847735624416,
    0.005554733551962801371038690,
])


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """stirlerr(k) for integer-valued k >= 1: the table up to 15, else the
    series 1/12k - 1/360k^3 + 1/1260k^5 - 1/1680k^7 + 1/1188k^9."""
    k = np.asarray(k, dtype=np.float64)
    big = np.maximum(k, 16.0)
    k2 = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / k2) / k2) / k2) / k2) / big
    return np.where(k > 15, series, _STIRLERR_SMALL[np.minimum(k, 15).astype(np.int64)])


def _bd0(x: np.ndarray, mean: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Loader's deviance term x ln(x/M) + M - x for x > 0 and M = ``mean``
    > 0, given diff = x - M formed without cancellation by the caller.

    With v = diff / (x + M), x ln(x/M) = 2x atanh(v), so for |v| < 0.1 the
    term is v diff + 2x (atanh(v) - v) with atanh(v) - v summed as a series,
    which keeps full relative precision as x/M -> 1.  Further out it is
    formed directly; atanh would lose 1 - v as x/M grows without bound.
    """
    v = diff / (x + mean)
    w = v * v
    series = w * (1 / 3 + w * (1 / 5 + w * (1 / 7 + w * (1 / 9 + w * (1 / 11 + w * (
        1 / 13 + w * (1 / 15 + w * (1 / 17 + w * (1 / 19 + w / 21)))))))))
    return np.where(np.abs(v) < 0.1, v * diff + 2.0 * x * (v * series),
                    x * np.log(x / mean) + mean - x)


def _binomial_log_pmf(m: int, p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """ln P(X = k), X ~ Bin(m, p), for integer-valued k in [0, m] and p in
    [2**-1022, 1) (no subnormal p); broadcasts ``p`` against ``k``.

    The saddle-point form of Loader (2000), "Fast and accurate computation
    of binomial probabilities": stirlerr(m) - stirlerr(k)
    - stirlerr(m - k) - bd0(k, mp) - bd0(m - k, mq) + ln(m / (2 pi k (m - k))) / 2:
    every term stays accurate at m = 10^12, where lgamma differences lose
    up to ~5e-3.  p > 1/2 evaluates Bin(m, 1 - p) at m - k, where 1 - p is
    exact.
    """
    flip = p > 0.5
    p = np.where(flip, 1.0 - p, p)
    k = np.where(flip, m - k, k)
    j = m - k
    inner = (k > 0) & (j > 0)
    # k = 0 and k = m take the closed forms below; the body runs there at
    # k = m - k = 1, where every term is finite as mp <= m/2.
    ki = np.where(inner, k, 1.0)
    ji = np.where(inner, j, 1.0)
    mp = m * p
    diff = ki - mp  # k - mp, and (m - k) - mq = -diff
    body = (_stirlerr(m) - _stirlerr(ki) - _stirlerr(ji)
            - _bd0(ki, mp, diff) - _bd0(ji, m - mp, -diff)
            + 0.5 * np.log(m / (2.0 * math.pi * ki * ji)))
    return np.where(inner, body, np.where(k == 0, m * np.log1p(-p), m * np.log(p)))


# =====================================================================
# The compound-binomial law
# =====================================================================

def _attribute_window(l: int, mu1: float) -> tuple[np.ndarray, np.ndarray]:
    """The s of S ~ Bin(l, mu1) whose weight times l + 1 is at least 2**-1074,
    as doubles, and their ln P(S = s): that is unimodal and at least -ln(l + 1)
    at the mode, so an end of 0..l below the floor is a bisection between it
    and the mode.  A subnormal mu1, below ``_binomial_log_pmf``'s domain, takes
    the law at p = 2**-1022 times the likelihood ratio (a factor 1 otherwise)."""
    floor = -1074 * math.log(2.0) - math.log(l + 1)
    mode = min(l, math.floor((l + 1) * mu1))
    p = max(mu1, np.finfo(np.float64).tiny)
    log_w = lambda s: (_binomial_log_pmf(l, p, s) + s * (math.log(mu1) - math.log(p))
                       + (l - s) * (math.log1p(-mu1) - math.log1p(-p)))
    lo_in, hi_in = log_w(np.array([0.0, l])) >= floor
    lo = 0 if lo_in else _bisect(0, mode, lambda s: log_w(s) >= floor)
    end = l + 1 if hi_in else _bisect(mode, l, lambda s: log_w(s) < floor)
    s = np.arange(lo, end, dtype=np.float64)
    return s, log_w(s)


@dataclass(frozen=True)
class DegreePmfTable:
    """The mixture components of the compound-binomial degree law.

    ``p`` holds the distinct p_s over ``_attribute_window`` in order of their
    first s, floored at the smallest normal double (below it a component puts
    < n * 2.2e-308 on d >= 1); ``log_w`` holds the log-sum-exp of ln P(S = s)
    over the s that share each, so a p_s of its own keeps its weight to the
    bit.  The evaluators below and the direct sampler read only these.
    """

    n: int
    p: np.ndarray = field(repr=False)
    log_w: np.ndarray = field(repr=False)

    @classmethod
    def from_model(cls, params: ModelParams, n: int, l: int) -> "DegreePmfTable":
        n = _check("n", n, 2, EXACT_MAX, integer=True)
        l = _check("l", l, 1, EXACT_MAX, integer=True)
        c = derive_constants(params)
        s, log_w_s = _attribute_window(l, params.mu1)
        p = np.maximum(np.exp(s * c.log_gamma1 + (l - s) * c.log_gamma0),
                       np.finfo(np.float64).tiny)
        _, first, which = np.unique(p, return_index=True, return_inverse=True)
        key = first[which]  # each s's first s with the same p_s
        order = np.argsort(key, kind="stable")
        start = np.flatnonzero(np.diff(key[order], prepend=-1))
        log_w = np.logaddexp.reduceat(log_w_s[order], start)
        return cls(n=n, p=p[order[start]], log_w=log_w)

    # -- evaluation ----------------------------------------------------

    def log_pmf(self, d) -> np.ndarray | float:
        """ln P(D = d) for scalar or array ``d`` in [0, n - 1], in blocks of
        rows of at most ``_CHUNK`` terms (one row at least)."""
        d_arr, scalar = _as_reals("degrees", d, 0, self.n - 1, integer=True)
        p, log_w = self.p, self.log_w
        step = max(1, _CHUNK // p.size)
        out = np.concatenate([
            _logsumexp_rows(log_w + _binomial_log_pmf(self.n - 1, p, d_arr[lo:lo + step, None]))
            for lo in range(0, d_arr.size, step)])
        return float(out[0]) if scalar else out

    def pmf(self, d) -> np.ndarray | float:
        """P(D = d); a scalar ``d`` takes the array path's ``np.exp``, to the bit."""
        out = np.exp(np.atleast_1d(self.log_pmf(d)))
        return float(out[0]) if np.ndim(d) == 0 else out

    def cdf(self, d) -> np.ndarray | float:
        """P(D <= d) as the w_s-weighted sum of each component's band sum
        (module docstring); a component whose band exceeds ``_BAND_CAP``
        takes its upper incomplete beta betaincc(d+1, n-1-d, p) instead."""
        d_arr, scalar = _as_reals("degrees", d, 0, self.n - 1, integer=True)
        p, mean = self.p, (self.n - 1) * self.p
        # each band widened to a power of two: at most seven widths to loop over
        band = 2.0 ** np.ceil(np.log2(_band(mean)))
        comp = np.empty((d_arr.size, p.size))
        for k in sorted(set(band.tolist())):
            at = np.flatnonzero(band == k)
            if k <= _BAND_CAP:
                comp[:, at] = _band_cdf(self.n - 1, p[at], mean[at], int(k), d_arr)
            else:
                import scipy.special  # a 0.2 s import, paid only here

                d_col = d_arr[:, None]
                comp[:, at] = scipy.special.betaincc(d_col + 1.0, (self.n - 1) - d_col, p[at])
        out = np.minimum(comp @ np.exp(self.log_w), 1.0)
        return float(out[0]) if scalar else out

    def prob_zero(self) -> float:
        """P(D = 0) = E[(1 - p_S)**(n-1)]."""
        return self.pmf(0)

    def quantile(self, q: float) -> int:
        """Smallest d with P(D <= d) >= q, by bisection on :meth:`cdf`
        inside [-1, hi], hi = min(n - 1, max_s(mu_s + K_s)), above which
        every component holds less than 1e-20; hi itself when the computed
        cdf stays below q up to it."""
        q = _check("q", q, 0, 1)
        mean = (self.n - 1) * self.p
        hi = min(self.n - 1, math.ceil(np.max(mean + _band(mean))))
        return _bisect(-1, hi, lambda d: self.cdf(d) >= q)


def _band(mean: np.ndarray) -> np.ndarray:
    """K = ceil(12 sqrt(mean)) + 60: past mean + K, and below d - K for any
    d < mean, a binomial with that mean holds less than 1e-20
    (Chernoff/Bernstein)."""
    return np.ceil(12.0 * np.sqrt(mean)) + 60.0


#: The widest band a component's cdf is summed over; past it (a mean above
#: about 1.1e5) the component takes the incomplete beta.
_BAND_CAP = 4096
#: Pmf terms evaluated at once by a band sum.
_CHUNK = 2 ** 15


def _band_cdf(m: int, p: np.ndarray, mean: np.ndarray, band: int, d: np.ndarray) -> np.ndarray:
    """P(Bin(m, p_j) <= d_i) as a (len(d), len(p)) array: the pmf terms on
    [d - band, d] where d < mean_j, else 1 minus those on [d + 1, d + band],
    in chunks of at most ``_CHUNK`` terms."""
    offsets = np.arange(band + 1.0)
    out = np.empty(d.size * p.size)
    step = max(1, _CHUNK // (band + 1))
    for lo in range(0, out.size, step):
        pair = np.arange(lo, min(lo + step, out.size))
        di, j = d[pair // p.size], pair % p.size
        below = di < mean[j]
        k = np.where(below, di - band, di + 1.0)[:, None] + offsets
        keep = (k >= 0) & (k <= np.minimum(np.where(below, di, di + band), m)[:, None])
        terms = np.exp(_binomial_log_pmf(m, p[j, None], np.clip(k, 0, m)))
        sums = np.where(keep, terms, 0.0).sum(axis=1)
        out[pair] = np.where(below, sums, 1.0 - sums)
    return out.reshape(d.size, p.size)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """ln sum_j exp(a[i, j]) for each row of a finite 2-d array, formed as
    scipy.special.logsumexp forms it, to the bit: the largest term and its
    ties are split out, and the rest is added by log1p."""
    top = a.max(axis=1, keepdims=True)
    at_top = a == top
    count = at_top.sum(axis=1, keepdims=True, dtype=np.float64)
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=1, keepdims=True)
    return (np.log1p(rest / count) + np.log(count) + top)[:, 0]


def _pmf_rows(params: ModelParams, n: int, l: int, d_max: int | None,
              q: float) -> Iterator[tuple[np.ndarray, ...]]:
    """(d, pmf, cdf) of the exact law in blocks of ``_WRITE_BLOCK`` rows for
    d = 0..d_max, or to its ``q`` quantile when d_max is None, with cdf the
    capped running sum of pmf; checked, and its table built, on the call."""
    n = _check("n", n, 2, EXACT_MAX, integer=True)
    if d_max is not None:
        d_max = _check("d_max", d_max, 0, n - 1, integer=True)
    table = DegreePmfTable.from_model(params, n, l)
    d_end = table.quantile(q) if d_max is None else d_max

    def blocks():
        total = 0.0
        for lo in range(0, d_end + 1, _WRITE_BLOCK):
            d = np.arange(lo, min(lo + _WRITE_BLOCK, d_end + 1))
            pmf = table.pmf(d)
            running = np.cumsum(np.concatenate(([total], pmf)))[1:]
            total = running[-1]
            yield d, pmf, np.minimum(running, 1.0)
    return blocks()


def write_pmf_csv(target: str | IO[str], params: ModelParams, n: int, l: int,
                  d_max: int | None = None) -> None:
    """Emit ``d,pmf,cdf`` rows (17 significant digits) for d = 0..d_max;
    the cdf column is the running sum of the pmf column.

    ``d_max`` defaults to the 1 - 1e-9 quantile of the degree law.
    """
    rows = _pmf_rows(params, n, l, d_max, 1.0 - 1e-9)
    _write_out(target, itertools.chain(["d,pmf,cdf"], (
        text for block in rows for text in _rows("%d,%.17g,%.17g", *block))))
