"""Exact degree law of the homogeneous binary MAG model.

The degree D of a fixed node, conditionally on its attribute count
S ~ Bin(l, mu1), is Bin(n - 1, p_S) with per-count edge probability

    p_s = gamma1**s * gamma0**(l - s),

so the unconditional law is the finite mixture, with w_s = P(S = s),

    P(D = d)  = sum_s w_s P(Bin(n - 1, p_s) = d),
    P(D <= d) = sum_s w_s betaincc(d + 1, n - 1 - d, p_s).

Each component pmf takes Loader's (2000) saddle-point form
(``_binomial_log_pmf``, shared with the BTRS sampler) and the mixture is
summed in log space by ``logsumexp``; no binomial coefficient is formed,
so nothing cancels.  The cdf is the regularized incomplete beta of each
component, O(l) per degree with no scan from 0, and the quantile is an
integer bisection on it.  Degrees are doubles, exact for n up to 2**53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np
import scipy

from .errors import InvalidParamsError
from .model import ModelParams, derive_constants, _check_exact_n

__all__ = [
    "DegreePmfTable",
    "write_pmf_csv",
]


def _check_l(l: int) -> None:
    if not (isinstance(l, int) and l >= 1):
        raise InvalidParamsError(f"l must be an integer >= 1, got {l!r}")


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

@dataclass(frozen=True)
class DegreePmfTable:
    """Precomputed mixture data of the compound-binomial degree law.

    ``log_weights[s] = ln P(S = s)`` and ``log_p[s] = ln p_s`` for
    s = 0..l.  The table is the shared backbone of the pmf/cdf/atom
    evaluators below.
    """

    params: ModelParams
    n: int
    l: int
    log_weights: np.ndarray = field(repr=False)
    log_p: np.ndarray = field(repr=False)

    @classmethod
    def from_model(cls, params: ModelParams, n: int, l: int) -> "DegreePmfTable":
        _check_exact_n(n)
        _check_l(l)
        c = derive_constants(params)
        s = np.arange(l + 1, dtype=np.float64)
        log_weights = _binomial_log_pmf(l, params.mu1, s)  # S ~ Bin(l, mu1)
        log_p = s * c.log_gamma1 + (l - s) * c.log_gamma0
        return cls(params=params, n=n, l=l, log_weights=log_weights, log_p=log_p)

    def _p(self) -> np.ndarray:
        """p_s, floored at the smallest normal double: a component below it
        puts less than n * 2.2e-308 on d >= 1 either way."""
        return np.maximum(np.exp(self.log_p), np.finfo(np.float64).tiny)

    # -- evaluation ----------------------------------------------------

    def log_pmf(self, d) -> np.ndarray | float:
        """ln P(D = d) for scalar or array ``d`` in [0, n - 1]."""
        d_arr, scalar = _as_degree_array(d, self.n)
        terms = self.log_weights + _binomial_log_pmf(self.n - 1, self._p(), d_arr[:, None])
        out = scipy.special.logsumexp(terms, axis=1)
        return float(out[0]) if scalar else out

    def pmf(self, d) -> np.ndarray | float:
        out = self.log_pmf(d)
        return math.exp(out) if isinstance(out, float) else np.exp(out)

    def cdf(self, d) -> np.ndarray | float:
        """P(D <= d) as the mixture of the components' upper incomplete
        betas, I_{1-p}(n-1-d, d+1) = betaincc(d+1, n-1-d, p); O(l) per
        point.  p is passed as is: forming 1 - p would drop its low bits."""
        d_arr, scalar = _as_degree_array(d, self.n)
        d_col = d_arr[:, None]
        comp = scipy.special.betaincc(d_col + 1.0, (self.n - 1) - d_col, self._p())
        out = np.minimum(comp @ np.exp(self.log_weights), 1.0)
        return float(out[0]) if scalar else out

    def prob_zero(self) -> float:
        """P(D = 0) = E[(1 - p_S)**(n-1)]."""
        return self.pmf(0)

    def quantile(self, q: float) -> int:
        """Smallest d with P(D <= d) >= q, by bisection on :meth:`cdf`."""
        if not 0.0 < q < 1.0:
            raise InvalidParamsError(f"quantile level must lie in (0, 1), got {q}")
        lo, hi = -1, self.n - 1  # cdf(lo) < q <= cdf(hi), as cdf(-1) = 0 and cdf(n - 1) = 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
        return hi


def _as_degree_array(d, n: int) -> tuple[np.ndarray, bool]:
    scalar = np.isscalar(d)
    d_arr = np.atleast_1d(np.asarray(d, dtype=np.float64))
    if d_arr.size == 0:
        raise InvalidParamsError("degree argument must be nonempty")
    if np.any(d_arr != np.floor(d_arr)) or np.any(d_arr < 0) or np.any(d_arr > n - 1):
        raise InvalidParamsError(f"degrees must be integers in [0, {n - 1}]")
    return d_arr, scalar


def write_pmf_csv(target: str | IO[str], params: ModelParams, n: int, l: int,
                  d_max: int | None = None) -> None:
    """Emit ``d,pmf,cdf`` rows (17 significant digits) for d = 0..d_max;
    the cdf column is the running sum of the pmf column.

    ``d_max`` defaults to the 1 - 1e-9 quantile of the degree law.
    """
    table = DegreePmfTable.from_model(params, n, l)
    if d_max is None:
        d_max = table.quantile(1.0 - 1e-9)
    if not (isinstance(d_max, int) and 0 <= d_max <= n - 1):
        raise InvalidParamsError(f"d_max must be an integer in [0, {n - 1}], got {d_max!r}")
    d = np.arange(d_max + 1)
    pmf = table.pmf(d)
    cdf = np.minimum(np.cumsum(pmf), 1.0)
    lines = ["d,pmf,cdf"]
    lines.extend(f"{int(di)},{pi:.17g},{ci:.17g}" for di, pi, ci in zip(d, pmf, cdf))
    _write_out(target, lines)


def _write_out(target: str | IO[str], lines: Iterable[str]) -> None:
    """Write ``lines``, each ended by a newline, to a path or an open text
    stream; the package's one text writer."""
    text = "\n".join(lines) + "\n"
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)
