"""Exact degree law of the homogeneous binary MAG model.

The degree D of a fixed node, conditionally on its attribute count
S ~ Bin(l, mu1), is Bin(n - 1, p_S) with per-count edge probability

    p_s = gamma1**s * gamma0**(l - s),

so the unconditional pmf is the compound binomial

    P(D = d) = sum_s C(l, s) mu1**s mu0**(l-s) * C(n-1, d) p_s**d (1 - p_s)**(n-1-d).

Everything is assembled in log space: binomial coefficients through
``gammaln``, the mixture through ``logsumexp`` over the fixed attribute-count
order, and ``(1 - p)**(n-1)`` as ``exp((n - 1) * log1p(-p))``.  This keeps
the pmf finite and accurate for node counts up to 10**12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np
import scipy

from .errors import InvalidParamsError
from .model import ModelParams, derive_constants, _check_n

__all__ = [
    "DegreePmfTable",
    "write_pmf_csv",
]

#: Per-attribute-count binomial tail mass below which table scans may stop.
TAIL_EPS = 1e-16


def _check_l(l: int) -> None:
    if not (isinstance(l, int) and l >= 1):
        raise InvalidParamsError(f"l must be an integer >= 1, got {l!r}")


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
        _check_n(n)
        _check_l(l)
        c = derive_constants(params)
        s = np.arange(l + 1, dtype=np.float64)
        log_weights = (
            scipy.special.gammaln(l + 1.0)
            - scipy.special.gammaln(s + 1.0)
            - scipy.special.gammaln(l - s + 1.0)
            + s * math.log(params.mu1)
            + (l - s) * math.log(params.mu0)
        )
        log_p = s * c.log_gamma1 + (l - s) * c.log_gamma0
        return cls(params=params, n=n, l=l, log_weights=log_weights, log_p=log_p)

    # -- evaluation ----------------------------------------------------

    def log_pmf(self, d) -> np.ndarray | float:
        """ln P(D = d) for scalar or array ``d`` in [0, n - 1]."""
        d_arr, scalar = _as_degree_array(d, self.n)
        m = float(self.n - 1)
        log_c = (
            scipy.special.gammaln(m + 1.0)
            - scipy.special.gammaln(d_arr + 1.0)
            - scipy.special.gammaln(m - d_arr + 1.0)
        )
        p = np.exp(self.log_p)
        log_1mp = np.log1p(-p)
        terms = (
            self.log_weights[None, :]
            + log_c[:, None]
            + d_arr[:, None] * self.log_p[None, :]
            + (m - d_arr)[:, None] * log_1mp[None, :]
        )
        out = scipy.special.logsumexp(terms, axis=1)
        return float(out[0]) if scalar else out

    def pmf(self, d) -> np.ndarray | float:
        out = self.log_pmf(d)
        return math.exp(out) if isinstance(out, float) else np.exp(out)

    def cdf(self, d) -> np.ndarray | float:
        """P(D <= d) by chunked summation of the pmf from 0.

        The scan stops once the remaining mass drops below ``TAIL_EPS``;
        later degrees inherit the accumulated value (error < TAIL_EPS).
        """
        d_arr, scalar = _as_degree_array(d, self.n)
        d_max = int(d_arr.max())
        d_idx = d_arr.astype(np.int64)
        out = np.empty(d_arr.shape, dtype=np.float64)
        total = 0.0
        d0 = 0
        chunk = 1024
        while d0 <= d_max:
            hi = min(d0 + chunk, d_max + 1)
            block = np.cumsum(self.pmf(np.arange(d0, hi))) + total
            inside = (d_idx >= d0) & (d_idx < hi)
            out[inside] = block[d_idx[inside] - d0]
            total = float(block[-1])
            d0 = hi
            chunk *= 2
            if 1.0 - total < TAIL_EPS:
                out[d_idx >= d0] = total
                break
        np.minimum(out, 1.0, out=out)
        return float(out[0]) if scalar else out

    def prob_zero(self) -> float:
        """P(D = 0) = E[(1 - p_S)**(n-1)], evaluated without forming pmf(0) twice."""
        m = float(self.n - 1)
        log_terms = self.log_weights + m * np.log1p(-np.exp(self.log_p))
        return float(np.exp(scipy.special.logsumexp(log_terms)))

    def quantile(self, q: float) -> int:
        """Smallest d with P(D <= d) >= q (scans from 0 in chunks)."""
        if not 0.0 < q < 1.0:
            raise InvalidParamsError(f"quantile level must lie in (0, 1), got {q}")
        total = 0.0
        d0 = 0
        chunk = 256
        while d0 < self.n:
            hi = min(d0 + chunk, self.n)
            block = np.cumsum(self.pmf(np.arange(d0, hi))) + total
            idx = np.searchsorted(block, q)
            if idx < len(block):
                return d0 + int(idx)
            total = float(block[-1])
            d0 = hi
            chunk *= 2
        return self.n - 1


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
    """Emit ``d,pmf,cdf`` rows (17 significant digits) for d = 0..d_max.

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
