"""Closed forms of the homogeneous binary MAG model, used to check outputs.

Everything here is computed from the model definition with the standard
library alone; nothing is imported from ``magnet``.  The checks in
``checks.py`` take their tolerances from these exact quantities (moments,
variances, float conditioning), never from bytes an earlier version of the
program wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The CLI's default parameter set (README reference parameters).
Q11, Q10, Q00, MU1 = 0.7, 0.2, 0.5, 0.6
MU0 = 1.0 - MU1
C_STAR = 0.4748

DBL_EPS = 2.0 ** -52


@dataclass(frozen=True)
class Constants:
    gamma1: float
    gamma0: float
    sigma0: float
    sigma: float
    log_gamma_bar: float


def constants() -> Constants:
    g1 = Q11 * MU1 + Q10 * MU0
    g0 = Q10 * MU1 + Q00 * MU0
    s0 = math.sqrt(MU1 * MU0)
    return Constants(g1, g0, s0, s0 * (math.log(g1) - math.log(g0)),
                     MU1 * math.log(g1) + MU0 * math.log(g0))


def attr_count(n: int, rho: float) -> int:
    """L_n = floor(rho ln n + 1/2), at least 1 (the CLI's default rounding)."""
    return max(1, math.floor(rho * math.log(n) + 0.5))


def kappa(rho: float) -> float:
    return 1.0 + rho * constants().log_gamma_bar


def mixture(l: int) -> list[tuple[float, float]]:
    """(P(S = s), p_s) for s = 0..l, with S ~ Bin(l, mu1)."""
    c = constants()
    return [(math.comb(l, s) * MU1 ** s * MU0 ** (l - s), c.gamma1 ** s * c.gamma0 ** (l - s))
            for s in range(l + 1)]


def degree_moments(n: int, l: int) -> tuple[float, float]:
    """Mean and variance of a node degree D ~ Bin(n - 1, p_S).

    E[D] = (n-1) (mu1 Gamma1 + mu0 Gamma0)^l and
    Var[D] = (n-1) E[p_S (1 - p_S)] + (n-1)^2 Var[p_S].
    """
    m = n - 1
    mix = mixture(l)
    ep = math.fsum(w * p for w, p in mix)
    ep2 = math.fsum(w * p * p for w, p in mix)
    return m * ep, m * (ep - ep2) + m * m * (ep2 - ep * ep)


def edge_count_moments(n: int, l: int) -> tuple[float, float]:
    """Mean and variance of the edge count of one graph.

    With P = (mu1 G1 + mu0 G0)^l the link probability of a pair and
    Q = (mu1 G1^2 + mu0 G0^2)^l that of two pairs sharing a node,
    E = n(n-1)/2 P and Var = n(n-1)/2 P(1-P) + n(n-1)(n-2) (Q - P^2).
    """
    c = constants()
    p = (MU1 * c.gamma1 + MU0 * c.gamma0) ** l
    q = (MU1 * c.gamma1 ** 2 + MU0 * c.gamma0 ** 2) ** l
    pairs = n * (n - 1) / 2
    return pairs * p, pairs * p * (1 - p) + n * (n - 1) * (n - 2) * (q - p * p)


def prob_zero(n: int, l: int) -> float:
    """P(D = 0) = E[(1 - p_S)^(n-1)]; no binomial coefficient, well conditioned."""
    return math.fsum(w * math.exp((n - 1) * math.log1p(-p)) for w, p in mixture(l))


def log_pmf(n: int, l: int, d: int) -> float:
    """ln P(D = d), with ln C(n-1, d) summed term by term (no cancellation)."""
    m = n - 1
    log_c = math.fsum(math.log(m - i) for i in range(d)) - math.lgamma(d + 1)
    terms = [math.log(w) + log_c + d * math.log(p) + (m - d) * math.log1p(-p)
             for w, p in mixture(l)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def log_pmf_tolerance(n: int) -> float:
    """Absolute tolerance on ln pmf: a few ulps of ln (n-1)!, the largest
    magnitude a double-precision log-gamma evaluation of C(n-1, d) forms."""
    return 1e-9 + 4.0 * DBL_EPS * math.lgamma(n)


def norm_scan_end(n: int, l: int) -> int:
    """A degree beyond which every conditional Bin(n-1, p_s) has tail < 1e-20."""
    mu = (n - 1) * max(p for _, p in mixture(l))
    return min(n - 1, math.ceil(mu + 12.0 * math.sqrt(mu) + 60.0))


def rejection_share(n: int, l: int, inversion_mean_max: float) -> float:
    """P((n-1) p_S > inversion_mean_max): the share of direct draws that
    take the sampler's non-inversion branch."""
    return math.fsum(w for w, p in mixture(l) if (n - 1) * p > inversion_mean_max)


def std_normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def cdf_approx(t: float, n: int, rho: float) -> float:
    """Phi(ln x_n(t) / |sigma|), the log-normal approximation of P(D <= t)."""
    if t == 0:
        return 0.0
    c = constants()
    l = attr_count(n, rho)
    expo = 1.0 + (l / math.log(n)) * c.log_gamma_bar
    return std_normal_cdf((math.log(t) - expo * math.log(n)) / (math.sqrt(l) * abs(c.sigma)))


def psi(x: float) -> float:
    return (x + 1.0) * math.log1p(x) - x


def bound_terms(n: int, rho: float, delta: float, eta: float,
                c_star: float = C_STAR) -> tuple[float, float, float, float]:
    """(term_clt, term_be, term_hoeffding, term_chernoff) of the certificate."""
    c = constants()
    l = attr_count(n, rho)
    term_clt = (math.log((1 + delta) / (1 - delta)) + math.log1p(1.0 / (n - 1))) \
        / math.sqrt(2.0 * math.pi * c.sigma ** 2 * l)
    term_be = (3.0 * c_star / math.sqrt(l)) * (MU1 ** 2 + MU0 ** 2) / math.sqrt(MU1 * MU0)
    term_hoeffding = 4.0 * math.exp(-2.0 * l * eta ** 2)
    ln_inner = math.log(n - 1) + l * ((MU1 + eta) * math.log(c.gamma1)
                                      + (MU0 + eta) * math.log(c.gamma0))
    term_chernoff = 0.0 if ln_inner > 700.0 else 2.0 * math.exp(-psi(delta) * math.exp(ln_inner))
    return term_clt, term_be, term_hoeffding, term_chernoff
