"""Log-normal degree asymptotics in the supercritical regime.

With L_n attributes at node count n (rho_n = L_n / ln n), the degree D of
a fixed node satisfies, in the supercritical regime,

    ( D * n**-(1 + rho_n * ln(gamma1**mu1 gamma0**mu0)) )**(1/sqrt(L_n))
        ==> LogNormal(0, sigma**2),        sigma = sigma0 * ln(gamma1/gamma0).

The deterministic change of variable behind the display
(``transform_degree``) is

    x_n(t) = ( t * n**-(1 + rho_n * lgbar) )**(1/sqrt(L_n)),   x_n(0) = 0,

so the cdf of D is approximated by Phi(ln x_n(t) / |sigma|) and the pmf by
differencing that approximation at consecutive integers.  An equivalent
historical parameterization states ln D ~ Normal(m_kl, sigma2_kl) with

    m_kl      = ln(n * gamma1**L_n) + L_n mu0 ln r_kl + (L_n/2) mu0 mu1 (ln r_kl)**2
    sigma2_kl = L_n mu1 mu0 (ln r_kl)**2,

which this module reconciles exactly with the display above (shift the
mean by half the variance).  The ratio D / n**(1 + rho_n lgbar) itself
converges to a two-point limit on {0, +inf}, each with probability 1/2;
``lambda_limit_probe`` estimates P(ratio <= t) from degree draws.

Normal cdf evaluations go through the complementary error function,
``Phi(z) = erfc(-z / sqrt(2)) / 2``, accurate to ~1e-16 absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import InvalidParamsError
from .model import (
    ModelParams,
    Scaling,
    derive_constants,
    require_supercritical,
    _check_n,
    _require_lognormal_limit,
)
from .sampler import DegreeSampleSet

__all__ = [
    "LogNormalSpec",
    "std_normal_cdf",
    "lognormal_cdf",
    "transform_degree",
    "cdf_approx",
    "kl_params",
    "kl_reconciled_law",
    "lambda_limit_probe",
]


def std_normal_cdf(z):
    """Phi(z) = erfc(-z / sqrt(2)) / 2 for scalars or arrays."""
    if np.isscalar(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))
    return 0.5 * scipy.special.erfc(-np.asarray(z, dtype=np.float64) / math.sqrt(2.0))


@dataclass(frozen=True)
class LogNormalSpec:
    """The law of exp(N(m, sigma2)); cdf(x) = Phi((ln x - m)/sqrt(sigma2)).

    sigma2 = 0 is the degenerate point mass at exp(m) (step-function cdf).
    """

    m: float
    sigma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and math.isfinite(self.sigma2)):
            raise InvalidParamsError("log-normal parameters must be finite")
        if self.sigma2 < 0.0:
            raise InvalidParamsError(f"sigma2 must be >= 0, got {self.sigma2}")


def lognormal_cdf(x, spec: LogNormalSpec):
    """P(exp(N(m, sigma2)) <= x); zero for x <= 0."""
    sd = math.sqrt(spec.sigma2)
    if np.isscalar(x):
        if x <= 0.0:
            return 0.0
        if sd == 0.0:
            return 1.0 if math.log(x) >= spec.m else 0.0
        return std_normal_cdf((math.log(x) - spec.m) / sd)
    x_arr = np.asarray(x, dtype=np.float64)
    out = np.zeros(x_arr.shape, dtype=np.float64)
    pos = x_arr > 0.0
    if sd == 0.0:
        out[pos] = (np.log(x_arr[pos]) >= spec.m).astype(np.float64)
        return out
    out[pos] = std_normal_cdf((np.log(x_arr[pos]) - spec.m) / sd)
    return out


# ---------------------------------------------------------------------
# The degree transform and its deterministic scale
# ---------------------------------------------------------------------

def _scale_exponent(params: ModelParams, n: int, scaling: Scaling) -> tuple[int, float]:
    """(L_n, 1 + rho_n * lgbar) with the supercritical gate applied."""
    _check_n(n)
    require_supercritical(params, scaling.rho, "the log-normal degree limit")
    l = scaling.attr_count(n)
    rho_n = l / math.log(n)
    c = derive_constants(params)
    return l, 1.0 + rho_n * c.log_gamma_bar


def transform_degree(d, n: int, scaling: Scaling, params: ModelParams):
    """Map degrees onto the log-normal scale.

    W(d) = exp( (ln d - (1 + rho_n * lgbar) * ln n) / sqrt(L_n) ) for d >= 1;
    d = 0 maps to 0 by convention (the zero atom is handled by callers).
    """
    l, expo = _scale_exponent(params, n, scaling)
    sq = math.sqrt(l)
    log_n = math.log(n)
    if np.isscalar(d):
        if d < 0:
            raise InvalidParamsError(f"degree must be >= 0, got {d}")
        if d == 0:
            return 0.0
        return math.exp((math.log(d) - expo * log_n) / sq)
    d_arr = np.asarray(d, dtype=np.float64)
    if np.any(d_arr < 0):
        raise InvalidParamsError("degrees must be >= 0")
    out = np.zeros(d_arr.shape, dtype=np.float64)
    pos = d_arr > 0
    out[pos] = np.exp((np.log(d_arr[pos]) - expo * log_n) / sq)
    return out


def cdf_approx(t, n: int, scaling: Scaling, params: ModelParams):
    """Log-normal approximation of P(D <= t): Phi(ln x_n(t) / |sigma|)."""
    l, expo = _scale_exponent(params, n, scaling)
    sd = abs(_require_lognormal_limit(params, scaling.rho, "the log-normal limit").sigma)
    sq = math.sqrt(l)
    log_n = math.log(n)
    if np.isscalar(t):
        if t < 0:
            raise InvalidParamsError(f"t must be >= 0, got {t}")
        if t == 0:
            return 0.0
        return std_normal_cdf((math.log(t) - expo * log_n) / (sq * sd))
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0):
        raise InvalidParamsError("t must be >= 0")
    out = np.zeros(t_arr.shape, dtype=np.float64)
    pos = t_arr > 0
    out[pos] = std_normal_cdf((np.log(t_arr[pos]) - expo * log_n) / (sq * sd))
    return out


# ---------------------------------------------------------------------
# Historical parameterization and its reconciliation
# ---------------------------------------------------------------------

def kl_params(params: ModelParams, n: int, scaling: Scaling) -> LogNormalSpec:
    """Mean/variance of ln D in the historical parameterization."""
    _check_n(n)
    l = scaling.attr_count(n)
    c = derive_constants(params)
    mu1, mu0 = params.mu1, params.mu0
    log_r_kl = c.log_gamma0 - c.log_gamma1
    m = (
        math.log(n) + l * c.log_gamma1
        + l * mu0 * log_r_kl
        + 0.5 * l * mu0 * mu1 * log_r_kl ** 2
    )
    sigma2 = l * mu1 * mu0 * log_r_kl ** 2
    return LogNormalSpec(m=m, sigma2=sigma2)


def kl_reconciled_law(params: ModelParams, n: int, scaling: Scaling) -> LogNormalSpec:
    """The historical law with its mean shifted down by half the variance,
    LogNormal((1 + rho_n * lgbar) ln n, sigma2_kl).

    The mean is formed in that closed form, the centre ``cdf_approx`` uses,
    not as m_kl - sigma2_kl / 2, which differs by an ulp or two; a cdf
    comparison divides that by the sd, below 1e-6 when gamma1 is near
    gamma0.  The shift identity itself is checked in relative terms.
    """
    c = derive_constants(params)
    m = (1.0 + scaling.rho_n(n) * c.log_gamma_bar) * math.log(n)
    return LogNormalSpec(m=m, sigma2=kl_params(params, n, scaling).sigma2)


# ---------------------------------------------------------------------
# Two-point ratio limit probe
# ---------------------------------------------------------------------

def lambda_limit_probe(t: float, samples: DegreeSampleSet, scaling: Scaling) -> float:
    """Empirical P(D / n**(1 + rho_n * lgbar) <= t) from degree draws.

    The ratio converges to a {0, +inf} two-point limit with equal mass,
    so the fraction tends to 1/2 for every fixed t > 0 as n grows.
    """
    if not (np.isscalar(t) and t > 0):
        raise InvalidParamsError(f"t must be a positive scalar, got {t!r}")
    n = samples.n
    l, expo = _scale_exponent(samples.params, n, scaling)
    _check_sample_l(samples, l)
    threshold = float(t) * math.exp(expo * math.log(n))
    return float((samples.degrees <= threshold).mean())


def _check_sample_l(samples: DegreeSampleSet, l: int) -> None:
    """Refuse degree draws made at another attribute count than L_n = ``l``."""
    if samples.l != l:
        raise InvalidParamsError(
            f"sample set was drawn at l={samples.l}, but the scaling gives L_n={l} at n={samples.n}"
        )
