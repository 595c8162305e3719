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

Both limits need the supercritical regime and sigma != 0.  The one gate
``model._lognormal_limit`` decides that and gives L_n, the centre
(1 + rho_n lgbar) ln n and |sigma|; ``kl_params`` and ``kl_reconciled_law``
hold in any regime and stay ungated.

Normal cdf evaluations go through the complementary error function,
``Phi(z) = erfc(-z / sqrt(2)) / 2``, accurate to ~1e-16 absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParamsError
from .model import ModelParams, Scaling, derive_constants, _as_reals, _check, _lognormal_limit
if TYPE_CHECKING:  # annotations only: approx needs no sampler
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
    """Phi(z) = erfc(-z / sqrt(2)) / 2, with the standard library's erfc, for
    finite real z: a scalar (returned as a float) or an array."""
    z, scalar = _as_reals("z", z, -math.inf)
    out = _phi(z)
    return float(out[0]) if scalar else out


def _phi(z: np.ndarray) -> np.ndarray:
    """Phi of a float64 array, +-inf included, with erfc elementwise; unchecked."""
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(-z / math.sqrt(2.0)).astype(np.float64)


@dataclass(frozen=True)
class LogNormalSpec:
    """The law of exp(N(m, sigma2)); cdf(x) = Phi((ln x - m)/sqrt(sigma2)).

    sigma2 = 0 is the degenerate point mass at exp(m) (step-function cdf).
    """

    m: float
    sigma2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check("m", self.m, -math.inf))
        sigma2 = _check("sigma2", self.sigma2, -math.inf)  # a real before it is compared
        object.__setattr__(self, "sigma2", _check("sigma2", sigma2, 0) if sigma2 != 0 else 0.0)


def _on_log_scale(name: str, x, lo: float, f):
    """f(ln x) where x > 0 and 0 elsewhere, for finite real x >= lo, checked by
    ``model._as_reals``: a scalar (returned as a float) or an array, both
    through the same numpy path, to the bit."""
    x, scalar = _as_reals(name, x, lo)
    out = np.zeros(x.shape)
    pos = x > 0.0
    out[pos] = f(np.log(x[pos]))
    return float(out[0]) if scalar else out


def lognormal_cdf(x, spec: LogNormalSpec):
    """P(exp(N(m, sigma2)) <= x) for finite real x; zero for x <= 0."""
    sd = math.sqrt(spec.sigma2)
    if sd == 0.0:
        return _on_log_scale("x", x, -math.inf, lambda u: u >= spec.m)
    return _on_log_scale("x", x, -math.inf, lambda u: _phi((u - spec.m) / sd))


# ---------------------------------------------------------------------
# The degree transform and its deterministic scale
# ---------------------------------------------------------------------

def transform_degree(d, n: int, scaling: Scaling, params: ModelParams):
    """Map degrees onto the log-normal scale.

    W(d) = exp( (ln d - (1 + rho_n * lgbar) * ln n) / sqrt(L_n) ) for finite d > 0;
    d = 0 maps to 0 by convention (the zero atom is handled by callers).
    """
    l, shift, _ = _lognormal_limit(params, n, scaling, "the log-normal degree limit")
    sq = math.sqrt(l)
    return _on_log_scale("degree", d, 0, lambda u: np.exp((u - shift) / sq))


def cdf_approx(t, n: int, scaling: Scaling, params: ModelParams):
    """Log-normal approximation of P(D <= t): Phi(ln x_n(t) / |sigma|), t >= 0."""
    l, shift, sd = _lognormal_limit(params, n, scaling, "the log-normal degree limit")
    scale = math.sqrt(l) * sd
    return _on_log_scale("t", t, 0, lambda u: _phi((u - shift) / scale))


# ---------------------------------------------------------------------
# Historical parameterization and its reconciliation
# ---------------------------------------------------------------------

def kl_params(params: ModelParams, n: int, scaling: Scaling) -> LogNormalSpec:
    """Mean/variance of ln D in the historical parameterization."""
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
    so the fraction tends to 1/2 for every fixed t > 0 as n grows; t must
    be a finite real > 0.
    """
    t = _check("t", t, 0)
    n = samples.n
    l, shift, _ = _lognormal_limit(samples.params, n, scaling, "the two-point ratio limit")
    _check_sample_l(samples, l)
    threshold = t * math.exp(shift)
    return float((samples.degrees <= threshold).mean())


def _check_sample_l(samples: DegreeSampleSet, l: int) -> None:
    """Refuse degree draws made at another attribute count than L_n = ``l``."""
    if samples.l != l:
        raise InvalidParamsError(
            f"sample set was drawn at l={samples.l}, but the scaling gives L_n={l} at n={samples.n}"
        )
