"""Homogeneous binary multiplicative attribute graph (MAG) model.

A graph on ``n`` nodes where every node carries ``l`` i.i.d. Bernoulli(mu1)
binary attributes.  Conditionally on the attribute rows ``a`` and ``b`` of
two nodes, an edge is present independently with probability

    Q = prod_j q(a_j, b_j),

where ``q`` is a symmetric 2x2 affinity matrix with entries strictly inside
(0, 1): q(1,1) = q11, q(1,0) = q(0,1) = q10, q(0,0) = q00.

Averaging one coordinate of the product over the attribute law gives the
two fundamental constants

    gamma1 = q11 * mu1 + q10 * mu0      (partner bit = 1)
    gamma0 = q10 * mu1 + q00 * mu0      (partner bit = 0),

whose ratio r = gamma1 / gamma0 and log-scale

    sigma0 = sqrt(mu0 * mu1),   sigma = sigma0 * ln r

drive every degree asymptotic in the package.  Attribute counts scale with
the node count through a rho-admissible rule ``l = L_n ~ rho * ln n``; the
criticality

    kappa = 1 + rho * ln(gamma1**mu1 * gamma0**mu0)

splits the model into a subcritical regime (kappa < 0, isolated nodes take
over) and a supercritical regime (kappa > 0, isolated nodes vanish).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import InvalidParamsError, RegimeError

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "Rounding",
    "Scaling",
    "Regime",
    "RegimeResult",
    "derive_constants",
    "criticality",
    "classify_regime",
    "require_supercritical",
    "REFERENCE_PARAMS",
    "BOUNDARY_TOL",
]

#: Half-open tolerance used to declare kappa "on the boundary".
BOUNDARY_TOL = 1e-12


# =====================================================================
# Parameters and derived constants
# =====================================================================

@dataclass(frozen=True)
class ModelParams:
    """Affinity matrix entries and attribute bias; all strictly in (0, 1)."""

    q11: float
    q10: float
    q00: float
    mu1: float

    def __post_init__(self) -> None:
        for name in ("q11", "q10", "q00", "mu1"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidParamsError(f"{name} must be a finite real, got {v!r}")
            if not 0.0 < v < 1.0:
                raise InvalidParamsError(f"{name} must lie strictly in (0, 1), got {v}")

    @property
    def mu0(self) -> float:
        return 1.0 - self.mu1


#: Default reference parameter set used throughout examples and experiments.
REFERENCE_PARAMS = ModelParams(q11=0.7, q10=0.2, q00=0.5, mu1=0.6)


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from :class:`ModelParams`.

    ``log_gamma_bar = mu1 * ln(gamma1) + mu0 * ln(gamma0)`` is the mean
    log edge-probability factor; it appears in every scaling exponent.
    """

    gamma0: float
    gamma1: float
    sigma0: float
    sigma: float
    r: float
    log_gamma0: float
    log_gamma1: float
    log_gamma_bar: float


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Compute the gamma/sigma/ratio constants of a parameter set."""
    mu1, mu0 = params.mu1, params.mu0
    gamma1 = params.q11 * mu1 + params.q10 * mu0
    gamma0 = params.q10 * mu1 + params.q00 * mu0
    log_gamma0 = math.log(gamma0)
    log_gamma1 = math.log(gamma1)
    sigma0 = math.sqrt(mu0 * mu1)
    sigma = sigma0 * (log_gamma1 - log_gamma0)
    return DerivedConstants(
        gamma0=gamma0,
        gamma1=gamma1,
        sigma0=sigma0,
        sigma=sigma,
        r=gamma1 / gamma0,
        log_gamma0=log_gamma0,
        log_gamma1=log_gamma1,
        log_gamma_bar=mu1 * log_gamma1 + mu0 * log_gamma0,
    )


# =====================================================================
# Attribute-count scaling
# =====================================================================

class Rounding(enum.Enum):
    """Integerization rule for the attribute count L_n = rho * ln n."""

    ROUND = "round"
    CEIL = "ceil"
    FLOOR = "floor"


@dataclass(frozen=True)
class Scaling:
    """rho-admissible attribute scaling: L_n ~ rho * ln n, L_n >= 1."""

    rho: float
    rounding: Rounding = field(default=Rounding.ROUND)

    def __post_init__(self) -> None:
        if not (isinstance(self.rho, (int, float)) and math.isfinite(self.rho) and self.rho > 0.0):
            raise InvalidParamsError(f"rho must be a finite positive real, got {self.rho!r}")
        if not isinstance(self.rounding, Rounding):
            raise InvalidParamsError(f"rounding must be a Rounding member, got {self.rounding!r}")

    def attr_count(self, n: int) -> int:
        """L_n: the integerized attribute count at node count ``n`` (>= 2)."""
        _check_n(n)
        x = self.rho * math.log(n)
        if self.rounding is Rounding.ROUND:
            l = math.floor(x + 0.5)  # half-up, deterministic
        elif self.rounding is Rounding.CEIL:
            l = math.ceil(x)
        else:
            l = math.floor(x)
        return max(1, l)

    def rho_n(self, n: int) -> float:
        """The effective ratio rho_n = L_n / ln n (exactly, no re-rounding)."""
        return self.attr_count(n) / math.log(n)


def _check_n(n: int) -> None:
    if not (isinstance(n, (int,)) and n >= 2):
        raise InvalidParamsError(f"n must be an integer >= 2, got {n!r}")


def _check_exact_n(n: int) -> None:
    """:func:`_check_n` plus n <= 2**53, for the exact law and the samplers:
    they hold node and degree counts as doubles, exact up to 2**53.  The
    asymptotic layers (limits, bounds) take any n."""
    _check_n(n)
    if n > 2 ** 53:
        raise InvalidParamsError(f"exact degree laws and sampling need n <= 2**53, got {n}")


# =====================================================================
# Regime classification
# =====================================================================

class Regime(enum.Enum):
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class RegimeResult:
    regime: Regime
    kappa: float
    rho: float


def criticality(params: ModelParams, rho: float) -> float:
    """kappa = 1 + rho * ln(gamma1**mu1 * gamma0**mu0)."""
    if not (math.isfinite(rho) and rho > 0.0):
        raise InvalidParamsError(f"rho must be a finite positive real, got {rho!r}")
    return 1.0 + rho * derive_constants(params).log_gamma_bar


def classify_regime(params: ModelParams, rho: float, tol: float = BOUNDARY_TOL) -> RegimeResult:
    """Classify (params, rho) by the sign of kappa.

    Supercritical iff kappa > tol, subcritical iff kappa < -tol, boundary
    otherwise.  Boundary classifications are rejected by the limit-theory
    and bound operations downstream.
    """
    kappa = criticality(params, rho)
    if kappa > tol:
        regime = Regime.SUPERCRITICAL
    elif kappa < -tol:
        regime = Regime.SUBCRITICAL
    else:
        regime = Regime.BOUNDARY
    return RegimeResult(regime=regime, kappa=kappa, rho=rho)


def require_supercritical(params: ModelParams, rho: float, what: str) -> RegimeResult:
    """Raise :class:`RegimeError` unless (params, rho) is supercritical."""
    res = classify_regime(params, rho)
    if res.regime is not Regime.SUPERCRITICAL:
        raise RegimeError(
            f"{what} requires the supercritical regime; "
            f"kappa = {res.kappa:.6g} at rho = {rho:.6g} is {res.regime.value}"
        )
    return res


def _require_lognormal_limit(params: ModelParams, rho: float, what: str) -> DerivedConstants:
    """Raise :class:`RegimeError` unless (params, rho) is supercritical with
    sigma != 0, the conditions of a nondegenerate log-normal limit."""
    require_supercritical(params, rho, what)
    c = derive_constants(params)
    if c.sigma == 0.0:
        raise RegimeError(f"sigma = 0 (gamma0 = gamma1): {what} is degenerate")
    return c
