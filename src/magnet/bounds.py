"""Explicit error certificates for the log-normal degree approximation.

The Kolmogorov distance between the transformed degree law and its
log-normal limit is bounded, for any delta in (0, 1) and eta in (0, mu1),
by the sum of four closed-form terms:

    term_clt       = ln( (1+delta)/(1-delta) * n/(n-1) ) / sqrt(2 pi sigma**2 L_n)
    term_be        = 3 C* / sqrt(L_n) * (mu1**2 + mu0**2) / sqrt(mu1 mu0)
    term_hoeffding = 4 exp(-2 L_n eta**2)
    term_chernoff  = 2 exp( -Psi(delta) (n-1) (gamma1**(mu1+eta) gamma0**(mu0+eta))**L_n )

with Psi(x) = (x+1) ln(x+1) - x and C* = 0.4748 the best proven
Berry-Esseen constant (Shevtsova 2011).  Totals at or above 1 certify
nothing; they are returned flagged as vacuous rather than rejected, since
the terms decay only on astronomical scales for typical parameters.
Both evaluators take L_n from the one log-normal gate
``model._lognormal_limit``, which refuses all but the supercritical regime
with sigma != 0.  Printed certificates are evaluated with libm (``math``),
and the optimiser's (delta, eta) grid with numpy.  That grid is fixed:
``GridSpec`` takes no arguments and holds 200 log-uniform delta in
[1e-4, 1 - 1e-4] by 200 log-uniform eta in mu1 * [1e-4, 1 - 1e-4].

The same Psi drives a standalone concentration bound for the ratio of a
degree to its conditional mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .model import (
    EXACT_MAX, ModelParams, Scaling, derive_constants, _as_reals, _check,
    _lognormal_limit, _write_out,
)

__all__ = [
    "C_STAR",
    "psi",
    "BoundCertificate",
    "GridSpec",
    "default_eta",
    "berry_esseen_bound",
    "optimize_bound",
    "ratio_concentration_bound",
    "write_bound_csv",
]

#: Berry-Esseen constant; a smaller one voids the certificate, a larger one loosens it.
C_STAR = 0.4748

#: exp() arguments beyond this are treated as overflow -> term collapses to 0.
_EXP_MAX = 700.0


def psi(x):
    """Psi(x) = (x+1) ln(x+1) - x for finite real x > -1, a scalar (through
    libm) or an array; Psi(0) = 0, Psi >= x^2/(2(1+x))."""
    a, scalar = _as_reals("psi's x", x, math.nextafter(-1.0, 0.0))
    x, xp = (float(a[0]), math) if scalar else (a, np)
    return (x + 1.0) * xp.log1p(x) - x


@dataclass(frozen=True)
class BoundCertificate:
    """One evaluated certificate; ``vacuous`` means total >= 1."""

    n: int
    l: int
    delta: float
    eta: float
    term_clt: float
    term_be: float
    term_hoeffding: float
    term_chernoff: float

    @property
    def total(self) -> float:
        return self.term_clt + self.term_be + self.term_hoeffding + self.term_chernoff

    @property
    def vacuous(self) -> bool:
        return self.total >= 1.0


def default_eta(params: ModelParams) -> float:
    """Default Hoeffding margin: min(mu1, mu0) / 4."""
    eta = min(params.mu1, params.mu0) / 4.0
    if eta == 0.0:  # mu0 = 1 - mu1 is at least 2**-53
        raise InvalidParamsError(f"mu1 = {params.mu1!r} is too small: the default eta, "
                                 "mu1/4, underflows to 0")
    return eta


def _tail_terms(params: ModelParams, n: int, l: int, delta, eta, xp):
    """(term_hoeffding, term_chernoff) at (delta, eta), through ``xp``
    (``math`` for floats, ``numpy`` for arrays, which broadcast).

    The Chernoff term collapses to 0 once its inner exponent passes
    ``_EXP_MAX``.
    """
    c = derive_constants(params)
    hoeffding = 4.0 * xp.exp(-2.0 * l * eta ** 2)
    ln_inner = math.log(n - 1) + l * (
        (params.mu1 + eta) * c.log_gamma1 + (params.mu0 + eta) * c.log_gamma0
    )
    inner = xp.exp(np.minimum(ln_inner, _EXP_MAX))
    chernoff = 2.0 * xp.exp(-psi(delta) * inner) * (ln_inner <= _EXP_MAX)
    return hoeffding, chernoff


def _certificate_terms(params: ModelParams, n: int, l: int, delta, eta, xp):
    """(term_clt, term_be, term_hoeffding, term_chernoff), through ``xp`` as in
    :func:`_tail_terms`; 1 / (n - 1) on ints is correctly rounded, 0.0 past floats."""
    c = derive_constants(params)
    mu1, mu0 = params.mu1, params.mu0
    clt = (
        xp.log((1.0 + delta) / (1.0 - delta)) + math.log1p(1 / (n - 1))
    ) / math.sqrt(2.0 * math.pi * c.sigma ** 2 * l)
    be = (3.0 * C_STAR / math.sqrt(l)) * (mu1 ** 2 + mu0 ** 2) / math.sqrt(mu1 * mu0)
    return (clt, be, *_tail_terms(params, n, l, delta, eta, xp))


def berry_esseen_bound(params: ModelParams, n: int, scaling: Scaling,
                       delta: float, eta: float | None = None) -> BoundCertificate:
    """Evaluate the four-term certificate at (n, delta, eta)."""
    n = _check("n", n, 2, integer=True)
    l, _, _ = _lognormal_limit(params, n, scaling, "the Berry-Esseen certificate")
    delta = _check("delta", delta, 0, 1)
    eta = _check("eta", default_eta(params) if eta is None else eta, 0, params.mu1)
    # libm, not numpy: the two disagree in the last bit on some inputs, and
    # printed certificates keep their bytes
    clt, be, hoeffding, chernoff = _certificate_terms(params, n, l, delta, eta, math)
    return BoundCertificate(
        n=n, l=l, delta=delta, eta=eta,
        term_clt=clt, term_be=be, term_hoeffding=hoeffding, term_chernoff=chernoff,
    )


class GridSpec:
    """The fixed (delta, eta) grid of ``optimize_bound`` (module docstring)."""

    n_delta = 200
    n_eta = 200
    delta_lo = 1e-4
    delta_hi = 1.0 - 1e-4
    eta_lo_frac = 1e-4
    eta_hi_frac = 1.0 - 1e-4

    def deltas(self) -> np.ndarray:
        return np.geomspace(self.delta_lo, self.delta_hi, self.n_delta)

    def etas(self, mu1: float) -> np.ndarray:
        if mu1 * self.eta_lo_frac == 0.0:
            raise InvalidParamsError(f"mu1 = {mu1!r} is too small: the grid's least eta, "
                                     f"mu1*{self.eta_lo_frac}, underflows to 0")
        return mu1 * np.geomspace(self.eta_lo_frac, self.eta_hi_frac, self.n_eta)


def optimize_bound(params: ModelParams, n: int, scaling: Scaling) -> BoundCertificate:
    """Minimize the certificate total over the ``GridSpec()`` (delta, eta) grid.

    Ties break toward the smaller delta, then the smaller eta, which the
    ascending row-major scan realizes as "first minimum wins".
    """
    n = _check("n", n, 2, integer=True)
    l, _, _ = _lognormal_limit(params, n, scaling, "the Berry-Esseen certificate")
    grid = GridSpec()
    deltas = grid.deltas()
    etas = grid.etas(params.mu1)
    t_clt, t_be, t_hoef, t_chern = _certificate_terms(params, n, l, deltas[:, None], etas, np)
    total = t_clt + t_be + t_hoef + t_chern
    flat = int(np.argmin(total))  # first minimum: smallest delta, then eta
    i, j = divmod(flat, len(etas))
    return berry_esseen_bound(params, n, scaling, deltas[i], etas[j])


def ratio_concentration_bound(params: ModelParams, n: int, l: int,
                              delta: float, eta: float) -> float:
    """Bound on P(|D / E[D | S] - 1| > delta):

    4 exp(-2 l eta**2) + 2 exp(-Psi(delta) (n-1) (gamma1**(mu1+eta) gamma0**(mu0+eta))**l).

    Valid in every regime; delta may be any positive real.
    """
    n = _check("n", n, 2, integer=True)
    l = _check("l", l, 1, EXACT_MAX, integer=True)
    delta = _check("delta", delta, 0)
    eta = _check("eta", eta, 0, params.mu1)
    hoeffding, chernoff = _tail_terms(params, n, l, delta, eta, math)  # libm, as above
    return hoeffding + chernoff


def write_bound_csv(target, certificates: list[BoundCertificate]) -> None:
    """CSV: n,delta,eta,term_clt,term_be,term_hoeffding,term_chernoff,total,vacuous."""
    lines = ["n,delta,eta,term_clt,term_be,term_hoeffding,term_chernoff,total,vacuous"]
    for c in certificates:
        lines.append(
            f"{c.n},{c.delta:.17g},{c.eta:.17g},{c.term_clt:.17g},{c.term_be:.17g},"
            f"{c.term_hoeffding:.17g},{c.term_chernoff:.17g},{c.total:.17g},"
            f"{str(c.vacuous).lower()}"
        )
    _write_out(target, lines)
