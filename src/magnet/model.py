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

import contextlib
import enum
import itertools
import math
import os
import stat
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import InvalidParamsError, RegimeError

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "Scaling",
    "Regime",
    "RegimeResult",
    "derive_constants",
    "classify_regime",
    "REFERENCE_PARAMS",
    "BOUNDARY_TOL",
]

#: Half-open tolerance used to declare kappa "on the boundary".
BOUNDARY_TOL = 1e-12

#: Largest node count, attribute count and degree of the exact law and the
#: samplers: they hold these counts as doubles, exact up to 2**53.  The
#: asymptotic layers (limits, bounds) take any n.
EXACT_MAX = 2 ** 53

#: Table rows formed as one text in ``_rows`` and ``_char_rows``: by one
#: ``%``, or, for integer and character rows, from one byte buffer decoded once.
_WRITE_BLOCK = 1 << 14

DEFAULT_PAIR_BUDGET = 10 ** 9


class SampleMethod(enum.Enum):
    """How ``degrees`` draws: from a whole sampled graph, or directly."""

    FULL_GRAPH = "fullgraph"
    DIRECT = "direct"


def _as_reals(name: str, x, lo: float, hi: float = math.inf, integer: bool = False):
    """(``x`` as a float64 array of at least one dimension, whether ``x`` is a
    scalar); raise :class:`InvalidParamsError` unless ``x`` is a bool, int or
    float scalar or a nonempty array of those, all finite, in [lo, hi] and, with
    ``integer``, whole.  It checks every array-or-scalar numeric input."""
    import numpy as np  # on the first call: ``import magnet`` stays numpy-free
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nesting: refused as empty
        a = np.array([])
    # str, bytes, None, objects and ints past uint64 take other dtypes: refused as empty
    a = a.astype(np.float64, copy=False) if a.dtype.kind in "biuf" else np.array([])
    if not (a.size and (np.isfinite(a) & (a >= lo) & (a <= hi)
                        & (not integer or a == np.floor(a))).all()):
        raise InvalidParamsError(f"{name} must be {'integers' if integer else 'finite reals'}"
                                 f" in [{lo}, {hi}], as a scalar or a nonempty array")
    return np.atleast_1d(a), a.ndim == 0


def _check(name: str, value, lo: float, hi: float = math.inf, integer: bool = False):
    """``value`` as an int in [lo, hi] with ``integer``, else as a float in
    (lo, hi); raise :class:`InvalidParamsError` unless it is an int or numpy
    integer scalar (not a bool) or, without ``integer``, one of those or a float
    or numpy float scalar, with a finite double.  It checks every scalar input."""
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    ints, reals = ((int,), (float,)) if np is None else ((int, np.integer), (float, np.floating))
    if integer:
        x = int(value) if isinstance(value, ints) and not isinstance(value, bool) else math.nan
        if not lo <= x <= hi:
            raise InvalidParamsError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
        return x
    try:
        x = float(value) if isinstance(value, ints + reals) else math.nan
    except OverflowError:  # an int past the double range
        x = math.nan
    if not lo < x < hi:
        raise InvalidParamsError(f"{name} must be a finite real in ({lo}, {hi}), got {value!r}")
    return x


def _rows(fmt: str, *columns) -> Iterator[str]:
    """Rows ``fmt % (c[i] for c in columns)`` of equal-length arrays, as one
    newline-separated text per block of at most ``_WRITE_BLOCK`` rows; the
    package's one table row formatter.  A format of literal text and ``%d``
    conversions only, over integer arrays, has its rows formed digit by
    digit (``_digit_rows``); any other block is formed by one ``%``."""
    parts = fmt.split("%d")
    digits = (len(parts) == len(columns) + 1 and "%" not in "".join(parts)
              and all(c.dtype.kind in "iu" for c in columns))
    for lo in range(0, len(columns[0]), _WRITE_BLOCK):
        block = [c[lo:lo + _WRITE_BLOCK] for c in columns]
        if digits:
            yield _digit_rows(parts, block)
        else:
            rows = list(zip(*(c.tolist() for c in block)))
            yield "\n".join([fmt] * len(rows)) % tuple(itertools.chain.from_iterable(rows))


def _digit_rows(parts: list[str], columns) -> str:
    """The rows ``"%d".join(parts) % row`` of nonempty integer arrays
    ``columns``, newline-separated.  Rows are laid out at a fixed width in
    one uint8 matrix: the literal parts, then per column a '-' and its
    digits right-aligned, formed by repeated division by 10.  The '-' of a
    nonnegative value and the leading zeros are masked out, and the kept
    characters, row by row, are decoded at once."""
    import numpy as np
    texts = [part.encode() for part in parts[:-1]] + [parts[-1].encode() + b"\n"]
    fields = []  # each column's magnitude, digit count and sign (None if unsigned)
    for column in columns:
        mag, sign = column.astype(np.uint64), None
        if column.dtype.kind == "i":  # the magnitude of x < 0 as 2**64 + x, negated
            sign = column < 0
            np.negative(mag, out=mag, where=sign)
        top = mag.max()
        # the narrowest type that holds the block divides fastest
        fields.append((mag.astype(np.min_scalar_type(top)), len(str(top)), sign))
    width = sum(map(len, texts)) + sum(digits + (sign is not None) for _, digits, sign in fields)
    chars = np.empty((len(columns[0]), width), np.uint8)
    keep = np.ones(chars.shape, bool)
    at = 0
    for text, field in zip(texts, [*fields, None]):
        chars[:, at:at + len(text)] = np.frombuffer(text, np.uint8)
        at += len(text)
        if field is None:
            break
        mag, digits, sign = field
        if sign is not None:
            chars[:, at], keep[:, at] = ord("-"), sign
            at += 1
        for j in reversed(range(at, at + digits)):
            np.greater(mag, 0, out=keep[:, j])  # not a leading zero
            rest = mag // 10
            chars[:, j] = mag - rest * 10 + ord("0")
            mag = rest
        at += digits
        keep[:, at - 1] = True  # 0 is written as one digit
    return chars[keep][:-1].tobytes().decode()


def _char_rows(chars) -> Iterator[str]:
    """The rows of a uint8 character matrix whose last column holds newlines,
    as one text per block of at most ``_WRITE_BLOCK`` rows, each decoded at
    once and without its last newline."""
    for lo in range(0, len(chars), _WRITE_BLOCK):
        yield chars[lo:lo + _WRITE_BLOCK].tobytes()[:-1].decode()


def _write_out(target: str | IO[str], texts: Iterable[str]) -> None:
    """Write each of ``texts`` (a line, or a block of up to 2**14 table rows
    from ``_rows`` or ``_char_rows``) and a newline to a path or an open
    text stream; the package's one text writer.  A path is opened once the
    first text is formed.  A new path, or a regular file of the caller's with
    one link, is written beside it and moved onto it at the end, so a failed
    call leaves its old bytes or no file.  Any other path, or one beside which
    no file can be made, is written in place; a regular one is removed on failure."""
    lines = (text + "\n" for text in texts)
    if not isinstance(target, str):
        target.writelines(lines)
        return
    first = next(lines, "")
    st, tmp = (os.lstat(target) if os.path.lexists(target) else None), None
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                      and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())):
        name = f"{target}.{os.urandom(6).hex()}.tmp"  # fresh: no file a killed call left blocks it
        with contextlib.suppress(OSError):  # an unwritable directory, a name too long
            fh, tmp = open(name, "x", encoding="utf-8"), name
    fh = open(target, "w", encoding="utf-8") if tmp is None else fh
    try:
        with fh:
            if tmp and st:  # the replaced file's permission bits
                os.chmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            fh.writelines(itertools.chain([first], lines))
        if tmp:
            os.replace(tmp, target)
    except BaseException:
        if tmp or stat.S_ISREG(os.lstat(target).st_mode):
            os.remove(tmp or target)
        raise


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
            object.__setattr__(self, name, _check(name, getattr(self, name), 0, 1))

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

@dataclass(frozen=True)
class Scaling:
    """rho-admissible attribute scaling: L_n = round(rho * ln n), rounding
    half up, and at least 1."""

    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _check("rho", self.rho, 0))

    def attr_count(self, n: int) -> int:
        """L_n: the integerized attribute count at node count ``n`` (>= 2)."""
        n = _check("n", n, 2, integer=True)
        x = self.rho * math.log(n)
        if not math.isfinite(x):
            raise InvalidParamsError(f"rho * ln n overflows at rho = {self.rho!r}, n = {n}")
        return max(1, math.floor(x + 0.5))

    def rho_n(self, n: int) -> float:
        """The effective ratio rho_n = L_n / ln n (exactly, no re-rounding)."""
        return self.attr_count(n) / math.log(n)


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


def classify_regime(params: ModelParams, rho: float) -> RegimeResult:
    """Classify (params, rho) by the sign of the criticality
    kappa = 1 + rho * ln(gamma1**mu1 * gamma0**mu0).

    Supercritical iff kappa > BOUNDARY_TOL, subcritical iff kappa <
    -BOUNDARY_TOL, boundary otherwise.  Boundary classifications are
    rejected by the limit-theory and bound operations downstream.
    """
    rho = _check("rho", rho, 0)
    kappa = 1.0 + rho * derive_constants(params).log_gamma_bar
    if kappa > BOUNDARY_TOL:
        regime = Regime.SUPERCRITICAL
    elif kappa < -BOUNDARY_TOL:
        regime = Regime.SUBCRITICAL
    else:
        regime = Regime.BOUNDARY
    return RegimeResult(regime=regime, kappa=kappa, rho=rho)


def _lognormal_limit(params: ModelParams, n: int, scaling: Scaling,
                     what: str) -> tuple[int, float, float]:
    """(L_n, centre (1 + rho_n * lgbar) * ln n, |sigma|) of the log-normal
    degree limit at ``n``; the package's one gate for that limit, raising
    :class:`RegimeError` unless (params, rho) is supercritical with sigma != 0."""
    l = scaling.attr_count(n)
    res = classify_regime(params, scaling.rho)
    if res.regime is not Regime.SUPERCRITICAL:
        raise RegimeError(
            f"{what} requires the supercritical regime; "
            f"kappa = {res.kappa:.6g} at rho = {scaling.rho:.6g} is {res.regime.value}"
        )
    c = derive_constants(params)
    if c.sigma == 0.0:
        raise RegimeError(f"sigma = 0 (gamma0 = gamma1): {what} is degenerate")
    return l, (1.0 + scaling.rho_n(n) * c.log_gamma_bar) * math.log(n), abs(c.sigma)
