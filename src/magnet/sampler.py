"""Exact samplers for MAG graphs and node degrees.

Two routes produce degrees with identical laws:

* ``sample_graph`` materializes the whole graph: attribute rows are
  bit-packed into uint64 words, each unordered pair (u, v) gets one
  uniform, and the edge test compares it against
  ``exp(c11 ln q11 + c10 ln q10 + c00 ln q00)`` where c11/c10 come from
  popcounts of AND/XOR of the packed rows and ``c00 = l - c11 - c10``.
  While the distinct attribute rows (classes) are few enough for a table
  over class pairs to hold O(n) entries, the edge test reads these
  probabilities from that table, built once per graph with the same
  formula, so the doubles are the same.  Pairs are tested in blocks of
  consecutive pair indices.

* ``sample_degrees_direct`` skips the graph and draws from the compound
  binomial directly: S ~ Bin(l, mu1), then D ~ Bin(n - 1, p_S).  Binomial
  draws are exact-distribution and vectorized over draws: sequential
  inversion when the mean of Bin(n - 1, min(p, 1 - p)) is at most
  ``INVERSION_MEAN_MAX``, otherwise Hörmann's (1993) transformed rejection
  with squeeze (BTRS), whose acceptance test evaluates the log pmf in
  Loader's saddle-point form.  No normal approximation anywhere.

All randomness is counter-based (see ``_rng``): every value is a pure
function of ``(seed, stream tag, index)``, so outputs are independent of
chunking and thread count, and replicate r of a batch equals the graph
sampled standalone with replicate r's derived seed.
"""

from __future__ import annotations

import concurrent.futures
import enum
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from . import _rng
from .errors import BudgetError, InvalidParamsError
from .model import ModelParams, derive_constants, _check_exact_n
from .degree_dist import _binomial_log_pmf, _check_l, _write_out

__all__ = [
    "SampleMethod",
    "MagGraph",
    "DegreeSampleSet",
    "sample_graph",
    "sample_degrees_direct",
    "sample_degrees_fullgraph",
    "write_edge_list",
    "write_attributes",
    "write_degrees_csv",
]

DEFAULT_PAIR_BUDGET = 10 ** 9

#: Binomial draws whose mean, taken for the smaller of p and 1 - p, is at
#: or below this use sequential inversion, the others BTRS (which needs a
#: mean of at least 10).
INVERSION_MEAN_MAX = 30.0

#: Target element count per vectorized work chunk.
_CHUNK_ELEMS = 1 << 22

#: Pairs per edge-test block of ``sample_graph``.
_BLOCK_PAIRS = 1 << 16

#: ``sample_graph`` tabulates link probabilities over attribute classes
#: while the table has at most this many entries per node.
_TABLE_ENTRIES_PER_NODE = 64


# =====================================================================
# Bit-packed attribute rows
# =====================================================================

def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 arrays of shape (..., l) into uint64 words (..., ceil(l/64))."""
    bits = np.asarray(bits, dtype=np.uint8)
    *lead, l = bits.shape
    n_bytes = -(-l // 8)
    if l % 8:  # whole bytes per row, so that the flat array packs row by row
        bits = np.concatenate([bits, np.zeros((*lead, 8 * n_bytes - l), np.uint8)], axis=-1)
    packed = np.packbits(bits.reshape(-1), bitorder="little").reshape(*lead, n_bytes)
    words = np.zeros((*lead, (l + 63) // 64 * 8), dtype=np.uint8)
    words[..., :n_bytes] = packed
    return words.view(np.uint64)


def unpack_rows(words: np.ndarray, l: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: (..., W) uint64 -> (..., l) uint8."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :l]


def _log_link(row: np.ndarray, others: np.ndarray, l: int, params: ModelParams) -> np.ndarray:
    """ln prod_j q(a_j, b_j) of packed ``row`` against each packed row of ``others``.

    c11 and c10 are popcounts of AND and XOR over the word axis, and
    c00 = l - c11 - c10.
    """
    c11, c10 = (np.bitwise_count(w).sum(axis=-1, dtype=np.int64)
                for w in (row & others, row ^ others))
    c00 = l - c11 - c10
    return c11 * math.log(params.q11) + c10 * math.log(params.q10) + c00 * math.log(params.q00)


# =====================================================================
# Result containers
# =====================================================================

class SampleMethod(enum.Enum):
    FULL_GRAPH = "fullgraph"
    DIRECT = "direct"


@dataclass(frozen=True)
class MagGraph:
    """A sampled MAG graph: packed attribute rows plus a sorted edge array.

    Edges are unordered pairs stored as rows (u, v) with u < v, sorted
    lexicographically; the graph is simple (no self-loops, no duplicates).
    """

    params: ModelParams
    n: int
    l: int
    seed: int
    attr_words: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(np.int64)

    def attribute_matrix(self) -> np.ndarray:
        return unpack_rows(self.attr_words, self.l)


@dataclass(frozen=True)
class DegreeSampleSet:
    """Monte Carlo degree draws with full provenance."""

    params: ModelParams
    n: int
    l: int
    seed: int
    method: SampleMethod
    degrees: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return int(self.degrees.shape[0])


# =====================================================================
# Full-graph sampling
# =====================================================================

def _attr_bits_for_seed(seeds: np.ndarray, n: int, l: int, mu1: float) -> np.ndarray:
    """Attribute bit matrices, one per seed: shape (len(seeds), n, l) uint8."""
    keys = _rng.stream_key(seeds, _rng.TAG_ATTR_BITS)
    u = _rng.uniforms_at(keys[:, None], np.arange(n * l, dtype=np.uint64))
    return (u < mu1).astype(np.uint8).reshape(len(seeds), n, l)


def _pair_index(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Linear index of pair (u, v), u < v, in row-major upper-triangle order."""
    return u * n - (u * (u + 1)) // 2 + (v - u - 1)


def _edge_test(p: np.ndarray, key, first: int) -> np.ndarray:
    """Edge indicators of the consecutive pairs ``first``, ``first`` + 1, ...
    along the last axis of ``p``, their link probabilities: a pair is an
    edge when its uniform is at most its probability.

    ``key`` is the pair-uniform stream key and broadcasts like
    ``_rng.uniforms_at``.
    """
    unif = _rng.uniforms_at(key, np.arange(first, first + p.shape[-1], dtype=np.uint64))
    return unif <= p


def _row_probabilities(words: np.ndarray, l: int, params: ModelParams):
    """Link probabilities of node u towards nodes u+1..n-1, as a function of u.

    While the attribute classes (distinct rows) are few, K^2 <= 64 n, they
    come from a K x K table of ``exp(_log_link(...))`` over the classes,
    built once; otherwise each row is evaluated directly.  Equal rows give
    equal popcounts, so both ways give the same doubles.
    """
    n = len(words)
    classes, cls = np.unique(words, axis=0, return_inverse=True)
    if len(classes) ** 2 > _TABLE_ENTRIES_PER_NODE * n:
        return lambda u: np.exp(_log_link(words[u], words[u + 1:], l, params))
    table = np.array([np.exp(_log_link(c, classes, l, params)) for c in classes])
    cls = cls.reshape(-1)  # numpy 2.0.0 kept a trailing axis here
    return lambda u: table[cls[u]].take(cls[u + 1:])


def sample_graph(params: ModelParams, n: int, l: int, seed: int,
                 pair_budget: int = DEFAULT_PAIR_BUDGET) -> MagGraph:
    """Sample one MAG graph at (params, n, l) under ``seed``.

    Raises :class:`BudgetError` when n(n-1)/2 exceeds ``pair_budget``.
    """
    _check_exact_n(n)
    _check_l(l)
    _check_seed(seed)
    _check_pair_budget(n, pair_budget)

    bits = _attr_bits_for_seed(np.array([seed], dtype=np.uint64), n, l, params.mu1)[0]
    words = pack_rows(bits)
    probs = _row_probabilities(words, l, params)

    key_pair = _rng.stream_key(seed, _rng.TAG_PAIR_UNIF)
    rows = np.arange(n, dtype=np.int64)
    starts = _pair_index(rows, rows + 1, n)  # row u's first pair; starts[n-1] = n(n-1)/2
    hits: list[np.ndarray] = []
    u0 = 0
    while u0 < n - 1:
        u1 = min(n - 1, max(u0 + 1, int(np.searchsorted(starts, starts[u0] + _BLOCK_PAIRS))))
        p = np.concatenate([probs(u) for u in range(u0, u1)])
        hits.append(np.flatnonzero(_edge_test(p, key_pair, int(starts[u0]))) + starts[u0])
        u0 = u1
    pairs = np.concatenate(hits)
    u = np.searchsorted(starts, pairs, side="right") - 1
    edges = np.stack([u, pairs - starts[u] + u + 1], axis=1)
    return MagGraph(params=params, n=n, l=l, seed=seed, attr_words=words, edges=edges)


def replicate_seed(seed: int, r: int) -> int:
    """Derived seed of replicate ``r`` in a batch experiment under ``seed``."""
    return _rng.word_at(_rng.stream_key(seed, _rng.TAG_REPLICATE), r)


def sample_degrees_fullgraph(params: ModelParams, n: int, l: int, count: int, seed: int,
                             threads: int = 1,
                             pair_budget: int = DEFAULT_PAIR_BUDGET) -> DegreeSampleSet:
    """Node-0 degrees of ``count`` independently sampled graphs.

    Replicate r uses the derived seed ``replicate_seed(seed, r)`` and its
    degree equals ``sample_graph(..., replicate_seed(seed, r)).degrees()[0]``
    realization for realization; only the node-0-incident uniforms and the
    attribute rows are evaluated, which is what makes batches affordable.
    Raises :class:`BudgetError` when n(n-1)/2 exceeds ``pair_budget``.
    """
    _check_exact_n(n)
    _check_l(l)
    _check_seed(seed)
    _check_count(count)
    _check_pair_budget(n, pair_budget)

    out = np.empty(count, dtype=np.int64)
    rep_key = _rng.stream_key(seed, _rng.TAG_REPLICATE)

    def work(i0: int, i1: int) -> None:
        seeds = _rng.words_at(rep_key, np.arange(i0, i1, dtype=np.uint64))
        words = pack_rows(_attr_bits_for_seed(seeds, n, l, params.mu1))  # (R, n, W)
        pair_keys = _rng.stream_key(seeds, _rng.TAG_PAIR_UNIF)
        log_p = _log_link(words[:, :1], words[:, 1:], l, params)  # (R, n-1)
        hits = _edge_test(np.exp(log_p), pair_keys[:, None], 0)  # node 0's pairs: 0..n-2
        out[i0:i1] = hits.sum(axis=1, dtype=np.int64)

    _run_chunks(work, count, n * l, threads)
    return DegreeSampleSet(params=params, n=n, l=l, seed=seed,
                           method=SampleMethod.FULL_GRAPH, degrees=out)


# =====================================================================
# Direct compound-binomial sampling
# =====================================================================

def sample_degrees_direct(params: ModelParams, n: int, l: int, count: int, seed: int,
                          threads: int = 1) -> DegreeSampleSet:
    """``count`` exact draws of D: S ~ Bin(l, mu1), then D ~ Bin(n-1, p_S)."""
    _check_exact_n(n)
    _check_l(l)
    _check_seed(seed)
    _check_count(count)
    c = derive_constants(params)
    key_s = _rng.stream_key(seed, _rng.TAG_DIRECT_S)
    key_u = _rng.stream_key(seed, _rng.TAG_DIRECT_U)
    key_btrs = _rng.stream_key(seed, _rng.TAG_DIRECT_BTRS)
    m = n - 1
    out = np.empty(count, dtype=np.int64)

    def work(i0: int, i1: int) -> None:
        idx = np.arange(i0, i1, dtype=np.uint64)
        first_bit = idx * np.uint64(l)
        s = np.zeros(len(idx), dtype=np.int64)
        for j in range(l):
            s += _rng.uniforms_at(key_s, first_bit + np.uint64(j)) < params.mu1
        log_p = s * c.log_gamma1 + (l - s) * c.log_gamma0
        p = np.exp(log_p)
        d = np.empty(len(idx), dtype=np.int64)

        inv = m * np.minimum(p, 1.0 - p) <= INVERSION_MEAN_MAX
        if inv.any():
            u = _rng.uniforms_at(key_u, idx[inv])
            d[inv] = _binomial_inversion(m, p[inv], u)
        rej = ~inv
        if rej.any():
            d[rej] = _binomial_btrs(m, p[rej], key_btrs, idx[rej])
        out[i0:i1] = d

    _run_chunks(work, count, l, threads)
    return DegreeSampleSet(params=params, n=n, l=l, seed=seed,
                           method=SampleMethod.DIRECT, degrees=out)


def _binomial_inversion(m: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact binomial quantile at uniforms ``u``: min{k : P(X <= k) >= u}.

    Sequential search from k = 0 with the pmf ratio recurrence; when
    p > 1/2 the complement Bin(m, 1-p) is inverted at 1-u instead, which
    keeps iteration counts at O(mean).  Exact up to double rounding.
    """
    flip = p > 0.5
    p_eff = np.where(flip, 1.0 - p, p)
    u_eff = np.where(flip, 1.0 - u, u)

    pf = np.exp(m * np.log1p(-p_eff))
    cdf = pf.copy()
    k = np.zeros(p.shape, dtype=np.int64)
    odds = p_eff / (1.0 - p_eff)
    active = np.nonzero(cdf < u_eff)[0]
    kk = 0
    while active.size and kk < m:
        ratio = ((m - kk) / (kk + 1.0)) * odds[active]
        pf[active] *= ratio
        cdf[active] += pf[active]
        kk += 1
        k[active] = kk
        still = cdf[active] < u_eff[active]
        # Guard against stalling once the pmf underflows; the residual
        # probability mass at that point is below 1e-300.
        still &= pf[active] > 0.0
        active = active[still]
    return np.where(flip, m - k, k)


def _binomial_btrs(m: int, p: np.ndarray, key: int, idx: np.ndarray) -> np.ndarray:
    """Exact Bin(m, p) draws by transformed rejection with squeeze (BTRS).

    Hörmann (1993), "The generation of binomial random variates", J. Stat.
    Comput. Simul. 46; needs m * min(p, 1 - p) >= 10.  As in
    :func:`_binomial_inversion`, p > 1/2 draws Bin(m, 1 - p) and returns
    m minus it.  Attempt a of draw ``idx[i]`` takes its two uniforms from
    positions 2 idx[i] and 2 idx[i] + 1 of the stream keyed
    ``_rng.word_at(key, a)``, so every draw is a pure function of (key,
    draw index, attempt).  The loop runs over attempts, each on the draws
    still pending.
    """
    flip = p > 0.5
    p = np.where(flip, 1.0 - p, p)
    spq = np.sqrt(m * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = m * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    mode = np.floor((m + 1) * p)

    k = np.empty(len(p))
    pending = np.arange(len(p))
    attempt = 0
    # u = -1/2 gives us = 0, hence k = -inf (rejected); v = 0 gives log 0.
    with np.errstate(divide="ignore"):
        while pending.size:
            sub = _rng.word_at(key, attempt)
            at = idx[pending] * np.uint64(2)
            u = _rng.uniforms_at(sub, at) - 0.5
            v = _rng.uniforms_at(sub, at + np.uint64(1))
            us = 0.5 - np.abs(u)
            kk = np.floor((2.0 * a[pending] / us + b[pending]) * u + c[pending])
            done = (us >= 0.07) & (v <= v_r[pending])
            test = np.nonzero(~done & (kk >= 0.0) & (kk <= m))[0]
            if test.size:
                j = pending[test]
                log_v = np.log(v[test] * alpha[j] / (a[j] / us[test] ** 2 + b[j]))
                # ln f(k) / f(mode), f the Bin(m, p) pmf: the acceptance bound
                done[test] = log_v <= (_binomial_log_pmf(m, p[j], kk[test])
                                       - _binomial_log_pmf(m, p[j], mode[j]))
            k[pending[done]] = kk[done]
            pending = pending[~done]
            attempt += 1
    k = k.astype(np.int64)
    return np.where(flip, m - k, k)


def _run_chunks(work, count: int, item_elems: int, threads: int) -> None:
    """Run ``work(i0, i1)`` over [0, count) in near-equal spans.

    An item costs about ``item_elems`` array elements.  Each thread used
    gets at least ``_CHUNK_ELEMS // 16`` elements of work (below that,
    handing work between threads costs more than it saves).  The number of
    spans is the least multiple of the threads used that keeps each span
    within ``_CHUNK_ELEMS`` elements, so every thread gets the same share.
    """
    total = count * max(1, item_elems)
    threads = max(1, min(threads, total // (_CHUNK_ELEMS // 16)))
    spans = -(-total // _CHUNK_ELEMS)
    spans = min(count, -(-spans // threads) * threads)
    bounds = [count * k // spans for k in range(spans + 1)]
    if threads == 1 or spans == 1:
        for i0, i1 in zip(bounds, bounds[1:]):
            work(i0, i1)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, i0, i1) for i0, i1 in zip(bounds, bounds[1:])]
        for f in futures:
            f.result()


def _check_seed(seed: int) -> None:
    if not (isinstance(seed, int) and 0 <= seed < 2 ** 64):
        raise InvalidParamsError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _check_count(count: int) -> None:
    if not (isinstance(count, int) and count >= 1):
        raise InvalidParamsError(f"count must be a positive integer, got {count!r}")


def _check_pair_budget(n: int, pair_budget: int) -> None:
    pairs = n * (n - 1) // 2
    if pairs > pair_budget:
        raise BudgetError(
            f"{pairs} node pairs exceed the pair budget of {pair_budget}"
        )


# =====================================================================
# Flat-file output
# =====================================================================

def _header_lines(params: ModelParams, n: int, l: int, seed: int, kind: str) -> list[str]:
    return [
        f"# magnet {kind}",
        f"# q11={params.q11!r} q10={params.q10!r} q00={params.q00!r} mu1={params.mu1!r}",
        f"# n={n} l={l} seed={seed}",
    ]


def write_edge_list(graph: MagGraph, target: str | IO[str]) -> None:
    """Edge list: '#' header lines, then one ``u<TAB>v`` row per edge with
    u < v, sorted lexicographically."""
    lines = _header_lines(graph.params, graph.n, graph.l, graph.seed, "edge list")
    lines.extend(f"{int(u)}\t{int(v)}" for u, v in graph.edges)
    _write_out(target, lines)


def write_attributes(graph: MagGraph, target: str | IO[str]) -> None:
    """Attribute dump: one line per node of l characters '0'/'1'."""
    bits = graph.attribute_matrix()
    lines = ["".join("1" if b else "0" for b in row) for row in bits]
    _write_out(target, lines)


def write_degrees_csv(samples: DegreeSampleSet, target: str | IO[str]) -> None:
    """Degree draws as CSV with provenance headers: one ``degree`` per row."""
    lines = _header_lines(samples.params, samples.n, samples.l, samples.seed,
                          f"degrees method={samples.method.value} count={samples.count}")
    lines.append("degree")
    lines.extend(str(int(d)) for d in samples.degrees)
    _write_out(target, lines)
