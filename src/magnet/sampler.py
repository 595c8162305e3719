"""Exact samplers for MAG graphs and node degrees.

Two routes produce degrees with identical laws:

* ``sample_graph`` materializes the whole graph: attribute rows are
  bit-packed into uint64 words, each unordered pair (u, v) gets one
  uniform, and the edge test compares it against
  ``exp(c11 ln q11 + c10 ln q10 + c00 ln q00)`` where c11/c10 come from
  popcounts of AND/XOR of the packed rows and ``c00 = l - c11 - c10``.
  No link exceeds ``(max q)^l`` (up to rounding slack), so a pair whose
  uniform is above that bound is a non-edge.  Spans of consecutive pair
  indices are read first as bits "uniform at most the bound", and only
  these candidates have their link evaluated and their uniform re-read.

* ``sample_degrees_direct`` skips the graph and draws from the compound
  binomial directly: a component p_s of the exact law's ``DegreePmfTable``
  by inversion of the component weights at one uniform per draw, then
  D ~ Bin(n - 1, p_s), as n - 1 minus a Bin(n - 1, 1 - p_s) draw when
  p_s > 1/2.  Binomial draws are exact-distribution and vectorized over
  draws: sequential inversion when the mean is at most
  ``INVERSION_MEAN_MAX``, otherwise Hörmann's (1993) transformed rejection
  with squeeze (BTRS), whose acceptance test evaluates the log pmf in
  Loader's saddle-point form.  No normal approximation anywhere.

All randomness is counter-based (see ``_rng``): every value is a pure
function of ``(seed, stream tag, index)``, so outputs are independent of
chunking, and replicate r of a batch equals the graph sampled standalone
with replicate r's derived seed.  Attribute bit j of node u is 1 when
uniform u l + j of the attribute stream is below mu1; ``_rng.bits_at``
decides that on the uniform's 53-bit integer, one byte per bit, with no
double formed.  Batches run in chunks, in order, on the calling thread.

``sample_degrees_fullgraph`` evaluates node 0's pairs only, with the same
edge test, and draws attribute rows for node 0 and its candidates alone;
both samplers read from stream offsets (``_rng.advance``).  Node 0's
degree is the one the whole graph under that seed has.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from . import _rng
from .errors import BudgetError
from .model import (
    DEFAULT_PAIR_BUDGET, EXACT_MAX, ModelParams, SampleMethod, _check, _rows, _write_out,
)
from .degree_dist import DegreePmfTable, _binomial_log_pmf

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

#: Binomial draws whose mean, taken for the smaller of p and 1 - p, is at
#: or below this use sequential inversion, the others BTRS (which needs a
#: mean of at least 10).
INVERSION_MEAN_MAX = 30.0

#: Most array elements per vectorized work chunk (one item at least).
_CHUNK_ELEMS = 1 << 22

#: Most pair uniforms per row of node 0's pair read in
#: ``sample_degrees_fullgraph``.
_BLOCK_PAIRS = 1 << 16

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

def _attr_rows(keys, nodes, l: int, mu1: float) -> np.ndarray:
    """Packed attribute rows of ``nodes`` (bits l v .. l v + l - 1 of the
    stream) in the graphs whose attribute stream keys are ``keys``."""
    starts = _rng.advance(keys, np.asarray(nodes, np.uint64) * np.uint64(l))
    bits = _rng.bits_at(starts[..., None], np.arange(l, dtype=np.uint64), mu1)
    return pack_rows(bits.view(np.uint8))


def _pair_index(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Linear index of pair (u, v), u < v, in row-major upper-triangle order."""
    return u * n - (u * (u + 1)) // 2 + (v - u - 1)


def sample_graph(params: ModelParams, n: int, l: int, seed: int,
                 pair_budget: int = DEFAULT_PAIR_BUDGET) -> MagGraph:
    """Sample one MAG graph at (params, n, l) under ``seed``.

    Raises :class:`BudgetError` when n(n-1)/2 exceeds ``pair_budget``.
    """
    n = _check("n", n, 2, EXACT_MAX, integer=True)
    l = _check("l", l, 1, EXACT_MAX, integer=True)
    seed = _check("seed", seed, 0, 2 ** 64 - 1, integer=True)
    _check_pair_budget(n * (n - 1) // 2, pair_budget)

    words = _attr_rows(_rng.stream_key(seed, _rng.TAG_ATTR_BITS), np.arange(n), l, params.mu1)
    key_pair = _rng.stream_key(seed, _rng.TAG_PAIR_UNIF)
    rows = np.arange(n, dtype=np.int64)
    starts = _pair_index(rows, rows + 1, n)  # row u's first pair; starts[n-1] = n(n-1)/2
    edges = []
    # when every pair is a candidate, a pair holds its index, its two nodes,
    # their rows' words and the AND and XOR of those (W each), its link terms
    # and its uniform
    for i0, i1 in _spans(int(starts[-1]), 4 * words.shape[1] + 12):
        pair = np.flatnonzero(_candidates(_rng.advance(key_pair, i0),
                                          np.arange(i1 - i0, dtype=np.uint64), l, params)) + i0
        u = np.searchsorted(starts, pair, side="right") - 1
        v = pair - starts[u] + u + 1
        hit = _is_edge(key_pair, pair, words[u], words[v], l, params)
        edges.append(np.stack([u[hit], v[hit]], axis=1))
    return MagGraph(params=params, n=n, l=l, seed=seed, attr_words=words,
                    edges=np.concatenate(edges))


def replicate_seed(seed: int, r: int) -> int:
    """Derived seed of replicate ``r`` in a batch experiment under ``seed``."""
    return _rng.word_at(_rng.stream_key(seed, _rng.TAG_REPLICATE), r)


def _link_bound(l: int, params: ModelParams) -> float:
    """A double at or above every link probability ``exp(_log_link(...))``
    at ``l`` attributes.

    The log link is at most l max ln q.  The slack in the exponent covers
    the rounding of its three products and two sums, each within 2^-53 of
    a term at most l max |ln q|, and that of ``exp``.  No log link is
    positive, so the exponent is capped at 0, which keeps ``exp`` finite.
    """
    logs = [math.log(q) for q in (params.q11, params.q10, params.q00)]
    return math.exp(min(0.0, l * max(logs) + 2.0 ** -40 * (1.0 + l * -min(logs))))


def _candidates(keys, indices: np.ndarray, l: int, params: ModelParams) -> np.ndarray:
    """Whether the pair uniforms at ``indices`` of the streams ``keys`` are at
    most ``_link_bound``: a pair with a larger uniform is a non-edge whatever
    its two rows."""
    # u <= hi is u < the next double above hi, which bits_at decides
    return _rng.bits_at(keys, indices, math.nextafter(_link_bound(l, params), math.inf))


def _is_edge(keys, indices: np.ndarray, row: np.ndarray, others: np.ndarray, l: int,
             params: ModelParams) -> np.ndarray:
    """The edge test of candidate pairs: their uniform, re-read at ``indices``
    of the streams ``keys``, is at most the link of their packed rows."""
    return _rng.uniforms_at(keys, indices) <= np.exp(_log_link(row, others, l, params))


def _node0_degrees(params: ModelParams, n: int, l: int, seeds: np.ndarray) -> np.ndarray:
    """Node 0's degree in the graph sampled under each of ``seeds``; its
    arrays are freed on return, before the next span allocates its own.

    Only node 0's row and the rows of its ``_candidates`` are drawn.  Node
    0's pairs 0..n-2 are read as near-equal rows of at most ``_BLOCK_PAIRS``
    uniforms, each row under its pair key advanced to the row's first pair.
    """
    pair_keys = _rng.stream_key(seeds, _rng.TAG_PAIR_UNIF)
    blocks = -(-(n - 1) // _BLOCK_PAIRS)
    width = -(-(n - 1) // blocks)
    block_keys = _rng.advance(pair_keys[:, None, None],
                              np.arange(0, blocks * width, width, dtype=np.uint64)[:, None])
    below = _candidates(block_keys, np.arange(width, dtype=np.uint64), l, params)
    rep, pair = np.nonzero(below.reshape(len(seeds), -1)[:, :n - 1])
    attr_keys = _rng.stream_key(seeds, _rng.TAG_ATTR_BITS)
    row0 = _attr_rows(attr_keys, 0, l, params.mu1)  # (R, W)
    rows = _attr_rows(attr_keys[rep], pair + 1, l, params.mu1)  # pair v - 1 joins node v
    hit = _is_edge(pair_keys[rep], pair, row0[rep], rows, l, params)
    return np.bincount(rep[hit], minlength=len(seeds))


def sample_degrees_fullgraph(params: ModelParams, n: int, l: int, count: int, seed: int,
                             pair_budget: int = DEFAULT_PAIR_BUDGET) -> DegreeSampleSet:
    """Node-0 degrees of ``count`` independently sampled graphs.

    Replicate r uses the derived seed ``replicate_seed(seed, r)`` and its
    degree equals ``sample_graph(..., replicate_seed(seed, r)).degrees()[0]``
    realization for realization; only node 0's uniforms are drawn, and
    attribute rows only for node 0 and the nodes whose uniform could still
    make them neighbours, which is what makes batches affordable.
    Raises :class:`BudgetError` when the count (n-1) pairs it evaluates
    exceed ``pair_budget``.
    """
    n = _check("n", n, 2, EXACT_MAX, integer=True)
    l = _check("l", l, 1, EXACT_MAX, integer=True)
    seed = _check("seed", seed, 0, 2 ** 64 - 1, integer=True)
    count = _check("count", count, 1, EXACT_MAX, integer=True)
    _check_pair_budget(count * (n - 1), pair_budget)

    out = np.empty(count, dtype=np.int64)
    rep_key = _rng.stream_key(seed, _rng.TAG_REPLICATE)
    # when every pair is a candidate, a pair holds its l attribute bits and
    # about 8 more elements: keys, row words and link terms
    for i0, i1 in _spans(count, n * (l + 8)):
        seeds = _rng.words_at(rep_key, np.arange(i0, i1, dtype=np.uint64))
        out[i0:i1] = _node0_degrees(params, n, l, seeds)
    return DegreeSampleSet(params=params, n=n, l=l, seed=seed,
                           method=SampleMethod.FULL_GRAPH, degrees=out)


# =====================================================================
# Direct compound-binomial sampling
# =====================================================================

def sample_degrees_direct(params: ModelParams, n: int, l: int, count: int,
                          seed: int) -> DegreeSampleSet:
    """``count`` exact draws of D: a component p of the exact law's
    :class:`DegreePmfTable` by its weight, then D ~ Bin(n-1, p)."""
    n = _check("n", n, 2, EXACT_MAX, integer=True)
    l = _check("l", l, 1, EXACT_MAX, integer=True)
    seed = _check("seed", seed, 0, 2 ** 64 - 1, integer=True)
    count = _check("count", count, 1, EXACT_MAX, integer=True)
    table = DegreePmfTable.from_model(params, n, l)
    # P(D's component is at most j); a draw's j is how many its uniform reaches
    cdf_w = np.cumsum(np.exp(table.log_w[:-1]))
    key_s = _rng.stream_key(seed, _rng.TAG_DIRECT_S)
    key_u = _rng.stream_key(seed, _rng.TAG_DIRECT_U)
    key_btrs = _rng.stream_key(seed, _rng.TAG_DIRECT_BTRS)
    m = n - 1
    out = np.empty(count, dtype=np.int64)
    for i0, i1 in _spans(count, 16):  # a draw costs ~16 array elements, whatever l
        idx = np.arange(i0, i1, dtype=np.uint64)
        p = table.p[np.searchsorted(cdf_w, _rng.uniforms_at(key_s, idx), side="right")]
        flip = p > 0.5
        q = np.where(flip, 1.0 - p, p)
        d = np.empty(len(idx), dtype=np.int64)
        inv = m * q <= INVERSION_MEAN_MAX
        if inv.any():
            u = _rng.uniforms_at(key_u, idx[inv])
            d[inv] = _binomial_inversion(m, q[inv], np.where(flip[inv], 1.0 - u, u))
        rej = ~inv
        if rej.any():
            d[rej] = _binomial_btrs(m, q[rej], key_btrs, idx[rej])
        out[i0:i1] = np.where(flip, m - d, d)
    return DegreeSampleSet(params=params, n=n, l=l, seed=seed,
                           method=SampleMethod.DIRECT, degrees=out)


def _binomial_inversion(m: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact binomial quantile at uniforms ``u``: min{k : P(X <= k) >= u}.

    Sequential search from k = 0 with the pmf ratio recurrence, which takes
    O(mean) steps for the p <= 1/2 it is given.  Exact up to double rounding.
    """
    pf = np.exp(m * np.log1p(-p))
    cdf = pf.copy()
    k = np.zeros(p.shape, dtype=np.int64)
    odds = p / (1.0 - p)
    active = np.nonzero(cdf < u)[0]
    kk = 0
    while active.size and kk < m:
        ratio = ((m - kk) / (kk + 1.0)) * odds[active]
        pf[active] *= ratio
        cdf[active] += pf[active]
        kk += 1
        k[active] = kk
        still = cdf[active] < u[active]
        # Guard against stalling once the pmf underflows; the residual
        # probability mass at that point is below 1e-300.
        still &= pf[active] > 0.0
        active = active[still]
    return k


def _binomial_btrs(m: int, p: np.ndarray, key: int, idx: np.ndarray) -> np.ndarray:
    """Exact Bin(m, p) draws by transformed rejection with squeeze (BTRS),
    for p <= 1/2.

    Hörmann (1993), "The generation of binomial random variates", J. Stat.
    Comput. Simul. 46; needs m * p >= 10.  Attempt a of draw ``idx[i]``
    takes its two uniforms from positions 2 idx[i] and 2 idx[i] + 1 of the
    stream keyed ``_rng.word_at(key, a)``, so every draw is a pure function
    of (key, draw index, attempt).  The loop runs over attempts, each on the
    draws still pending.
    """
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
    return k.astype(np.int64)


def _spans(count: int, item_elems: int) -> list[tuple[int, int]]:
    """[0, count) as near-equal ``(i0, i1)`` spans, in order.

    An item costs about ``item_elems`` array elements; a span holds at most
    ``_CHUNK_ELEMS`` elements, or one item when an item is larger.
    """
    spans = -(-count // max(1, _CHUNK_ELEMS // item_elems))
    bounds = [count * k // spans for k in range(spans + 1)]
    return list(zip(bounds, bounds[1:]))


def _check_pair_budget(pairs: int, pair_budget: int) -> None:
    pair_budget = _check("pair_budget", pair_budget, 1, integer=True)
    if pairs > pair_budget:
        raise BudgetError(f"{pairs} node pairs exceed the pair budget of {pair_budget}")


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
    header = _header_lines(graph.params, graph.n, graph.l, graph.seed, "edge list")
    _write_out(target, itertools.chain(header, _rows("%d\t%d", *graph.edges.T)))


def write_attributes(graph: MagGraph, target: str | IO[str]) -> None:
    """Attribute dump: one line per node of l characters '0'/'1'."""
    chars = graph.attribute_matrix() + ord("0")
    _write_out(target, (bytes(row).decode("ascii") for row in chars))


def write_degrees_csv(samples: DegreeSampleSet, target: str | IO[str]) -> None:
    """Degree draws as CSV with provenance headers: one ``degree`` per row."""
    header = _header_lines(samples.params, samples.n, samples.l, samples.seed,
                           f"degrees method={samples.method.value} count={samples.count}")
    header.append("degree")
    _write_out(target, itertools.chain(header, _rows("%d", samples.degrees)))
