"""Exact samplers for MAG graphs and node degrees.

Two routes produce degrees with identical laws:

* ``sample_graph`` materializes the whole graph: attribute rows are
  bit-packed into uint64 words, and pair (u, v) links with probability
  ``exp(c11 ln q11 + c10 ln q10 + c00 ln q00)``, where c11/c10 come from
  popcounts of AND/XOR of the packed rows and ``c00 = l - c11 - c10``.
  No link exceeds B = ``(max q)^l`` (up to rounding slack), so each pair,
  in row-major order, is a candidate with probability B, by Geometric(B)
  gaps (Batagelj & Brandes 2005), and a candidate an edge with probability
  link / B (thinning): only about n^2 B / 2 links are evaluated.

* ``sample_degrees_direct`` skips the graph and draws from the compound
  binomial directly: a component p_s of the exact law's ``DegreePmfTable``
  by inversion of the component weights at one uniform per draw, then
  D ~ Bin(n - 1, p_s), as n - 1 minus a Bin(n - 1, 1 - p_s) draw when
  p_s > 1/2.  Binomial draws are exact-distribution and vectorized over
  draws: inversion when the mean is at most ``INVERSION_MEAN_MAX``, by a
  search in one cdf table per component, summed from the exact law's
  Loader pmf (table-guided inversion, Devroye 1986, III.2), otherwise
  Hörmann's (1993) transformed rejection with squeeze (BTRS), set up once
  per component, whose acceptance test evaluates that same log pmf.  No
  normal approximation anywhere.

All randomness is counter-based (see ``_rng``): every value is a pure
function of ``(seed, stream tag, index)``, so outputs are independent of
chunking, and replicate r of a batch equals the graph sampled standalone
with replicate r's derived seed.  Attribute bit j of node u is 1 when
uniform u l + j of the attribute stream is below mu1; ``_rng.bits_at``
decides that on the uniform's 53-bit integer, one byte per bit, with no
double formed.  Batches run in chunks, in order, on the calling thread.

``sample_degrees_fullgraph`` walks node 0's pairs only, the first n - 1,
and draws attribute rows for node 0 and its candidates alone; node 0's
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
    DEFAULT_PAIR_BUDGET, EXACT_MAX, ModelParams, SampleMethod, _char_rows, _check, _rows,
    _write_out,
)
from .degree_dist import DegreePmfTable, _band, _binomial_log_pmf

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
#: or below this use inversion in a cdf table, the others BTRS (which needs
#: a mean of at least 10).
INVERSION_MEAN_MAX = 30.0

#: Most array elements per vectorized work chunk (one item at least).
_CHUNK_ELEMS = 1 << 22

#: Most candidates per stream that one block of ``_candidate_pairs`` reads.
_GAP_BLOCK = 1 << 13

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
    keys = np.array([_rng.stream_key(seed, _rng.TAG_PAIR_UNIF)], np.uint64)
    # row u's first pair, u n - u (u + 1) / 2; starts[n-1] = n(n-1)/2
    starts = np.cumsum(np.arange(n, 0, -1, dtype=np.int64)) - n
    edges = [np.empty((0, 2), np.int64)]
    for _, pair, level in _candidate_pairs(keys, int(starts[-1]), _link_bound(l, params)):
        lo, hi = np.searchsorted(starts, pair[[0, -1]], side="right") - 1  # the block's rows
        u = lo + np.searchsorted(starts[lo + 1:hi + 1], pair, side="right")
        v = pair - starts[u] + u + 1
        hit = level <= np.exp(_log_link(words.take(u, axis=0), words.take(v, axis=0), l, params))
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


def _candidate_pairs(keys: np.ndarray, pairs: int, bound: float):
    """Yield, block by block, (i, pair, level) of the candidates among pairs
    0 .. ``pairs`` - 1 of each pair stream ``keys[i]``.  Candidate j reads
    uniforms 2j and 2j + 1: its gap, the pairs skipped since candidate j - 1
    (pair -1 before the first), is floor(ln(1 - U_2j) / ln(1 - ``bound``)),
    and its level, U_2j+1 ``bound``, is at most its link when it is an edge.
    Gaps are clamped to the pairs left before the cast, and a block's to a
    sum of 2^62, so no bound (1, subnormal) or pair count overflows."""
    if bound == 0.0:  # no pair is a candidate
        return
    log_q = math.log1p(-bound) if bound < 1.0 else -math.inf  # every gap is 0 at bound 1
    mean = pairs * bound  # candidates expected per stream; a block holds 4 sd more
    width = min(_GAP_BLOCK, pairs, max(1, 2 ** 62 // pairs), math.ceil(mean + 4 * mean ** 0.5) + 8)
    last = np.full(len(keys), -1, np.int64)  # each stream's last candidate so far
    live = np.arange(len(keys))
    j = 0  # the next candidate of every live stream
    while live.size:
        u = _rng.uniforms_at(keys[live, None], np.arange(2 * j, 2 * (j + width), dtype=np.uint64))
        gap = np.negative(u[:, ::2])  # contiguous, which halves the time of what follows
        np.log1p(gap, out=gap)
        with np.errstate(over="ignore"):  # past the double range at a subnormal bound
            gap /= log_q
        np.minimum(gap, (pairs - 1 - last[live])[:, None], out=gap)
        pair = np.cumsum(gap.astype(np.int64) + 1, axis=1) + last[live, None]  # casts floor
        hit = pair < pairs
        if hit.any():
            yield np.repeat(live, hit.sum(axis=1)), pair[hit], u[:, 1::2][hit] * bound
        last[live] = pair[:, -1]
        live = live[last[live] < pairs - 1]
        j += width


def _node0_degrees(params: ModelParams, n: int, l: int, seeds: np.ndarray) -> np.ndarray:
    """Node 0's degree, from its pairs 0..n-2, in the graph sampled under each
    of ``seeds``; its arrays are freed on return, before the next span's."""
    attr_keys = _rng.stream_key(seeds, _rng.TAG_ATTR_BITS)
    row0 = _attr_rows(attr_keys, 0, l, params.mu1)  # (R, W)
    degrees = np.zeros(len(seeds), np.int64)
    for rep, pair, level in _candidate_pairs(_rng.stream_key(seeds, _rng.TAG_PAIR_UNIF), n - 1,
                                             _link_bound(l, params)):
        rows = _attr_rows(attr_keys[rep], pair + 1, l, params.mu1)  # pair v - 1 joins node v
        hit = level <= np.exp(_log_link(row0[rep], rows, l, params))
        degrees += np.bincount(rep[hit], minlength=len(seeds))
    return degrees


def sample_degrees_fullgraph(params: ModelParams, n: int, l: int, count: int, seed: int,
                             pair_budget: int = DEFAULT_PAIR_BUDGET) -> DegreeSampleSet:
    """Node-0 degrees of ``count`` independently sampled graphs.

    Replicate r uses the derived seed ``replicate_seed(seed, r)`` and its
    degree equals ``sample_graph(..., replicate_seed(seed, r)).degrees()[0]``
    realization for realization; attribute rows are drawn only for node 0
    and its candidates, about (n - 1) (max q)^l, which makes batches
    affordable.  Raises :class:`BudgetError` when the count (n-1) pairs it
    covers exceed ``pair_budget``.
    """
    n = _check("n", n, 2, EXACT_MAX, integer=True)
    l = _check("l", l, 1, EXACT_MAX, integer=True)
    seed = _check("seed", seed, 0, 2 ** 64 - 1, integer=True)
    count = _check("count", count, 1, EXACT_MAX, integer=True)
    _check_pair_budget(count * (n - 1), pair_budget)

    out = np.empty(count, dtype=np.int64)
    rep_key = _rng.stream_key(seed, _rng.TAG_REPLICATE)
    # a pair holds up to 2 l + 16 elements: bits, twice while packed, uniforms, gap, row, link
    for i0, i1 in _spans(count, n * (2 * l + 16)):
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
    m = n - 1
    flip = table.p > 0.5  # per component, as are q and inv
    q = np.where(flip, 1.0 - table.p, table.p)
    inv = m * q <= INVERSION_MEAN_MAX
    key_s = _rng.stream_key(seed, _rng.TAG_DIRECT_S)
    key_u = _rng.stream_key(seed, _rng.TAG_DIRECT_U)
    key_btrs = _rng.stream_key(seed, _rng.TAG_DIRECT_BTRS)
    out = np.empty(count, dtype=np.int64)
    for i0, i1 in _spans(count, 16):  # a draw costs ~16 array elements, whatever l
        idx = np.arange(i0, i1, dtype=np.uint64)
        comp = np.searchsorted(cdf_w, _rng.uniforms_at(key_s, idx), side="right").astype(
            np.min_scalar_type(len(q) - 1))
        d = np.empty(len(idx), dtype=np.int64)
        at = inv[comp]
        if at.any():
            u = _rng.uniforms_at(key_u, idx[at])
            c = comp[at]
            d[at] = _binomial_inversion(m, q, c, np.where(flip[c], 1.0 - u, u))
        rej = ~at
        if rej.any():
            d[rej] = _binomial_btrs(m, q, comp[rej], key_btrs, idx[rej])
        out[i0:i1] = np.where(flip[comp], m - d, d)
    return DegreeSampleSet(params=params, n=n, l=l, seed=seed,
                           method=SampleMethod.DIRECT, degrees=out)


def _binomial_inversion(m: int, q: np.ndarray, comp: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact binomial quantiles min{k : P(X <= k) >= u[i]}, X ~ Bin(m, q[comp[i]]),
    for unsigned integer component indices ``comp``.

    Draws are grouped by component with a counting sort.  Each component
    drawn tabulates its cdf once, as the running sum of its Loader pmf
    (``_binomial_log_pmf``) over k = 0 .. min(m, mean + K), K the exact
    law's ``_band``: past that end lies less than 1e-20 of the mass.  A
    draw's k is the bisection of its uniform in its component's table,
    capped at the table's end.  Exact up to double rounding.
    """
    counts = np.bincount(comp, minlength=len(q))
    drawn = np.flatnonzero(counts)
    ends = np.cumsum(counts)[drawn]  # drawn component j's draws are u[starts[j]:ends[j]]
    starts = ends - counts[drawn]
    order = np.argsort(comp, kind="stable")  # a counting (radix) sort on 8 or 16 bits
    u = u[order]
    p = q[drawn]
    mean = m * p
    last = np.minimum(m, np.ceil(mean + _band(mean))).astype(np.int64)
    # columns past a table's end are never read: the search is capped there
    k_all = np.arange(last.max(initial=0) + 1.0)
    tables = np.cumsum(np.exp(_binomial_log_pmf(m, p[:, None], k_all)), axis=1)
    k = np.empty(len(u), dtype=np.int64)
    for table, end, lo, hi in zip(tables, last, starts, ends):
        k[order[lo:hi]] = np.minimum(np.searchsorted(table, u[lo:hi]), end)
    return k


def _binomial_btrs(m: int, q: np.ndarray, comp: np.ndarray, key: int,
                   idx: np.ndarray) -> np.ndarray:
    """Exact Bin(m, q[comp[i]]) draws by transformed rejection with squeeze
    (BTRS), for q <= 1/2 and unsigned integer component indices ``comp``.

    Hörmann (1993), "The generation of binomial random variates", J. Stat.
    Comput. Simul. 46; needs m * q >= 10.  The constants a, b, c, v_r,
    alpha and ln f(mode), f the Bin(m, q) pmf, are formed once per
    component and read through ``comp``.  Attempt a of draw ``idx[i]``
    takes its two uniforms from positions 2 idx[i] and 2 idx[i] + 1 of the
    stream keyed ``_rng.word_at(key, a)``, so every draw is a pure function
    of (key, draw index, attempt).  The loop runs over attempts, each on the
    draws still pending.
    """
    spq = np.sqrt(m * q * (1.0 - q))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * q
    c = m * q + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    log_f_mode = _binomial_log_pmf(m, q, np.floor((m + 1) * q))

    k = np.empty(len(idx), dtype=np.int64)
    pending = np.arange(len(idx))
    attempt = 0
    # u = -1/2 gives us = 0, hence k = -inf (rejected); v = 0 gives log 0.
    with np.errstate(divide="ignore"):
        while pending.size:
            sub = _rng.word_at(key, attempt)
            at = idx[pending] * np.uint64(2)
            u = _rng.uniforms_at(sub, at) - 0.5
            v = _rng.uniforms_at(sub, at + np.uint64(1))
            us = 0.5 - np.abs(u)
            cp = comp[pending]
            kk = np.floor((2.0 * a[cp] / us + b[cp]) * u + c[cp])
            done = (us >= 0.07) & (v <= v_r[cp])
            test = np.nonzero(~done & (kk >= 0.0) & (kk <= m))[0]
            if test.size:
                j = cp[test]
                log_v = np.log(v[test] * alpha[j] / (a[j] / us[test] ** 2 + b[j]))
                # ln f(k) / f(mode): the acceptance bound
                done[test] = log_v <= _binomial_log_pmf(m, q[j], kk[test]) - log_f_mode[j]
            k[pending[done]] = kk[done]
            pending = pending[~done]
            attempt += 1
    return k


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
    chars = np.full((graph.n, graph.l + 1), ord("\n"), np.uint8)
    np.add(graph.attribute_matrix(), ord("0"), out=chars[:, :-1])
    _write_out(target, _char_rows(chars))


def write_degrees_csv(samples: DegreeSampleSet, target: str | IO[str]) -> None:
    """Degree draws as CSV with provenance headers: one ``degree`` per row."""
    header = _header_lines(samples.params, samples.n, samples.l, samples.seed,
                           f"degrees method={samples.method.value} count={samples.count}")
    header.append("degree")
    _write_out(target, itertools.chain(header, _rows("%d", samples.degrees)))
