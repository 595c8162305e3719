"""Graph and degree samplers: determinism, exactness, and the two-route
agreement between full-graph realizations and direct compound draws.
"""

import concurrent.futures
import hashlib
import io
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

import magnet.model as model
import magnet.sampler as sampler
from magnet import (
    BudgetError,
    DegreePmfTable,
    InvalidParamsError,
    ModelParams,
    REFERENCE_PARAMS,
    SampleMethod,
    _rng,
    derive_constants,
    sample_degrees_direct,
    sample_degrees_fullgraph,
    sample_graph,
    write_attributes,
    write_degrees_csv,
    write_edge_list,
)
from magnet.degree_dist import _band, _binomial_log_pmf
from magnet.sampler import (
    INVERSION_MEAN_MAX,
    _binomial_inversion,
    _log_link,
    pack_rows,
    replicate_seed,
    unpack_rows,
)
from magnet.stats import FIT_ALPHA, chi_square_gof, tv_to_exact

P = REFERENCE_PARAMS
EVERY_PAIR = ModelParams(q11=0.9999999999999999, q10=0.5, q00=0.5, mu1=0.5)


# ---------------------------------------------------------------- bit packing

@pytest.mark.parametrize("l", [1, 7, 63, 64, 65, 130])
def test_pack_unpack_roundtrip(l):
    rng = np.random.default_rng(l)
    rows = rng.integers(0, 2, size=(37, l)).astype(np.uint8)
    words = pack_rows(rows)
    assert words.dtype == np.uint64
    assert words.shape == (37, (l + 63) // 64)
    back = unpack_rows(words, l)
    assert np.array_equal(back, rows)


def test_link_probability_matches_per_position_product():
    rng = np.random.default_rng(9)
    l = 130
    for _ in range(200):
        a = rng.integers(0, 2, size=l).astype(np.uint8)
        b = rng.integers(0, 2, size=l).astype(np.uint8)
        got = float(np.exp(_log_link(pack_rows(a), pack_rows(b), l, P)))
        q = np.array([[P.q00, P.q10], [P.q10, P.q11]])
        want = float(np.prod([q[ai, bi] for ai, bi in zip(a, b)]))
        assert got == pytest.approx(want, rel=1e-12)


def test_nearly_all_ones_rows_approach_q11_power():
    # With mu1 -> 1 rows are almost surely all-ones, so the mean link
    # probability across sampled pairs converges to q11^l.
    params = ModelParams(q11=0.7, q10=0.2, q00=0.5, mu1=0.999)
    l = 8
    graph = sample_graph(params, 400, l, seed=31)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 400, size=(4000, 2))
    i, j = idx[idx[:, 0] != idx[:, 1]].T
    probs = np.exp(_log_link(graph.attr_words[i], graph.attr_words[j], l, params))
    assert np.mean(probs) == pytest.approx(params.q11**l, rel=0.02)


# ---------------------------------------------------------------- full graphs

def test_sample_graph_is_deterministic_in_seed():
    g1 = sample_graph(P, 60, 4, seed=1234)
    g2 = sample_graph(P, 60, 4, seed=1234)
    g3 = sample_graph(P, 60, 4, seed=1235)
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(g1.attr_words, g2.attr_words)
    assert not (
        np.array_equal(g1.edges, g3.edges)
        and np.array_equal(g1.attr_words, g3.attr_words)
    )


def test_sample_graph_edges_are_simple_sorted_and_consistent():
    g = sample_graph(P, 80, 3, seed=7)
    e = g.edges
    assert e.shape[1] == 2
    assert np.all(e[:, 0] < e[:, 1])  # upper triangle only, no loops
    order = np.lexsort((e[:, 1], e[:, 0]))
    assert np.array_equal(order, np.arange(len(e)))
    assert len({(int(u), int(v)) for u, v in e}) == len(e)  # no duplicates
    deg = g.degrees()
    assert deg.sum() == 2 * len(e)
    # degree recomputed from the edge list matches
    ref = np.zeros(80, dtype=np.int64)
    for u, v in e:
        ref[u] += 1
        ref[v] += 1
    assert np.array_equal(deg, ref)
    assert deg[0] == int((e == 0).sum())


def test_attribute_bits_are_bernoulli_mu1():
    g = sample_graph(P, 4000, 20, seed=11)
    rows = g.attribute_matrix()
    assert rows.shape == (4000, 20)
    mean = rows.mean()
    # 80000 bits: 5 sigma of Bernoulli(0.6) mean is ~0.0087
    assert abs(mean - 0.6) < 5 * np.sqrt(0.6 * 0.4 / 80000)
    # per-column means should not show structure either
    col = rows.mean(axis=0)
    assert np.all(np.abs(col - 0.6) < 5 * np.sqrt(0.6 * 0.4 / 4000))


def test_pair_budget_enforced():
    with pytest.raises(BudgetError):
        sample_graph(P, 100, 3, seed=0, pair_budget=1000)  # needs 4950
    sample_graph(P, 100, 3, seed=0, pair_budget=4950)  # exactly enough
    # one replicate evaluates node 0's 99 pairs
    with pytest.raises(BudgetError):
        sample_degrees_fullgraph(P, 100, 3, 1, seed=0, pair_budget=98)
    sample_degrees_fullgraph(P, 100, 3, 1, seed=0, pair_budget=99)


def test_empirical_edge_density_matches_pair_probability():
    # P(edge) = (E[q(a,b)])^l for two iid attribute rows.  Pairs inside one
    # graph share rows and are correlated, so the error bar comes from
    # scatter across independent replicate graphs, not from pair counts.
    n, l, reps = 150, 2, 30
    mu1, mu0 = 0.6, 0.4
    per_attr = mu1 * mu1 * P.q11 + 2 * mu1 * mu0 * P.q10 + mu0 * mu0 * P.q00
    want = per_attr**l
    pairs = n * (n - 1) / 2
    fracs = np.array(
        [len(sample_graph(P, n, l, seed=1000 + r).edges) / pairs for r in range(reps)]
    )
    sem = fracs.std(ddof=1) / np.sqrt(reps)
    assert abs(fracs.mean() - want) < 6 * sem


def test_realizations_are_frozen():
    # sha256 of sampled bytes: the edge-list text, or the little-endian int64
    # degrees. Any change to a random stream, the edge test or a binomial
    # draw moves them. At l = 130 each packed row spans 3 words.  The graph
    # and fullgraph values were re-pinned when the pair stream became
    # candidate gaps and levels.
    q = ModelParams(q11=0.99, q10=0.97, q00=0.98, mu1=0.5)

    def edge_list_digest(graph):
        buf = io.StringIO()
        write_edge_list(graph, buf)
        return hashlib.sha256(buf.getvalue().encode()).hexdigest()

    wide = sample_graph(q, 300, 130, seed=3)
    assert wide.edge_count == 2373
    assert edge_list_digest(wide) == (
        "7bfe3c18ef0bbdb840a3bf92060c511f7bfe96de358203b37c29e0a6f889e844")
    narrow = sample_graph(P, 300, 6, seed=3)
    assert narrow.edge_count == 286
    assert edge_list_digest(narrow) == (
        "fe0a617e54aafc82643ed063b5f627709b30ea279d04d60574b73ae44aa72959")
    def degrees_digest(samples):
        return hashlib.sha256(samples.degrees.astype("<i8").tobytes()).hexdigest()

    assert degrees_digest(sample_degrees_fullgraph(q, 500, 70, 64, seed=11)) == (
        "7f90d1032b318d635d443b5eb3b926bab6421cdc8a3823d7114a46a8257d9a3e")
    # bench scale: several gap blocks, 253 distinct attribute rows
    bench = sample_graph(P, 3000, 8, seed=17)
    assert bench.edge_count == 5255
    assert edge_list_digest(bench) == (
        "3bc7b645ac41ca54babd98e0e965cc4f35236db7a84b5a538ee574c98039f642")
    # 1561 distinct attribute rows at a link bound of 0.02, a dense graph
    # (bound 0.923), and every pair a candidate (bound 1)
    for params, n, l, seed, count, digest in [
        (ModelParams(q11=0.7, q10=0.2, q00=0.5, mu1=0.5), 3000, 11, 7, 170,
         "7b7be2346df753aac304b20ede9289fab1f6109f795cecb8439b42f421b56e61"),
        (ModelParams(q11=0.99, q10=0.98, q00=0.97, mu1=0.5), 500, 8, 4, 106_330,
         "78c323cbbd9b8472f42f5458a21288542c81dcd07e48189e236628dfe76599a3"),
        (EVERY_PAIR, 300, 1, 5, 27_654,
         "eb8d3f82348be5e62cdd9d52696d2c700aa5d630fe8abab78b30390343228781"),
    ]:
        g = sample_graph(params, n, l, seed)
        assert g.edge_count == count
        assert edge_list_digest(g) == digest
    assert degrees_digest(sample_degrees_fullgraph(P, 2000, 8, 300, seed=19)) == (
        "c695fb2dc6da10cf65bc397dc0462bfebb910c40f951e0e4eedfb97ebf8618e3")
    # direct route: n = 30, l = 3 takes only the inversion branch, n = 1e6,
    # l = 7 only BTRS.  Re-pinned when S moved from l attribute-count bits
    # per draw to one uniform inverted on the exact law's weights.
    assert degrees_digest(sample_degrees_direct(P, 30, 3, 5000, seed=13)) == (
        "a55cc8ea370d2b34367763f7692c44a6a0b9c3201a96505613f4bedf34670234")
    assert degrees_digest(sample_degrees_direct(P, 10**6, 7, 5000, seed=13)) == (
        "a75d88cdecd7c00bf25d962ca2e52d3c662c67935e5324ea7f30303cc752b261")
    # components with p > 1/2, drawn as m minus a mirrored draw: at n = 30,
    # l = 2 all three by inversion, at n = 1e4, l = 2 all three by BTRS, at
    # n = 1e6, l = 40 by BTRS on both sides of 1/2 (9 of 41 flipped); at
    # n = 100, l = 10 both branches, the one flipped component by BTRS; and
    # the bench's mixed shape, n = 1e12, l = 28, both branches unflipped.
    flips = ModelParams(q11=0.99, q10=0.98, q00=0.97, mu1=0.5)
    for params, n, l, digest in [
        (flips, 30, 2, "1e52522c79a4a30142e1d3664dccacc23d786412bd9de7e5fa0a8560f1d151b2"),
        (flips, 10**4, 2, "9b277226d22c07838f4ef46b50a4edca32e7a1ccc276912829a1ea18bdee728f"),
        (flips, 10**6, 40, "af783868d6dc26a1bb10fdd74326928ba5478d7f9faef31bc975e57e0975d9ae"),
        (ModelParams(q11=0.9999, q10=0.5, q00=0.5, mu1=0.9), 100, 10,
         "f386ef75770b34c1a5eb994d9b7f6ad7528b9c917a249aa1cb8be97ff7dd64eb"),
        (P, 10**12, 28, "bc236a7d8544c37a3ea93a57406d1e5d576b976d9f0992adc959509a71d64395"),
    ]:
        assert degrees_digest(sample_degrees_direct(params, n, l, 5000, seed=13)) == digest


def _candidates_by_hand(seed, pairs, bound):
    """(pair, level) of each candidate among pairs 0..pairs-1 of the pair
    stream under ``seed``, from one read of 2 ``pairs`` uniforms (never
    fewer than needed: each candidate moves at least one pair on).  Gap
    uniforms sit at even positions and levels, times the bound, at odd ones."""
    u = _rng.uniforms_at(_rng.stream_key(seed, _rng.TAG_PAIR_UNIF),
                         np.arange(2 * pairs, dtype=np.uint64))
    with np.errstate(divide="ignore"):  # ln(1 - bound) = -inf at bound 1: gaps of 0
        gaps = np.floor(np.log1p(-u[0::2]) / np.log1p(-bound))
    pair = np.cumsum(gaps + 1) - 1
    keep = pair < pairs
    return pair[keep].astype(np.int64), u[1::2][keep] * bound


def _brute_force_edges(params, n, l, seed):
    """Every pair's row-major index from ``np.triu_indices``, attribute rows
    drawn from their stream by hand, and each candidate an edge when its
    level is at most ``exp(_log_link)`` of its two rows."""
    key_attr = _rng.stream_key(seed, _rng.TAG_ATTR_BITS)
    bits = _rng.uniforms_at(key_attr, np.arange(n * l, dtype=np.uint64)) < params.mu1
    words = pack_rows(bits.reshape(n, l))
    u, v = np.triu_indices(n, 1)
    pair, level = _candidates_by_hand(seed, len(u), sampler._link_bound(l, params))
    u, v = u[pair], v[pair]
    hit = level <= np.exp(_log_link(words[u], words[v], l, params))
    return words, np.stack([u[hit], v[hit]], axis=1)


@pytest.mark.parametrize("block", [None, 1000, 50])
@pytest.mark.parametrize("params, n, l, shared_rows", [
    (P, 200, 3, True),  # K = 8 distinct attribute rows
    (ModelParams(q11=0.99, q10=0.97, q00=0.98, mu1=0.5), 120, 130, False),  # K = n, 3 words
    (ModelParams(q11=0.9, q10=0.6, q00=0.8, mu1=0.5), 400, 8, True),  # K = 205
    (EVERY_PAIR, 300, 1, True),  # link bound 1: every pair is a candidate
    (ModelParams(q11=0.99, q10=0.98, q00=0.97, mu1=0.5), 500, 8, True),  # bound 0.923
])
def test_sample_graph_matches_per_pair_brute_force(monkeypatch, params, n, l, shared_rows,
                                                   block):
    words, edges = _brute_force_edges(params, n, l, seed=8)
    if block is not None:  # 50 candidates are fewer than a row holds
        monkeypatch.setattr(sampler, "_GAP_BLOCK", block)
    if params is EVERY_PAIR:
        assert sampler._link_bound(l, params) == 1.0
    # the cases cover graphs with repeated attribute rows and with all rows distinct
    assert (len(np.unique(words, axis=0)) < n) is shared_rows
    g = sample_graph(params, n, l, seed=8)
    assert np.array_equal(g.attr_words, words)
    assert len(edges) > 100
    assert g.edges.dtype == np.int64
    assert np.array_equal(g.edges, edges)
    if n == 400:
        assert len(edges) == 6045


# ------------------------------------------------- candidates and thinning

DENSE = ModelParams(q11=0.99, q10=0.98, q00=0.97, mu1=0.5)


@pytest.mark.parametrize("params, n, l", [
    (P, 1200, 7),  # link bound 0.082
    (DENSE, 600, 8),  # link bound 0.923
    (ModelParams(q11=0.98, q10=0.9, q00=0.95, mu1=0.5), 600, 70),  # two words per row
], ids=["sparse", "dense", "two-words"])
def test_edge_count_given_the_rows_is_the_sum_of_their_links(params, n, l):
    # Given the attribute rows, each pair links on its own with its link p,
    # so the edge count has mean sum p and variance sum p (1 - p).  Candidates
    # drawn at rate B and kept at rate p / B must give exactly that, whatever
    # the stream's bytes.
    u, v = np.triu_indices(n, 1)
    edges = mean = var = 0.0
    for seed in range(8):
        g = sample_graph(params, n, l, seed)
        p = np.exp(_log_link(g.attr_words[u], g.attr_words[v], l, params))
        edges, mean, var = edges + g.edge_count, mean + p.sum(), var + (p * (1 - p)).sum()
    assert abs(edges - mean) < 4.5 * math.sqrt(var), (edges, mean, var)


@pytest.mark.parametrize("bound", [0.02, 0.3, 0.92])
def test_candidates_among_the_first_pairs_are_binomial(bound):
    # each pair is a candidate with probability B on its own, so a stream has
    # Bin(N, B) candidates among its first N pairs
    pairs, streams = 300, 4000
    keys = _rng.stream_key(np.arange(streams, dtype=np.uint64), _rng.TAG_PAIR_UNIF)
    counts = np.zeros(streams, np.int64)
    for i, pair, level in sampler._candidate_pairs(keys, pairs, bound):
        assert (pair >= 0).all() and (pair < pairs).all()
        assert (level >= 0).all() and (level < bound).all()
        counts += np.bincount(i, minlength=streams)
    _, pval, dof = chi_square_gof(counts, stats.binom.pmf(np.arange(pairs + 1), pairs, bound))
    assert pval > 1e-3 and dof >= 5, (pval, dof)


@pytest.mark.parametrize("block", [1, 7, None])
def test_gap_block_size_changes_no_edge_and_no_degree(monkeypatch, block):
    # a block of 1 or 7 gaps carries each stream's last candidate across
    # blocks hundreds of times; None keeps the default
    if block is not None:
        monkeypatch.setattr(sampler, "_GAP_BLOCK", block)
    for params, n, l in [(P, 150, 6), (DENSE, 100, 8)]:
        assert np.array_equal(sample_graph(params, n, l, 5).edges,
                              _brute_force_edges(params, n, l, 5)[1])
        batch = sample_degrees_fullgraph(params, n, l, 6, seed=5)
        by_hand = [np.count_nonzero(_brute_force_edges(params, n, l, replicate_seed(5, r))[1][:, 0]
                                    == 0) for r in range(6)]
        assert batch.degrees.tolist() == by_hand


def _all_candidates(keys, pairs, bound):
    """Every (stream, pair, level) that ``_candidate_pairs`` yields, warnings
    raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = list(sampler._candidate_pairs(np.asarray(keys, np.uint64), pairs, bound))
    return [np.concatenate([b[k] for b in blocks] or [np.array([], np.int64)]) for k in range(3)]


def test_every_pair_is_a_candidate_at_bound_1():
    assert sampler._link_bound(1, EVERY_PAIR) == 1.0
    keys = _rng.stream_key(np.arange(3, dtype=np.uint64), _rng.TAG_PAIR_UNIF)
    i, pair, _ = _all_candidates(keys, 50, 1.0)
    assert i.tolist() == np.repeat(np.arange(3), 50).tolist()
    assert pair.tolist() == list(range(50)) * 3


def test_subnormal_and_underflowed_bounds_give_no_candidate_and_no_warning():
    bound = sampler._link_bound(2050, P)  # e^-731
    assert 0.0 < bound < np.finfo(np.float64).tiny
    assert sampler._link_bound(3000, P) == 0.0
    keys = _rng.stream_key(np.arange(100, dtype=np.uint64), _rng.TAG_PAIR_UNIF)
    for b in (bound, 5e-324, 0.0):
        assert len(_all_candidates(keys, 10 ** 6, b)[1]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for l in (2050, 3000):
            assert sample_graph(P, 60, l, 1).edge_count == 0
            assert not sample_degrees_fullgraph(P, 60, l, 10, 1).degrees.any()


@pytest.mark.parametrize("u, pairs, bound, want", [
    (0.0, 20, 0.3, 20), (0.0, 20, 5e-324, 20), (0.0, 20, 1.0, 20),  # every gap 0
    (1 - 2 ** -53, 20, 0.3, 0),  # gaps of 102 pairs
    (1 - 2 ** -53, 2 ** 40, 5e-324, 0), (1 - 2 ** -53, 2 ** 62, 5e-324, 0),  # infinite gaps
])
def test_extreme_gap_uniforms_stay_finite(monkeypatch, u, pairs, bound, want):
    # a gap uniform of 0 is a gap of 0 (no NaN, whatever the bound); one near
    # 1 at a subnormal bound is an infinite gap, clamped before the cast, so
    # no candidate index overflows int64
    monkeypatch.setattr(_rng, "uniforms_at", lambda keys, at: np.full(
        np.broadcast_shapes(np.shape(keys), np.shape(at)), u))
    i, pair, level = _all_candidates([7, 8], pairs, bound)
    for k in (0, 1):
        assert pair[i == k].tolist() == list(range(want))
    assert (level == u * bound).all()


def test_sample_graph_memory_stays_bounded():
    # K = 1561 distinct attribute rows at n = 3000, where a K x K link table
    # would take 18.6 MiB: only the rows and one block of candidates are held.
    params = ModelParams(q11=0.7, q10=0.2, q00=0.5, mu1=0.5)
    sample_graph(params, 20, 11, seed=1)  # lazy imports and caches first
    tracemalloc.start()
    try:
        g = sample_graph(params, 3000, 11, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(np.unique(g.attr_words, axis=0)) == 1561
    assert peak <= 8 * 2 ** 20


def test_direct_sampler_memory_stays_bounded():
    # Bounds the BTRS setup at the bench's mixed shape, n = 1e12, l = 28,
    # where ~40% of 200 000 draws take BTRS: its constants are held once per
    # component and read through each draw's component index; seven float64
    # arrays per draw (spq, a, b, c, v_r, alpha, mode) take it past 20 MiB.
    sample_degrees_direct(P, 10**12, 28, 100, seed=1)  # lazy imports and caches first
    tracemalloc.start()
    try:
        sample_degrees_direct(P, 10**12, 28, 200000, seed=37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * 2 ** 20


# ------------------------------------------------------- batched full graphs

@pytest.mark.parametrize("params, n, l", [
    (P, 25, 3),  # bound 0.343
    (P, 300, 6),  # bound 0.118
    (ModelParams(q11=0.99, q10=0.98, q00=0.97, mu1=0.5), 200, 8),  # bound 0.923
    (ModelParams(q11=0.98, q10=0.9, q00=0.95, mu1=0.5), 200, 70),  # two words per row
    (EVERY_PAIR, 50, 1),  # bound 1: every pair is a candidate
], ids=["small", "sparse", "dense", "two-words", "every-pair"])
def test_fullgraph_batch_equals_standalone_realizations(params, n, l):
    if params is EVERY_PAIR:
        assert sampler._link_bound(l, params) >= 1.0
    batch = sample_degrees_fullgraph(params, n, l, 16, seed=99)
    assert batch.method is SampleMethod.FULL_GRAPH
    solo = [sample_graph(params, n, l, replicate_seed(99, r)).degrees()[0] for r in range(16)]
    assert np.array_equal(batch.degrees, solo)
    assert batch.degrees.sum() > 16


def test_fullgraph_node0_degree_by_hand_past_one_pair_block():
    # node 0's n - 1 = 69999 pairs hold about 67900 candidates at a link
    # bound of 0.97, which take nine blocks of gaps, the last cut short;
    # sample_graph's n(n-1)/2 pairs are over budget here, so node 0's degree
    # is counted from every row and candidate drawn by hand.  Nearly every
    # pair is a candidate and an edge, so a read past pair n - 2 would show.
    params, n, l = ModelParams(q11=0.99, q10=0.98, q00=0.97, mu1=0.5), 70_000, 3
    batch = sample_degrees_fullgraph(params, n, l, 3, seed=12)
    for r, got in enumerate(batch.degrees):
        seed = replicate_seed(12, r)
        bits = _rng.bits_at(_rng.stream_key(seed, _rng.TAG_ATTR_BITS),
                            np.arange(n * l, dtype=np.uint64), params.mu1)
        words = sampler.pack_rows(bits.view(np.uint8).reshape(n, l))
        pair, level = _candidates_by_hand(seed, n - 1, sampler._link_bound(l, params))
        assert len(pair) > sampler._GAP_BLOCK
        p = np.exp(sampler._log_link(words[0], words[1 + pair], l, params))
        assert got == np.count_nonzero(level <= p)


def _max_links_by_brute_force(l, cases):
    """Per parameter set, the largest exp(c11 ln q11 + c10 ln q10 + c00 ln q00)
    over every c11 + c10 <= l, each sum evaluated as ``_log_link`` does."""
    c11, ones = np.triu_indices(l + 1)  # every c11 <= ones <= l once
    # int64 counts times a float convert to float64 first, so this is the same
    c11, c10, c00 = (c.astype(np.float64) for c in (c11, ones - c11, l - ones))
    for params in cases:
        log_link = (c11 * math.log(params.q11) + c10 * math.log(params.q10)
                    + c00 * math.log(params.q00))
        top = log_link >= log_link.max() - 1e-6  # exp is only evaluated near the top
        yield params, float(np.exp(log_link[top]).max())


def _bound_cases():
    rng = np.random.default_rng(2024)
    fixed = [
        P,
        ModelParams(q11=0.6, q10=0.3, q00=0.6, mu1=0.5),  # q11 = q00 tie
        ModelParams(q11=0.4, q10=0.4, q00=0.4, mu1=0.5),  # all three equal
        ModelParams(q11=1 - 1e-15, q10=0.999999, q00=0.5, mu1=0.5),  # q near 1
        ModelParams(q11=1e-150, q10=1e-149, q00=3e-150, mu1=0.5),  # q near 1e-150
        ModelParams(q11=1e-150, q10=0.5, q00=1e-150, mu1=0.5),
    ]
    drawn = [ModelParams(*rng.uniform(1e-3, 1 - 1e-3, 3), mu1=0.5) for _ in range(30)]
    return fixed + drawn


@pytest.mark.parametrize("l", [1, 2, 7, 8, 64, 65, 300, 2000])
def test_link_bound_covers_every_link(l):
    for params, top in _max_links_by_brute_force(l, _bound_cases()):
        bound = sampler._link_bound(l, params)
        assert bound >= top, (l, params)
        assert bound <= top * (1 + 1e-6) + 1e-300, (l, params)  # tight enough to prune


def test_fullgraph_batch_thread_invariance(monkeypatch):
    a = sample_degrees_fullgraph(P, 40, 3, 600, seed=5)
    b = sample_degrees_fullgraph(P, 40, 3, 600, seed=5)
    c = sample_degrees_fullgraph(P, 40, 3, 600, seed=6)
    assert np.array_equal(a.degrees, b.degrees)
    assert not np.array_equal(a.degrees, c.degrees)
    # Small chunks: 600 replicates of 440 elements each span >= 5 chunks of
    # <= 10^4 elements; bytes do not depend on the split.
    spans = []
    monkeypatch.setattr(sampler, "_CHUNK_ELEMS", 10 ** 4)
    real_spans = sampler._spans

    def counting_spans(count, item_elems):
        for span in real_spans(count, item_elems):
            spans.append(span)  # as the sampler reaches it
            yield span

    monkeypatch.setattr(sampler, "_spans", counting_spans)
    split = sample_degrees_fullgraph(P, 40, 3, 600, seed=5)
    assert np.array_equal(split.degrees, a.degrees)
    assert len(spans) >= 5
    assert spans[0][0] == 0 and sum(i1 - i0 for i0, i1 in spans) == 600


@pytest.mark.parametrize("params", [
    P, ModelParams(q11=0.99, q10=0.98, q00=0.97, mu1=0.5),
], ids=["sparse", "dense"])
def test_fullgraph_chunk_memory_stays_bounded(params):
    # the bench's fullgraph batch: 19 chunks of 63 or 64 graphs at n = 2000,
    # l = 8.  Attribute bits come one byte each from the word stream, so
    # no chunk holds a double per attribute (that took the peak to 36.6 MiB),
    # and no chunk's arrays outlive it (holding them into the next chunk
    # took it to 26.2 MiB).  At the dense parameters (link bound 0.923)
    # most pairs are candidates, whose rows are drawn.
    sample_degrees_fullgraph(params, 20, 8, 4, seed=1)  # lazy imports and caches first
    tracemalloc.start()
    try:
        sample_degrees_fullgraph(params, 2000, 8, 1200, seed=23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20


@pytest.mark.parametrize("count, item_elems, n_spans", [
    (200_000, 14, 1),  # bench `inv`
    (200_000, 28, 2),  # bench `mixed`
    (25_000, 7, 1),  # bench `rej`
    (1200, 2000 * (8 + 8), 10),  # bench `fullgraph` at its old 16 elements a pair
    (1200, 2000 * (2 * 8 + 16), 19),  # bench `fullgraph`
    (100, 1 << 20, 25), (1, 10 ** 9, 1), (3, 1, 1), (10 ** 6, 16, 4), (10 ** 8, 16, 382),
])
def test_run_chunks_runs_near_equal_spans_in_order(count, item_elems, n_spans):
    # The samplers walk these spans of `_spans` in a loop; the test keeps the
    # name of `_run_chunks`, the callback runner `_spans` replaced.
    assert sampler._CHUNK_ELEMS == 1 << 22
    spans = sampler._spans(count, item_elems)
    assert len(spans) == n_spans
    # in order and without gaps: each span starts where the one before ended
    assert spans[0][0] == 0 and spans[-1][1] == count
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    sizes = [i1 - i0 for i0, i1 in spans]
    assert max(sizes) - min(sizes) <= 1  # near-equal
    assert max(sizes) == 1 or max(sizes) * item_elems <= sampler._CHUNK_ELEMS


@pytest.mark.parametrize("count, item_elems, threads, n_spans", [
    (200_000, 14, 1, 1), (200_000, 14, 2, 2),  # bench `inv`
    (200_000, 28, 1, 2), (200_000, 28, 2, 2),  # bench `mixed`
    (25_000, 7, 2, 1),  # bench `rej`
    # bench `fullgraph` at its old 16 elements a pair
    (1200, 2000 * (8 + 8), 1, 10), (1200, 2000 * (8 + 8), 2, 10),
    (100, 1 << 20, 4, 28), (1, 10 ** 9, 4, 1), (3, 1, 8, 1),
])
def test_run_chunks_splits_work_into_equal_spans_per_thread(count, item_elems, threads,
                                                            n_spans):
    # A `threads`-worker pool once ran these n_spans near-equal spans in any
    # order.  One thread runs no more spans of `_spans` than that, and since
    # each draw reads only its own stream positions, both splits write the
    # same bytes.
    key = _rng.stream_key(9, _rng.TAG_DIRECT_U)

    def filler(out):
        def work(i0, i1):
            out[i0:i1] = _rng.uniforms_at(key, np.arange(i0, i1, dtype=np.uint64))
        return work

    one_thread = np.full(count, np.nan)
    spans = sampler._spans(count, item_elems)
    for i0, i1 in spans:
        filler(one_thread)(i0, i1)
    assert len(spans) <= n_spans
    per_thread = np.full(count, np.nan)
    edges = [count * k // n_spans for k in range(n_spans + 1)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        for f in [pool.submit(filler(per_thread), i0, i1)
                  for i0, i1 in reversed(list(zip(edges, edges[1:])))]:
            f.result()
    assert not np.isnan(per_thread).any()
    assert np.array_equal(one_thread, per_thread)


def test_replicate_seeds_are_distinct():
    seeds = {replicate_seed(12345, r) for r in range(1000)}
    assert len(seeds) == 1000


# ------------------------------------------------------------- direct route

def test_direct_sampler_deterministic_and_thread_invariant(monkeypatch):
    a = sample_degrees_direct(P, 10**6, 14, 5000, seed=7)
    b = sample_degrees_direct(P, 10**6, 14, 5000, seed=7)
    c = sample_degrees_direct(P, 10**6, 14, 5000, seed=8)
    assert np.array_equal(a.degrees, b.degrees)
    assert not np.array_equal(a.degrees, c.degrees)
    assert a.method is SampleMethod.DIRECT
    assert a.n == 10**6 and a.l == 14 and a.seed == 7
    # l = 7 sends every draw to BTRS.  Small chunks split the draws over
    # many work items; bytes do not depend on the split.
    rej = sample_degrees_direct(P, 10**6, 7, 3000, seed=41).degrees
    monkeypatch.setattr(sampler, "_CHUNK_ELEMS", 1000)  # 49 chunks of 61-62 draws
    split = sample_degrees_direct(P, 10**6, 7, 3000, seed=41)
    assert np.array_equal(split.degrees, rej)


def test_direct_sampler_inversion_branch_distribution():
    # n=30, l=3: all conditional means are tiny -> pure inversion path
    draws = sample_degrees_direct(P, 30, 3, 200000, seed=13)
    exact = np.asarray(DegreePmfTable.from_model(P, 30, 3).pmf(np.arange(30)))
    assert tv_to_exact(draws.degrees, exact) < 0.01
    _, p, dof = chi_square_gof(draws.degrees, exact)
    assert p > 1e-3
    assert dof >= 5


def test_direct_sampler_rejection_branch_distribution():
    # n=20001, l=1: conditional means are 10000*0.5=5000 or 10000*0.32=3200,
    # far above the inversion cutoff -> exercises the rejection path
    n, l = 20001, 1
    draws = sample_degrees_direct(P, n, l, 40000, seed=17)
    table = DegreePmfTable.from_model(P, n, l)
    lo, hi = table.quantile(1e-9), table.quantile(1 - 1e-9)
    exact = np.asarray(table.pmf(np.arange(n)))
    # coarse-bin chi-square over the bulk
    edges = np.linspace(lo, hi + 1, 40).astype(np.int64)
    obs = np.histogram(draws.degrees, bins=edges)[0]
    probs = np.add.reduceat(exact, edges[:-1])[: len(obs)]
    # last reduceat slice runs to the end; rebuild properly
    probs = np.array(
        [exact[a:b].sum() for a, b in zip(edges[:-1], edges[1:])]
    )
    exp = probs * len(draws.degrees)
    keep = exp > 5
    chi2 = float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum())
    pval = float(stats.chi2.sf(chi2, keep.sum() - 1))
    assert pval > 1e-3
    # moments as a second witness
    mean_exact = float((np.arange(n) * exact).sum())
    assert draws.degrees.mean() == pytest.approx(mean_exact, rel=0.01)


def test_direct_sampler_complement_flip_distribution():
    # All q equal: p_S = q^l for every S, so D ~ Bin(n - 1, q) exactly.
    # q = 0.9: mean 900 and complement mean 100, so BTRS draws Bin(1000, 0.1)
    # and flips it; q = 0.995: complement mean 5, so inversion takes the draw.
    for q, seed in ((0.9, 19), (0.995, 20)):
        params = ModelParams(q11=q, q10=q, q00=q, mu1=0.6)
        draws = sample_degrees_direct(params, 1001, 1, 100000, seed=seed).degrees
        exact = stats.binom.pmf(np.arange(1001), 1000, q)
        assert tv_to_exact(draws, exact) < 0.01
        _, pval, dof = chi_square_gof(draws, exact)
        assert pval > 1e-3
        assert dof >= 5


def test_direct_draws_where_components_merge_follow_the_exact_law():
    # with gamma1 = gamma0 = 0.99 the 1001 computed p_s take two doubles:
    # a draw picks one of the two merged components, which pmf sums over
    params = ModelParams(q11=0.99, q10=0.99, q00=0.99, mu1=0.5)
    table = DegreePmfTable.from_model(params, 10**6, 1000)
    assert len(table.p) == 2
    draws = sample_degrees_direct(params, 10**6, 1000, 100000, seed=29).degrees
    exact = np.asarray(table.pmf(np.arange(draws.max() + 1)))
    _, pval, dof = chi_square_gof(draws, exact)
    assert pval > FIT_ALPHA
    assert dof >= 5


def test_direct_draws_from_a_floored_component_are_zero():
    # at n = 1000, l = 1e6 every p_s is below the smallest normal double:
    # the one floored component puts all its mass on degree 0
    table = DegreePmfTable.from_model(P, 1000, 10**6)
    assert table.p.tolist() == [np.finfo(np.float64).tiny]
    draws = sample_degrees_direct(P, 1000, 10**6, 10000, seed=31).degrees
    assert np.all(draws == 0)


def test_direct_sampler_rejection_draws_at_mixed_scale_match_exact_binomials():
    # The bench's `mixed` scale: n = 1e12, l = 28, where ~40% of draws take
    # BTRS.  Each draw's attribute count S is recomputed from its uniform by
    # scipy's Bin(l, mu1) quantile, so every BTRS draw is compared with its
    # own Bin(n - 1, p_S) from scipy (DegreePmfTable's pmf is too coarse at
    # this n).
    n, l, count, seed = 10**12, 28, 100000, 23
    draws = sample_degrees_direct(P, n, l, count, seed=seed).degrees
    key_s = _rng.stream_key(seed, _rng.TAG_DIRECT_S)
    s = stats.binom.ppf(_rng.uniforms_at(key_s, np.arange(count, dtype=np.uint64)), l, P.mu1)
    c = derive_constants(P)
    chi2, dof, tested = 0.0, 0, 0
    for sv in np.unique(s):
        p = math.exp(sv * c.log_gamma1 + (l - sv) * c.log_gamma0)
        group = draws[s == sv]
        if (n - 1) * min(p, 1 - p) <= INVERSION_MEAN_MAX or len(group) < 100:
            continue
        support = np.arange(stats.binom.ppf(1 - 1e-12, n - 1, p) + 1)
        g_chi2, _, g_dof = chi_square_gof(group, stats.binom.pmf(support, n - 1, p))
        chi2, dof, tested = chi2 + g_chi2, dof + g_dof, tested + len(group)
    assert tested > 0.35 * count
    assert dof >= 50
    assert stats.chi2.sf(chi2, dof) > 1e-3


def test_btrs_acceptance_bound_matches_40_digit_reference():
    # BTRS accepts k when ln v <= ln f(k)/f(mode).  Check that bound at
    # m = 1e12 - 1, p = 1e-10 (mode 100, sd 10), over k = 0..16 (stirlerr
    # table and series) and mode +- 6 sd.  A plain
    # (m + 1) ln((m - M + 1)/(m - k + 1)) or an lgamma difference is off by
    # up to ~5e-3 here.
    m, p = 10**12 - 1, 1e-10
    mode = math.floor((m + 1) * p)
    ks = np.concatenate([np.arange(17.0), np.arange(mode - 60, mode + 61.0)])
    got = _binomial_log_pmf(m, p, ks) - _binomial_log_pmf(m, p, float(mode))
    with mp.workdps(40):
        pm = mp.mpf(p)

        def log_pmf(k):
            return (mp.loggamma(m + 1) - mp.loggamma(k + 1) - mp.loggamma(m - k + 1)
                    + k * mp.log(pm) + (m - k) * mp.log1p(-pm))

        want = [float(log_pmf(int(k)) - log_pmf(mode)) for k in ks]
    for k, g, w in zip(ks, got, want):
        assert abs(g - w) <= 1e-10, (k, g, w)


def test_both_degree_routes_agree_in_distribution():
    direct = sample_degrees_direct(P, 30, 3, 50000, seed=2)
    graphs = sample_degrees_fullgraph(P, 30, 3, 50000, seed=3)
    _, p = stats.ks_2samp(direct.degrees, graphs.degrees, method="auto")
    assert p > 0.001


def test_binomial_inversion_matches_reference_distribution():
    rng_u = np.random.default_rng(0).uniform(size=20000)
    one = np.zeros(20000, np.uint8)  # every draw from component 0
    # p > 0.5 unmirrored: the tables are exact there too, only longer
    # (the direct sampler mirrors before it calls this)
    hi = _binomial_inversion(40, np.array([0.9]), one, rng_u)
    assert tv_to_exact(hi, stats.binom.pmf(np.arange(41), 40, 0.9)) < 0.02
    lo = _binomial_inversion(40, np.array([0.1]), one, rng_u)
    assert tv_to_exact(lo, stats.binom.pmf(np.arange(41), 40, 0.1)) < 0.02
    # the quantile function is exact at explicit uniforms
    u = np.array([0.0, stats.binom.cdf(3, 40, 0.1) - 1e-12,
                  stats.binom.cdf(3, 40, 0.1) + 1e-12, 0.999999])
    got = _binomial_inversion(40, np.array([0.1]), one[:4], u)
    assert list(got[:3]) == [0, 3, 4]
    # degenerate corner: microscopic p yields all zeros
    assert np.all(_binomial_inversion(10, np.array([1e-300]), one[:100], rng_u[:100]) == 0)


def _binomial_inversion_reference(m, p, u):
    """The sequential search from k = 0, draw by draw: the first k at which
    the running sum of the Loader pmf reaches u, else the table end
    min(m, mean + K), past which the exact law puts less than 1e-20."""
    cdfs = {}
    k = np.zeros(len(u), dtype=np.int64)
    for i, (pi, ui) in enumerate(zip(p, u)):
        if pi not in cdfs:
            end = int(min(m, math.ceil(m * pi + _band(m * pi))))
            cdfs[pi] = np.add.accumulate(np.exp(_binomial_log_pmf(m, pi, np.arange(end + 1.0))))
        cdf = cdfs[pi]
        k[i] = len(cdf) - 1
        for kk, c in enumerate(cdf):
            if c >= ui:
                k[i] = kk
                break
    return k


def test_binomial_inversion_equals_per_draw_search():
    # a table is the per-draw running sum term for term, so every k must
    # match the sequential search's; away from every cdf step, k is also
    # scipy's quantile
    top = 1.0 - 2.0 ** -53  # the largest uniform
    rng = np.random.default_rng(41)
    cases = [
        (40, [0.9, 0.6, 0.5]),  # p > 1/2 unmirrored; at top the search stops at k = m
        (10, [1e-300]),
        (1000, [0.01]),  # at top the search stops at k = 44, scipy's ppf at 45
        (1000, [0.7]),  # p > 1/2 unmirrored: the table runs to k = m
        (3, [0.1, 0.2, 0.3, 0.4]),
        (1, [0.3]),
        (10 ** 12, [30e-12, 1e-12, 1e-300]),
    ]
    for _ in range(30):
        m = int(rng.choice([2, 7, 40, 300, 10 ** 6, 10 ** 12]))
        cases.append((m, list(np.minimum(rng.uniform(0, 30, size=rng.integers(1, 30)) / m, 0.5))))
    for m, q in cases:
        q = np.array(q)
        for size in (0, 1, 500):
            comp = rng.integers(0, len(q), size=size).astype(np.uint8)
            u = rng.uniform(size=size)
            u[rng.uniform(size=size) < 0.1] = top
            u[rng.uniform(size=size) < 0.05] = 0.0
            got = _binomial_inversion(m, q, comp, u)
            assert got.dtype == np.int64 and got.shape == (size,)
            assert np.array_equal(got, _binomial_inversion_reference(m, q[comp], u)), (m, q, size)
            for j in np.unique(comp):
                at = comp == j
                end = min(m, math.ceil(m * q[j] + _band(m * q[j])))
                steps = np.append(0.0, stats.binom.cdf(np.arange(end + 1), m, q[j]))
                far = np.abs(u[at, None] - steps).min(axis=1) >= 1e-12
                want = stats.binom.ppf(u[at][far], m, q[j])
                assert np.array_equal(got[at][far], want), (m, q[j])
    # at the largest uniform the search stops where the rounded running sum
    # first reaches it, at scipy's quantile or within one of it, never past
    # the table's end; an unmirrored p > 1/2 is searched up to its median
    one = np.zeros(1, np.uint8)
    assert _binomial_inversion(40, np.array([0.1]), one, np.array([top]))[0] == 25
    k = _binomial_inversion(1000, np.array([0.01]), one, np.array([top]))[0]
    assert k == 44
    assert abs(k - stats.binom.ppf(top, 1000, 0.01)) <= 1 and k <= 10 + _band(10.0)
    assert _binomial_inversion(1000, np.array([0.7]), one, np.array([0.5]))[0] == 700


def test_direct_sampler_validation():
    with pytest.raises(InvalidParamsError):
        sample_degrees_direct(P, 30, 3, 0, seed=1)
    with pytest.raises(InvalidParamsError):
        sample_degrees_direct(P, 1, 3, 10, seed=1)
    with pytest.raises(InvalidParamsError):
        sample_degrees_direct(P, 30, 3, 10, seed=-1)
    with pytest.raises(InvalidParamsError):
        sample_degrees_direct(P, 30, 3, 10, seed=2**64)


# ------------------------------------------------------------------- writers

def test_edge_list_format(monkeypatch):
    # rows are formatted in blocks; 7 puts block boundaries inside the rows
    monkeypatch.setattr(model, "_WRITE_BLOCK", 7)
    g = sample_graph(P, 20, 3, seed=5)
    assert len(g.edges) > 7
    buf = io.StringIO()
    write_edge_list(g, buf)
    lines = buf.getvalue().strip().split("\n")
    headers = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert any("n=20" in h and "l=3" in h and "seed=5" in h for h in headers)
    assert any("q11=0.7" in h for h in headers)
    assert len(rows) == len(g.edges)
    for row, (u, v) in zip(rows, g.edges):
        a, b = row.split("\t")
        assert (int(a), int(b)) == (int(u), int(v))


def test_degrees_csv_format(monkeypatch):
    monkeypatch.setattr(model, "_WRITE_BLOCK", 7)
    s = sample_degrees_direct(P, 100, 4, 50, seed=9)
    buf = io.StringIO()
    write_degrees_csv(s, buf)
    lines = buf.getvalue().strip().split("\n")
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert rows[0] == "degree"
    assert len(rows) == 51
    assert np.array_equal(np.array([int(r) for r in rows[1:]]), s.degrees)


def test_attributes_file_roundtrip(tmp_path):
    g = sample_graph(P, 15, 5, seed=3)
    path = tmp_path / "attrs.txt"
    write_attributes(g, str(path))
    body = [
        ln for ln in path.read_text().strip().split("\n") if not ln.startswith("#")
    ]
    # one unseparated '0'/'1' string of length l per node
    assert all(len(ln) == 5 and set(ln) <= {"0", "1"} for ln in body)
    mat = np.array([[int(ch) for ch in ln] for ln in body])
    assert np.array_equal(mat, g.attribute_matrix())


def test_attributes_file_matches_per_bit_text():
    # l = 130 is three packed words and no whole number of bytes
    g = sample_graph(P, 40, 130, seed=5)
    buf = io.StringIO()
    write_attributes(g, buf)
    per_bit = ["".join("1" if b else "0" for b in row) for row in g.attribute_matrix()]
    assert buf.getvalue() == "".join(line + "\n" for line in per_bit)


@pytest.mark.parametrize("l", [1, 8, 9, 64, 65])
def test_attributes_file_matches_per_row_text_in_blocks(monkeypatch, l):
    # one decode per block of rows gives the bytes of one decode per row;
    # 7 puts block boundaries inside the 20 rows
    monkeypatch.setattr(model, "_WRITE_BLOCK", 7)
    g = sample_graph(P, 20, l, seed=l)
    buf = io.StringIO()
    write_attributes(g, buf)
    per_row = [bytes(row).decode("ascii") for row in g.attribute_matrix() + ord("0")]
    assert buf.getvalue() == "".join(line + "\n" for line in per_row)
