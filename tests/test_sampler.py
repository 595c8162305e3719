"""Graph and degree samplers: determinism, exactness, and the two-route
agreement between full-graph realizations and direct compound draws.
"""

import hashlib
import io
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

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
from magnet.degree_dist import _binomial_log_pmf
from magnet.sampler import (
    INVERSION_MEAN_MAX,
    _binomial_inversion,
    _log_link,
    _pair_index,
    pack_rows,
    replicate_seed,
    unpack_rows,
)
from magnet.stats import chi_square_gof, tv_to_exact

P = REFERENCE_PARAMS


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
    with pytest.raises(BudgetError):
        sample_degrees_fullgraph(P, 100, 3, 1, seed=0, pair_budget=4949)
    sample_degrees_fullgraph(P, 100, 3, 1, seed=0, pair_budget=4950)


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
    # draw moves them. At l = 130 each packed row spans 3 words.
    q = ModelParams(q11=0.99, q10=0.97, q00=0.98, mu1=0.5)

    def edge_list_digest(graph):
        buf = io.StringIO()
        write_edge_list(graph, buf)
        return hashlib.sha256(buf.getvalue().encode()).hexdigest()

    wide = sample_graph(q, 300, 130, seed=3)
    assert wide.edge_count == 2372
    assert edge_list_digest(wide) == (
        "86f0668708a039d5a9521a498e0c5c8a6551b2b2ee50ebbab4d1669787715427")
    narrow = sample_graph(P, 300, 6, seed=3)
    assert narrow.edge_count == 262
    assert edge_list_digest(narrow) == (
        "372182bccaf1e53f9a3eb25906e674516b9d26b63d8c3e5335a630bcd9678290")
    def degrees_digest(samples):
        return hashlib.sha256(samples.degrees.astype("<i8").tobytes()).hexdigest()

    assert degrees_digest(sample_degrees_fullgraph(q, 500, 70, 64, seed=11)) == (
        "34d76604b71203c90520664cac1df9e9345659c8f057c2cfb5346981c7bb21bf")
    # bench scale: the class table, many pair blocks and several chunks
    bench = sample_graph(P, 3000, 8, seed=17)
    assert bench.edge_count == 5201
    assert edge_list_digest(bench) == (
        "6276f564f0c8dba057db4d6f68c0aaa3008c91d0892538ab433003c775f4e0f4")
    assert degrees_digest(sample_degrees_fullgraph(P, 2000, 8, 300, seed=19)) == (
        "55d19c75239e7d06fc657c28adcfd0ed9c8d6e16bfbbf7bf20eeb9b82464cd0b")
    # direct route: n = 30, l = 3 takes only the inversion branch, n = 1e6,
    # l = 7 only BTRS
    assert degrees_digest(sample_degrees_direct(P, 30, 3, 5000, seed=13)) == (
        "2c5380f46d42c0bd7e85d8e983ea5396b71f2e5762989c874aff11a3ec68995b")
    assert degrees_digest(sample_degrees_direct(P, 10**6, 7, 5000, seed=13)) == (
        "d78aaa3367bb65e5d972a5928f6c0c56ae60bbe63ffe33cdb5978bd1b0983ff3")


def _brute_force_edges(params, n, l, seed):
    """Every pair on its own: its uniform at ``_pair_index`` against
    ``exp(_log_link)`` of its two attribute rows, rows drawn from their
    stream by hand."""
    key_attr = _rng.stream_key(seed, _rng.TAG_ATTR_BITS)
    bits = _rng.uniforms_at(key_attr, np.arange(n * l, dtype=np.uint64)) < params.mu1
    words = pack_rows(bits.reshape(n, l))
    u, v = np.triu_indices(n, 1)
    p = np.exp(_log_link(words[u], words[v], l, params))
    unif = _rng.uniforms_at(_rng.stream_key(seed, _rng.TAG_PAIR_UNIF), _pair_index(u, v, n))
    hit = unif <= p
    return words, np.stack([u[hit], v[hit]], axis=1)


@pytest.mark.parametrize("block_pairs", [None, 1000, 50])
@pytest.mark.parametrize("params, n, l, table", [
    (P, 200, 3, True),  # K = 8 classes < n: the class table
    (ModelParams(q11=0.99, q10=0.97, q00=0.98, mu1=0.5), 120, 130, False),  # K = n, 3 words
])
def test_sample_graph_matches_per_pair_brute_force(monkeypatch, params, n, l, table,
                                                   block_pairs):
    if block_pairs is not None:  # 50 pairs is shorter than a row
        monkeypatch.setattr(sampler, "_BLOCK_PAIRS", block_pairs)
    words, edges = _brute_force_edges(params, n, l, seed=8)
    k = len(np.unique(words, axis=0))
    assert (k * k <= sampler._TABLE_ENTRIES_PER_NODE * n) == table
    assert k == (8 if table else n)
    g = sample_graph(params, n, l, seed=8)
    assert np.array_equal(g.attr_words, words)
    assert len(edges) > 100
    assert g.edges.dtype == np.int64
    assert np.array_equal(g.edges, edges)


# ------------------------------------------------------- batched full graphs

def test_fullgraph_batch_equals_standalone_realizations():
    batch = sample_degrees_fullgraph(P, 25, 3, 16, seed=99)
    assert batch.method is SampleMethod.FULL_GRAPH
    solo = np.array(
        [
            sample_graph(P, 25, 3, replicate_seed(99, r)).degrees()[0]
            for r in range(16)
        ]
    )
    assert np.array_equal(batch.degrees, solo)


def test_fullgraph_batch_thread_invariance(monkeypatch):
    a = sample_degrees_fullgraph(P, 40, 3, 600, seed=5, threads=1)
    b = sample_degrees_fullgraph(P, 40, 3, 600, seed=5, threads=3)
    assert np.array_equal(a.degrees, b.degrees)
    # Small chunks: 600 replicates of 120 elements each span >= 5 chunks of
    # <= 10^4 elements; bytes depend neither on the split nor on threads.
    spans = []
    monkeypatch.setattr(sampler, "_CHUNK_ELEMS", 10 ** 4)
    real_run_chunks = sampler._run_chunks

    def counting_run_chunks(work, count, item_elems, threads):
        def counted(i0, i1):
            spans.append((i0, i1))
            work(i0, i1)
        real_run_chunks(counted, count, item_elems, threads)

    monkeypatch.setattr(sampler, "_run_chunks", counting_run_chunks)
    for threads in (1, 2, 4):
        spans.clear()
        split = sample_degrees_fullgraph(P, 40, 3, 600, seed=5, threads=threads)
        assert np.array_equal(split.degrees, a.degrees)
        assert len(spans) >= 5 and len(spans) % threads == 0
        assert sorted(spans)[0][0] == 0 and sum(i1 - i0 for i0, i1 in spans) == 600


@pytest.mark.parametrize("count, item_elems, threads, n_spans", [
    (200_000, 14, 1, 1), (200_000, 14, 2, 2),  # bench `inv`
    (200_000, 28, 1, 2), (200_000, 28, 2, 2),  # bench `mixed`
    (25_000, 7, 2, 1),  # bench `rej`: below the per-thread minimum of work
    (1200, 2000 * 8, 1, 5), (1200, 2000 * 8, 2, 6),  # bench `fullgraph`
    (100, 1 << 20, 4, 28), (1, 10 ** 9, 4, 1), (3, 1, 8, 1),
])
def test_run_chunks_splits_work_into_equal_spans_per_thread(count, item_elems, threads,
                                                            n_spans):
    assert sampler._CHUNK_ELEMS == 1 << 22
    spans = []
    sampler._run_chunks(lambda i0, i1: spans.append((i0, i1)), count, item_elems, threads)
    spans.sort()
    assert len(spans) == n_spans
    assert spans[0][0] == 0 and spans[-1][1] == count
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    sizes = [i1 - i0 for i0, i1 in spans]
    assert max(sizes) - min(sizes) <= 1  # near-equal
    assert max(sizes) == 1 or (max(sizes) - 1) * item_elems < sampler._CHUNK_ELEMS


def test_replicate_seeds_are_distinct():
    seeds = {replicate_seed(12345, r) for r in range(1000)}
    assert len(seeds) == 1000


# ------------------------------------------------------------- direct route

def test_direct_sampler_deterministic_and_thread_invariant(monkeypatch):
    a = sample_degrees_direct(P, 10**6, 14, 5000, seed=7, threads=1)
    b = sample_degrees_direct(P, 10**6, 14, 5000, seed=7, threads=4)
    c = sample_degrees_direct(P, 10**6, 14, 5000, seed=8, threads=1)
    assert np.array_equal(a.degrees, b.degrees)
    assert not np.array_equal(a.degrees, c.degrees)
    assert a.method is SampleMethod.DIRECT
    assert a.n == 10**6 and a.l == 14 and a.seed == 7
    # l = 7 sends every draw to BTRS.  Small chunks split the draws over
    # many work items; bytes depend neither on the split nor on threads.
    rej = sample_degrees_direct(P, 10**6, 7, 3000, seed=41).degrees
    monkeypatch.setattr(sampler, "_CHUNK_ELEMS", 1000)  # 21-24 chunks of 125-143 draws
    for threads in (1, 2, 4):
        split = sample_degrees_direct(P, 10**6, 7, 3000, seed=41, threads=threads)
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


def test_direct_sampler_rejection_draws_at_mixed_scale_match_exact_binomials():
    # The bench's `mixed` scale: n = 1e12, l = 28, where ~40% of draws take
    # BTRS.  Each draw's attribute count S is recomputed from its stream, so
    # every BTRS draw is compared with its own Bin(n - 1, p_S) from scipy
    # (DegreePmfTable's pmf is too coarse at this n).
    n, l, count, seed = 10**12, 28, 100000, 23
    draws = sample_degrees_direct(P, n, l, count, seed=seed).degrees
    key_s = _rng.stream_key(seed, _rng.TAG_DIRECT_S)
    bits = _rng.uniforms_at(key_s, np.arange(count * l, dtype=np.uint64)) < P.mu1
    s = bits.reshape(count, l).sum(axis=1)
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
    # complement flip: p > 0.5 goes through the mirrored recurrence
    hi = _binomial_inversion(40, np.full(20000, 0.9), rng_u)
    assert tv_to_exact(hi, stats.binom.pmf(np.arange(41), 40, 0.9)) < 0.02
    lo = _binomial_inversion(40, np.full(20000, 0.1), rng_u)
    assert tv_to_exact(lo, stats.binom.pmf(np.arange(41), 40, 0.1)) < 0.02
    # the quantile function is exact at explicit uniforms
    u = np.array([0.0, stats.binom.cdf(3, 40, 0.1) - 1e-12,
                  stats.binom.cdf(3, 40, 0.1) + 1e-12, 0.999999])
    got = _binomial_inversion(40, np.full(4, 0.1), u)
    assert list(got[:3]) == [0, 3, 4]
    # degenerate corner: microscopic p yields all zeros
    assert np.all(_binomial_inversion(10, np.full(100, 1e-300), rng_u[:100]) == 0)


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

def test_edge_list_format():
    g = sample_graph(P, 20, 3, seed=5)
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


def test_degrees_csv_format():
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
