"""Counter-based RNG: the vectorized mixer must agree bit-for-bit with a
pure-integer reference, and keyed streams must be deterministic functions
of (seed, tag, index).
"""

import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from magnet import _rng
from magnet._rng import (
    GOLDEN,
    TAG_ATTR_BITS,
    TAG_PAIR_UNIF,
    advance,
    bits_at,
    mix64,
    mix64_array,
    stream_key,
    uniforms_at,
    word_at,
    words_at,
)

_M = (1 << 64) - 1


def _mix64_reference(z: int) -> int:
    # Pure-Python integer arithmetic, no numpy: the independent oracle.
    z &= _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return (z ^ (z >> 31)) & _M


def test_mixer_matches_pure_python_reference():
    rng = np.random.default_rng(123)
    xs = rng.integers(0, 1 << 64, size=2000, dtype=np.uint64)
    expected = np.array([_mix64_reference(int(x)) for x in xs], dtype=np.uint64)
    assert np.array_equal(mix64_array(xs), expected)
    for x in xs[:50]:
        assert mix64(int(x)) == _mix64_reference(int(x))


def test_counter_stream_reproduces_published_vectors():
    # Sequential finalization of k*GOLDEN is the classic splitmix64 output
    # stream from state 0; its first two words are widely published.
    assert word_at(0, 0) == 0xE220A8397B1DCDAF
    assert word_at(0, 1) == 0x6E789E6AA1B965F4
    got = words_at(np.uint64(0), np.arange(2, dtype=np.uint64))
    assert list(got) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


def test_words_at_is_pure_in_key_and_index():
    key = stream_key(987654321, TAG_ATTR_BITS)
    idx = np.arange(1000, dtype=np.uint64)
    a = words_at(key, idx)
    b = words_at(key, idx)
    assert np.array_equal(a, b)
    # Random access equals sequential access.
    assert word_at(key, 537) == a[537]
    shuffled = np.array([701, 3, 999, 0], dtype=np.uint64)
    assert np.array_equal(words_at(key, shuffled), a[[701, 3, 999, 0]])
    # A key array broadcasts against the indices: one stream per key.
    keys = np.array([key, stream_key(1, TAG_ATTR_BITS)], dtype=np.uint64)
    rows = words_at(keys[:, None], idx)
    assert np.array_equal(rows[0], a)
    assert np.array_equal(rows[1], words_at(int(keys[1]), idx))
    assert np.array_equal(uniforms_at(keys[:, None], idx)[1], uniforms_at(int(keys[1]), idx))


def test_stream_keys_separate_tags_and_seeds():
    k_attr = stream_key(42, TAG_ATTR_BITS)
    k_pair = stream_key(42, TAG_PAIR_UNIF)
    k_other = stream_key(43, TAG_ATTR_BITS)
    assert k_attr != k_pair
    assert k_attr != k_other
    assert k_attr == stream_key(42, TAG_ATTR_BITS)
    # A seed array gives the scalar keys elementwise.
    seeds = np.array([0, 42, 2**64 - 1], dtype=np.uint64)
    keys = stream_key(seeds, TAG_ATTR_BITS)
    assert [int(k) for k in keys] == [stream_key(int(s), TAG_ATTR_BITS) for s in seeds]
    # Streams under different keys should not collide over a short prefix.
    idx = np.arange(4096, dtype=np.uint64)
    assert not np.any(words_at(k_attr, idx) == words_at(k_pair, idx))


def test_uniforms_live_in_unit_interval_with_53_bit_resolution():
    key = stream_key(7, TAG_PAIR_UNIF)
    u = uniforms_at(key, np.arange(200000, dtype=np.uint64))
    assert u.dtype == np.float64
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # Values are multiples of 2**-53.
    scaled = u * (1 << 53)
    assert np.array_equal(scaled, np.floor(scaled))
    assert uniforms_at(key, np.array([12345], dtype=np.uint64))[0] == u[12345]


def test_uniform_stream_moments_are_sane():
    key = stream_key(2024, TAG_PAIR_UNIF)
    u = uniforms_at(key, np.arange(10**6, dtype=np.uint64))
    # mean 0.5 +- 5 sigma, sigma = 1/sqrt(12 N)
    assert abs(u.mean() - 0.5) < 5.0 / np.sqrt(12 * 10**6)
    assert abs(u.var() - 1.0 / 12.0) < 5e-4
    # 64-bit words over 1e6 draws: birthday collision odds ~ 2.7e-8
    w = words_at(key, np.arange(10**6, dtype=np.uint64))
    assert len(np.unique(w)) == 10**6


def _scalar_words(key: int, indices) -> np.ndarray:
    return np.array([word_at(key, int(i)) for i in indices], dtype=np.uint64)


def _scalar_uniforms(words: np.ndarray) -> np.ndarray:
    return np.array([(int(w) >> 11) * 2.0 ** -53 for w in words])


@pytest.mark.parametrize("size", [0, 1, _rng._BLOCK - 1, _rng._BLOCK, _rng._BLOCK + 1,
                                  3 * _rng._BLOCK + 7])
def test_blocked_kernel_matches_scalar_words_at_block_edges(size):
    # The kernel evaluates the finalizer in place, block by block; every
    # word must still equal the scalar formula, at and across block edges.
    key = stream_key(2718, TAG_PAIR_UNIF)
    idx = np.arange(size, dtype=np.uint64) + np.uint64(10 ** 12)
    want = _scalar_words(key, idx)
    got = words_at(key, idx)
    assert got.dtype == np.uint64 and got.shape == (size,)
    assert np.array_equal(got, want)
    unif = uniforms_at(key, idx)
    assert unif.dtype == np.float64 and unif.shape == (size,)
    assert np.array_equal(unif, _scalar_uniforms(want))
    # int64 indices (as the samplers pass them) give the same words.
    assert np.array_equal(words_at(key, idx.astype(np.int64)), want)


@pytest.mark.parametrize("n", [7, _rng._BLOCK + 5])
def test_blocked_kernel_broadcasts_key_columns_against_indices(n):
    # A (R, 1) key column against (n,) indices: short rows share a block,
    # long rows span several.
    keys = np.array([stream_key(s, TAG_ATTR_BITS) for s in (0, 1, 2**64 - 1)],
                    dtype=np.uint64)
    idx = np.arange(n, dtype=np.uint64)
    words = words_at(keys[:, None], idx)
    unif = uniforms_at(keys[:, None], idx)
    assert words.shape == unif.shape == (3, n)
    for r, key in enumerate(keys):
        want = _scalar_words(int(key), idx)
        assert np.array_equal(words[r], want)
        assert np.array_equal(unif[r], _scalar_uniforms(want))


@pytest.mark.parametrize("prob", [0.6, 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53, 1e-300, 1.0, 3e300])
def test_bits_at_is_the_uniform_below_prob_bit_for_bit(prob):
    # The integer test k < ceil(prob 2**53) must give exactly the bools of
    # the float formula: over 1e6 positions under one key, and over a
    # length that is no multiple of the block under an (R, 1) key column.
    key = stream_key(31, TAG_ATTR_BITS)
    idx = np.arange(10 ** 6, dtype=np.uint64)
    got = bits_at(key, idx, prob)
    assert got.dtype == np.bool_ and got.shape == (10 ** 6,)
    assert np.array_equal(got, uniforms_at(key, idx) < prob)
    keys = np.array([stream_key(s, TAG_ATTR_BITS) for s in (0, 1, 2**64 - 1)],
                    dtype=np.uint64)
    odd = np.arange(3 * _rng._BLOCK + 7, dtype=np.uint64)
    got = bits_at(keys[:, None], odd, prob)
    assert got.shape == (3, len(odd))
    assert np.array_equal(got, uniforms_at(keys[:, None], odd) < prob)


@pytest.mark.parametrize("offset", [0, 1, 2 ** 16 - 1, 2 ** 63, 2 ** 64 - 1])
def test_advanced_key_reads_the_stream_from_an_offset(offset):
    # Position j of advance(key, o) is position o + j of key (mod 2**64, so
    # the last offset wraps), under one key and under a (k, 1) key column.
    m = 70
    at = np.arange(m, dtype=np.uint64)
    shifted = np.uint64(offset) + at
    keys = np.array([stream_key(s, TAG_ATTR_BITS) for s in (0, 1, 2**64 - 1)],
                    dtype=np.uint64)[:, None]
    for key in (stream_key(77, TAG_PAIR_UNIF), keys):
        moved = advance(key, offset)
        want = words_at(key, shifted)
        assert np.array_equal(words_at(moved, at), want)
        assert np.array_equal(uniforms_at(moved, at), uniforms_at(key, shifted))
        assert np.array_equal(bits_at(moved, at, 0.3), bits_at(key, shifted, 0.3))
        for k, row in zip(np.reshape(key, -1), np.reshape(want, (-1, m))):
            assert row.tolist() == [word_at(int(k), offset + j) for j in range(m)]


def test_bits_at_decides_a_prob_on_the_lattice_exactly():
    # prob = k 2**-53 for the k of a stream word: that position's uniform
    # equals prob, so its bit is False; one ulp more makes it True.
    key = stream_key(5, TAG_ATTR_BITS)
    for i in (0, 1, 12345, _rng._BLOCK + 3):
        k = word_at(key, i) >> 11
        prob = k * 2.0 ** -53
        at = np.array([i], dtype=np.uint64)
        assert uniforms_at(key, at)[0] == prob
        assert not bits_at(key, at, prob)[0]
        assert bits_at(key, at, np.nextafter(prob, 1.0))[0]


def test_blocked_kernel_is_safe_across_threads():
    # Each call owns its scratch arrays: concurrent calls on different
    # streams and sizes must return what sequential calls return.
    jobs = [(stream_key(s, TAG_PAIR_UNIF), np.arange(s * 1000, s * 1000 + 2 * _rng._BLOCK + s,
                                                     dtype=np.uint64))
            for s in range(16)]
    want = [(words_at(k, i), uniforms_at(k, i), bits_at(k, i, 0.6)) for k, i in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda k=k, i=i: (words_at(k, i), uniforms_at(k, i),
                                                     bits_at(k, i, 0.6)))
                       for k, i in jobs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(g, w))


def test_golden_constant_is_the_64_bit_golden_ratio():
    assert GOLDEN == 0x9E3779B97F4A7C15


def test_package_draws_from_no_numpy_generator():
    # every random quantity comes from the keyed streams above; a numpy
    # Generator in the package would break random access and the tags
    package = Path(_rng.__file__).parent
    users = [f.name for f in sorted(package.glob("*.py"))
             if re.search(r"\b(np|numpy)\.random\b", f.read_text())]
    assert users == []
