"""Counter-based deterministic random streams.

Every random quantity in this package is a pure function of
``(seed, stream tag, index)``.  The three values are mixed through the
splitmix64 finalizer, a 64-bit avalanche mixer:

    z  = x
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

A stream is identified by a 64-bit key derived from ``(seed, tag)``; the
word at position ``i`` of the stream is ``mix(key + (i + 1) * GOLDEN)``,
i.e. splitmix64 run in counter mode.  Because a word depends only on the
key and the absolute index, any chunking or thread schedule that assigns
disjoint index ranges to workers reproduces the sequential output bit for
bit.

Uniform doubles take the top 53 bits of a word: ``u = (w >> 11) * 2**-53``,
so ``u`` lies in [0, 1).
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# Stream tags.  Each independent random purpose gets its own tag so that
# streams never overlap even under identical seeds.
TAG_ATTR_BITS = 0xA1  # graph sampler: node attribute bits
TAG_PAIR_UNIF = 0xA2  # graph sampler: per-pair edge uniforms
TAG_DIRECT_S = 0xB1  # direct degree sampler: attribute-count bits
TAG_DIRECT_U = 0xB2  # direct degree sampler: inversion uniforms
TAG_DIRECT_BTRS = 0xB4  # direct degree sampler: per-attempt keys of BTRS draws
TAG_REPLICATE = 0xC1  # per-replicate graph seeds in batch experiments
TAG_SELFTEST = 0xD1  # distribution self-test draws


def mix64(x: int) -> int:
    """Scalar splitmix64 finalizer over Python integers (mod 2**64)."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 arrays."""
    z = x.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def stream_key(seed, tag: int):
    """Derive the 64-bit key of stream ``tag`` under ``seed``.

    Two finalizer passes decorrelate related (seed, tag) pairs.  ``seed``
    is an int (the key is an int) or a uint64 array (one key per seed).
    """
    mix = mix64_array if isinstance(seed, np.ndarray) else mix64
    h = mix(seed ^ ((tag * GOLDEN) & _MASK))
    return mix((h + GOLDEN) & _MASK)


def words_at(key, indices: np.ndarray) -> np.ndarray:
    """Stream words at absolute positions ``indices`` (uint64 array).

    ``key`` is one key or a uint64 key array that broadcasts against
    ``indices``.
    """
    idx = indices.astype(np.uint64, copy=False)
    state = np.uint64(key) + (idx + np.uint64(1)) * np.uint64(GOLDEN)
    return mix64_array(state)


def word_at(key: int, index: int) -> int:
    """Scalar counterpart of :func:`words_at`."""
    return mix64((key + ((index + 1) * GOLDEN)) & _MASK)


def uniforms_at(key, indices: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles at absolute stream positions (keys as in
    :func:`words_at`)."""
    w = words_at(key, indices)
    return (w >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
