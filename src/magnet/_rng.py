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
bit.  Position ``o + j`` of key ``k`` is position ``j`` of key
``k + o * GOLDEN`` (:func:`advance`).

Uniform doubles take the top 53 bits of a word: ``u = (w >> 11) * 2**-53``,
so ``u`` lies in [0, 1).  Bits ``u < prob`` are decided on the 53-bit
integer ``k = w >> 11`` alone: ``k * 2**-53`` and ``prob * 2**53`` are
exact doubles, so ``u < prob`` exactly when ``k < ceil(prob * 2**53)``, and
no double is formed.

:func:`words_at`, :func:`uniforms_at` and :func:`bits_at` evaluate the
finalizer in place, block by block (``_BLOCK`` words, so a block and its
scratch arrays stay in cache), writing straight into the array they
return.  Words and uniforms hold the state in the returned array itself;
bits, one byte each, hold it in one more block of scratch.  Every value is
the same as in the element-wise formula above; only the order of
evaluation differs.  Each call owns its scratch arrays, so concurrent calls
share no state.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

#: Words per in-place pass of the finalizer.
_BLOCK = 1 << 16

# Stream tags.  Each independent random purpose gets its own tag so that
# streams never overlap even under identical seeds.
TAG_ATTR_BITS = 0xA1  # graph sampler: node attribute bits
TAG_PAIR_UNIF = 0xA2  # graph samplers: candidate gap and thinning uniforms
TAG_DIRECT_S = 0xB1  # direct degree sampler: one attribute-count uniform per draw
TAG_DIRECT_U = 0xB2  # direct degree sampler: inversion uniforms
TAG_DIRECT_BTRS = 0xB4  # direct degree sampler: per-attempt keys of BTRS draws
TAG_REPLICATE = 0xC1  # per-replicate graph seeds in batch experiments
TAG_PARAM_SETS = 0xC2  # kl_reconcile experiment: random parameter sets
TAG_GRID_DIRECT = 0xC3  # experiments: direct-sampler seed at grid point n (word n)
TAG_GRID_GRAPH = 0xC4  # experiments: full-graph sampler seed at grid point n (word n)


def mix64(x: int) -> int:
    """Scalar splitmix64 finalizer over Python integers (mod 2**64)."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 arrays."""
    z = x.astype(np.uint64, copy=True)
    _finalize(z, np.empty_like(z), z)
    return z


def _finalize(z: np.ndarray, t: np.ndarray, out: np.ndarray, below=None) -> None:
    """Run the finalizer over the states ``z`` in place (``t`` is scratch of
    the same shape) and store the words in ``out``: ``z`` itself, a float64
    array that receives the uniforms, or a bool array that receives
    ``w >> 11 < below``."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(_MUL1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MUL2)
    np.right_shift(z, np.uint64(31), out=t)
    if out.dtype == np.uint64:
        z ^= t
    else:
        t ^= z
        t >>= np.uint64(11)
        if out.dtype == np.bool_:
            np.less(t, below, out=out)
        else:
            # 53-bit integers convert to double exactly; int64 converts faster.
            np.multiply(t.view(np.int64), 2.0 ** -53, out=out)


def _stream_at(key, indices: np.ndarray, dtype, below=None) -> np.ndarray:
    """Words (``dtype`` uint64), uniforms (float64) or bits (bool, with the
    53-bit bound ``below``) of the streams ``key`` at ``indices``, evaluated
    block by block into the returned array."""
    idx = indices.astype(np.uint64, copy=False)
    key = key if isinstance(key, np.ndarray) else np.uint64(key)
    out = np.empty(np.broadcast_shapes(key.shape, idx.shape), dtype)
    scratch = np.empty(min(out.size, _BLOCK), np.uint64)
    state = np.empty_like(scratch) if out.dtype == np.bool_ else None
    with np.nditer([key, idx, out], flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"], ["readonly"], ["writeonly"]],
                   buffersize=_BLOCK) as blocks:
        for k, i, o in blocks:
            z = o.view(np.uint64) if state is None else state[:o.size]
            np.add(i, np.uint64(1), out=z)
            z *= np.uint64(GOLDEN)
            z += k
            _finalize(z, scratch[:z.size], o, below)
    return out


def stream_key(seed, tag: int):
    """Derive the 64-bit key of stream ``tag`` under ``seed``.

    Two finalizer passes decorrelate related (seed, tag) pairs.  ``seed``
    is an int (the key is an int) or a uint64 array (one key per seed).
    """
    mix = mix64_array if isinstance(seed, np.ndarray) else mix64
    h = mix(seed ^ ((tag * GOLDEN) & _MASK))
    return mix((h + GOLDEN) & _MASK)


def advance(key, offset):
    """The uint64 key(s) whose stream position ``j`` is position ``offset + j``
    of the stream ``key``: ``key + offset * GOLDEN`` mod 2**64 (ints or uint64
    arrays that broadcast)."""
    return np.asarray(offset, np.uint64) * np.uint64(GOLDEN) + np.asarray(key, np.uint64)


def words_at(key, indices: np.ndarray) -> np.ndarray:
    """Stream words at absolute positions ``indices`` (uint64 array).

    ``key`` is one key or a uint64 key array that broadcasts against
    ``indices``.
    """
    return _stream_at(key, indices, np.uint64)


def word_at(key: int, index: int) -> int:
    """Scalar counterpart of :func:`words_at`."""
    return mix64((key + ((index + 1) * GOLDEN)) & _MASK)


def uniforms_at(key, indices: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles at absolute stream positions (keys as in
    :func:`words_at`)."""
    return _stream_at(key, indices, np.float64)


def bits_at(key, indices: np.ndarray, prob: float) -> np.ndarray:
    """The bools ``uniforms_at(key, indices) < prob`` for ``prob`` >= 0,
    decided on the 53-bit integers without forming the uniforms (keys as in
    :func:`words_at`); a ``prob`` of 1 or more gives all True."""
    return _stream_at(key, indices, np.bool_, np.uint64(math.ceil(min(prob, 1.0) * 2.0 ** 53)))
