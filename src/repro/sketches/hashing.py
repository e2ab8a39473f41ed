"""Deterministic 64-bit mixing for the sketch and large-scale layers.

Everything downstream of these functions — sketch registers, estimator
outputs, the streamed random-DAG generators — must be byte-reproducible
per seed on every platform and with or without NumPy, so the only
randomness primitive allowed here is a fixed-width integer mix with no
platform- or library-dependent state.  We use the splitmix64 finalizer
(Steele, Lea & Flood's SplittableRandom mix; also xorshift's recommended
seeder): two xor-shift-multiply rounds, full 64-bit avalanche, four
arithmetic ops — cheap enough for the pure-python streaming generators
and trivially vectorizable for the NumPy lane paths.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
#: The splitmix64 sequence increment (the golden ratio in 0.64 fixed point).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer of ``x`` (a pure 64-bit mix).

    A bijection on 64-bit words with full avalanche, so distinct inputs
    never collide and every output bit is uniform.  Callers derive keyed
    streams as ``splitmix64(seed * GOLDEN_GAMMA + index)`` style
    combinations.
    """
    x = (x + GOLDEN_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def hash_stream(seed: int, key: int) -> int:
    """A keyed 64-bit hash: the head of stream ``key`` under ``seed``.

    ``splitmix64`` applied to a seed/key combination that keeps distinct
    seeds' streams disjoint in practice (the multiply decorrelates seeds
    that differ in low bits).
    """
    return splitmix64(((seed & _MASK64) * _MIX1 + key) & _MASK64)


def hash_stream_array(seed: int, keys, np):
    """:func:`hash_stream` over a ``uint64`` array of keys, vectorized.

    Bit-identical to ``hash_stream(seed, k)`` for every key ``k`` in
    ``[0, 2^64)``: the seed term is reduced in Python ints, and the
    array arithmetic wraps modulo ``2^64`` exactly as the masked scalar
    mix does.  ``np`` is the :mod:`numpy` module.
    """
    x = np.asarray(keys, dtype=np.uint64) + np.uint64(
        ((seed & _MASK64) * _MIX1 + GOLDEN_GAMMA) & _MASK64
    )
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def source_hashes(seed: int, source_ids, numpy_module=None):
    """Per-source register values for the bottom-k sketches.

    One 64-bit hash per designated source, keyed by the source's interned
    id so the values are independent of source *order*.  The all-ones
    word is reserved as the empty-register sentinel and remapped (the
    estimator treats register values as draws from ``[0, 2^64 - 1)``).

    Returns a list of ints, or a ``uint64`` ndarray when ``numpy_module``
    is passed — both containing bit-identical values, which is what makes
    the two merge paths byte-reproducible against each other.
    """
    sentinel = _MASK64
    if numpy_module is not None:
        x = hash_stream_array(seed, source_ids, numpy_module)
        x[x == numpy_module.uint64(sentinel)] = numpy_module.uint64(0)
        return x
    values = []
    for s in source_ids:
        h = hash_stream(seed, int(s))
        values.append(0 if h == sentinel else h)
    return values
