"""Deterministic, domain-separated random streams.

Every random draw in this package flows through :func:`stream`: a Philox
counter-based generator keyed by hashing a purpose tag together with the
caller's integer seeds. Identical (tag, seeds) always yield the identical
stream, independent of call order or platform, which is what makes every
simulation, benchmark and attack run here bit-reproducible.

A Philox stream is fixed by its 128-bit key and its counter alone (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011). `stream`
hands the key to Philox inside a seed sequence that carries it (`_PhiloxKey`)
instead of passing ``key=``, which would first build a SeedSequence from OS
entropy and discard it; the generator and its draws are the same.

The package's bits and uniforms come from a stream's raw 64-bit Philox words
(`random_bits`, `random_uniforms`, `random_int63`), each equal bit for bit to
the `Generator` call it stands for. NEP 19 keeps bit-generator streams stable
but lets `Generator` methods change their algorithms between feature
releases; among those methods the package's bits depend only on
`standard_normal` (arbiter weights and noise) and on the bounded
`integers(0, num_blocks)` of `SramPuf.draw_challenge`, and `risecure selftest`
checks both by name.
"""

import hashlib
import math
import numbers
import struct

import numpy as np

MASK64 = (1 << 64) - 1

#: splitmix64 increment, also used by the public challenge mixer.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_U = np.uint64


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for bool, float, str and the rest.

    The one rule for every integer parameter at a library boundary (seeds,
    sizes, counts, challenges): a value it rejects raises ValueError naming
    the parameter, never a silent truncation or a bare TypeError.
    """
    # type(...) is int answers the common case before the slower ABC check
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for Python and numpy reals, integers included; False for bool, str and the rest.

    The one rule for every real parameter at a library boundary (noise sigma,
    flip probability, target reliability, learning rate); each caller adds its
    range. A bool is rejected because True would read as 1.0.
    """
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def checked_int(value, name, lo=None, hi=None) -> int:
    """value as an int when is_integer(value) and lo <= value <= hi (a None bound is open);
    otherwise ValueError naming `name`."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bounds}, got {value!r}")
    return int(value)


_SEED = struct.Struct("<Q").pack


def _domain_hash(tag: str, seeds) -> bytes:
    """SHA-256 over the tag and each seed's low 64 bits; a seed that is not an integer
    raises ValueError, so every seed of stream and derive_seed is checked here.

    The bytes are hashed in one call; a precompiled pack per seed measured
    faster than one pack with a format built for the seed count.
    """
    parts = [tag.encode("utf-8"), b"\x00"]
    parts += [_SEED((s if type(s) is int else checked_int(s, "seed")) & MASK64) for s in seeds]
    return hashlib.sha256(b"".join(parts)).digest()


def derive_seed(tag: str, *seeds: int) -> int:
    """Derive a fresh 64-bit seed from a purpose tag and parent seeds."""
    return int.from_bytes(_domain_hash(tag, seeds)[:8], "little")


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that yields the Philox key of a digest: its first 16 bytes as two
    little-endian uint64 words.

    Philox asks its seed sequence for exactly ``generate_state(2, uint64)`` and
    uses the words as its key, as ``Philox(key=int.from_bytes(digest[:16],
    "little"))`` does. Any other request raises, so a numpy that seeds Philox
    another way fails loudly instead of silently changing every stream.
    """

    def __init__(self, digest):
        self.words = np.frombuffer(digest, "<u8", 2)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(f"Philox asked for {n_words} x {np.dtype(dtype)}, not 2 x uint64")
        return self.words


def stream(tag: str, *seeds: int) -> np.random.Generator:
    """Return a Philox generator for the domain named by (tag, seeds).

    Its key is the first 16 bytes of the domain hash as a little-endian 128-bit
    integer; see _PhiloxKey.
    """
    return np.random.Generator(np.random.Philox(_PhiloxKey(_domain_hash(tag, seeds))))


def random_bits(g, shape):
    """0/1 uint8 bits of `shape` from g's raw words: bit i is the top bit of little-endian
    byte i, as ``g.integers(0, 2, shape, dtype=np.uint8)`` gives.

    numpy draws those bytes four at a time from 32-bit halves of the words, low
    half first, and a call that ends inside a word's low half keeps its high
    half for the next 32-bit draw; this draw takes whole words and drops it.
    The 64-bit draws never read that half, so the two agree on a stream that
    no `Generator` method has read.
    """
    n = math.prod(shape) if isinstance(shape, tuple) else shape
    words = g.bit_generator.random_raw(-(-n // 8)).astype("<u8", copy=False)
    return (words.view(np.uint8)[:n] >> 7).reshape(shape)


def random_uniforms(g, n):
    """n doubles (w >> 11) * 2^-53 of g's raw words w, as ``g.random(n)`` gives."""
    return (g.bit_generator.random_raw(n) >> _U(11)) * 2.0 ** -53


def random_int63(g, size=None):
    """Integers w >> 1 in [0, 2^63) of g's raw words w, as ``g.integers(0, 2**63, size)``
    gives: an int64 scalar when size is None, else an int64 array."""
    return np.int64(g.bit_generator.random_raw(size) >> 1)


def splitmix64(x):
    """splitmix64 finalizer, elementwise over numpy uint64 input.

    ``splitmix64(seed + i*GOLDEN_GAMMA)`` reproduces output i of the
    reference splitmix64 sequence for ``seed``. x may be a scalar or an array
    and is never written; the result is a new uint64 array, 0-d for a scalar,
    worked in place (0-d arrays, unlike numpy scalars, wrap without a warning).
    """
    z = np.array(x, dtype=np.uint64)  # a copy, so x is never written; a scalar gives 0-d
    z += _U(GOLDEN_GAMMA)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> _U(shift)
        z *= _U(multiplier)
    z ^= z >> _U(31)
    return z
