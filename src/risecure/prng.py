"""Deterministic, domain-separated random streams.

Every random draw in this package flows through :func:`stream`: a Philox
counter-based generator keyed by hashing a purpose tag together with the
caller's integer seeds. Identical (tag, seeds) always yield the identical
stream, independent of call order or platform, which is what makes every
simulation, benchmark and attack run here bit-reproducible.
"""

import hashlib
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


def checked_int(value, name, lo=None, hi=None) -> int:
    """value as an int when is_integer(value) and lo <= value <= hi (a None bound is open);
    otherwise ValueError naming `name`."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bounds}, got {value!r}")
    return int(value)


def _domain_hash(tag: str, seeds) -> bytes:
    """SHA-256 over the tag and each seed's low 64 bits; a seed that is not an integer
    raises ValueError, so every seed of stream and derive_seed is checked here."""
    h = hashlib.sha256()
    h.update(tag.encode("utf-8"))
    h.update(b"\x00")
    for s in seeds:
        h.update(struct.pack("<Q", checked_int(s, "seed") & MASK64))
    return h.digest()


def derive_seed(tag: str, *seeds: int) -> int:
    """Derive a fresh 64-bit seed from a purpose tag and parent seeds."""
    return int.from_bytes(_domain_hash(tag, seeds)[:8], "little")


def stream(tag: str, *seeds: int) -> np.random.Generator:
    """Return a Philox generator for the domain named by (tag, seeds)."""
    key = int.from_bytes(_domain_hash(tag, seeds)[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def splitmix64(x):
    """splitmix64 finalizer, elementwise over numpy uint64 input.

    ``splitmix64(seed + i*GOLDEN_GAMMA)`` reproduces output i of the
    reference splitmix64 sequence for ``seed``.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _U(GOLDEN_GAMMA)
        z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
        return z ^ (z >> _U(31))
