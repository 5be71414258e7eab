"""Independent GF(2^m) reference used to cross-check the field tables.

Products come from a carry-less multiply reduced by the primitive
polynomial, never from the exp/log tables of `risecure.galois.GF2m`, so a
wrong table cannot also be wrong here. Each field is built once: its full
product table costs 2^2m carry-less multiplies (about 65,000 for GF(256)).

The codecs take and return bit vectors. The symbol conversions here use
shifts of their own, never the package's `_bits`, so a test can state a
case in symbols and convert at the codec's edges.
"""

import functools

import numpy as np


def clmul_mod(a, b, poly, m):
    """Carry-less multiply then reduce; independent of the exp/log tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
    for bit in range(2 * m - 2, m - 1, -1):
        if acc & (1 << bit):
            acc ^= poly << (bit - m)
    return acc


class RefField:
    """Scalar GF(2^m) arithmetic on plain ints, built on clmul_mod."""

    def __init__(self, m, primitive_poly):
        q = 1 << m
        self.order = q
        self._mul = [[clmul_mod(a, b, primitive_poly, m) for b in range(q)] for a in range(q)]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]
        self._pow = [1]  # alpha^e for e < q-1; alpha is the class of x, the integer 2
        for _ in range(q - 2):
            self._pow.append(self._mul[self._pow[-1]][2])

    def mul(self, a, b):
        return self._mul[a][b]

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        return self._mul[a][self._inv[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv[a]

    def pow_alpha(self, e):
        """alpha**e for any integer exponent."""
        return self._pow[e % (self.order - 1)]

    def poly_eval(self, p, x):
        """Evaluate p (ascending coefficients) at the scalar point x by Horner's rule."""
        acc = 0
        for c in reversed(np.asarray(p, dtype=np.int64)):
            acc = self._mul[acc][x] ^ int(c)
        return acc


@functools.lru_cache(maxsize=None)
def _field(m, primitive_poly):
    return RefField(m, primitive_poly)


def ref_field(field):
    """The reference field with the same m and primitive polynomial as `field`."""
    return _field(field.m, field.primitive_poly)


def symbols_to_bits(syms, s):
    """Each symbol along the last axis as s bits, most significant first, by shifts."""
    syms = np.asarray(syms, dtype=np.int64)
    bits = (syms[..., None] >> np.arange(s - 1, -1, -1)) & 1
    return bits.reshape(*syms.shape[:-1], -1).astype(np.uint8)


def bits_to_symbols(bits, s):
    """Every s bits along the last axis, most significant first, as one int64 symbol."""
    bits = np.asarray(bits, dtype=np.int64)
    return (bits.reshape(*bits.shape[:-1], -1, s) << np.arange(s - 1, -1, -1)).sum(axis=-1)


def encode_symbols(code, msg):
    """code.encode on a message of symbols, as a codeword of symbols."""
    return bits_to_symbols(code.encode(symbols_to_bits(msg, code.s)), code.s)


def decode_symbols(code, rx):
    """code.decode on a received word of symbols: the message symbols, or None."""
    got = code.decode(symbols_to_bits(rx, code.s))
    return None if got is None else bits_to_symbols(got, code.s)
