"""Reed-Solomon codec: a parameter set of the systematic-code family.

The default instance is RS(255, 223) correcting t=16 byte errors, over
GF(2^8) with primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 and a
narrow-sense generator (first consecutive root alpha^1). The codec is the
family `galois.SystematicCode` at a symbol width of m bits, so the
generator is the product of (x - alpha^j) for j = 1..2t. Words are bit
vectors, as for `BchCode`: n symbols in ascending-power order, parity
symbols first, then the message, each symbol m bits, most significant bit
first. So the codec plugs into the same helper-data layer as the binary
BCH code, and no caller converts between bits and symbols.
"""

from .galois import GF2m, SystematicCode, checked_word


class ReedSolomonCode(SystematicCode):
    """Systematic RS code with Berlekamp-Massey + Forney decoding."""

    family = "rs"

    def __init__(self, t: int = 16, m: int = 8, primitive_poly: int = 0x11D):
        super().__init__(GF2m(m, primitive_poly), t, s=m)

    def encode(self, msg_bits):
        """Systematic encode: returns [2t parity symbols, k message symbols] as bits."""
        return self._encode(checked_word(msg_bits, self.k_bits, 1, "message"))

    def syndromes(self, rx_bits):
        return self._syndromes(checked_word(rx_bits, self.n_bits, 1, "received word"))

    def decode(self, rx_bits):
        """Correct up to t symbol errors; return message bits or None."""
        return self._correct(checked_word(rx_bits, self.n_bits, 1, "received word"))

    encode_bits = encode
    decode_bits = decode
