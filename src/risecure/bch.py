"""Binary BCH codec: a parameter set of the systematic-code family.

The default instance is the (127, 36) code correcting t=15 bit errors,
constructed over GF(2^7) with primitive polynomial x^7 + x^3 + 1. The codec is
the family `galois.SystematicCode` at a symbol width of 1 bit: the core derives
the generator from the roots alpha^1..alpha^2t and their 2-cyclotomic
conjugates; every error magnitude of a binary code is 1, so its decoder flips
the located bits with no Forney step. Words are bit vectors, numpy uint8 arrays
in ascending-power order: ``word[i]`` is the coefficient of x^i, so a
systematic codeword carries its n-k parity bits first and the message bits on
top. `ReedSolomonCode` takes and returns the same bit vectors.
"""

from .galois import GF2m, SystematicCode, checked_word


class BchCode(SystematicCode):
    """Systematic binary BCH code with bounded-distance decoding.

    decode() returns the message bits, or None when the received word is
    flagged uncorrectable. Miscorrection (silently landing on a wrong
    nearby codeword) is possible beyond t errors, as for any bounded
    distance decoder.
    """

    family = "bch"

    def __init__(self, m: int = 7, t: int = 15, primitive_poly: int = 0x89):
        super().__init__(GF2m(m, primitive_poly), t, s=1)

    def encode(self, msg_bits):
        """Systematic encode: returns [n-k parity bits, k message bits]."""
        return self._encode(checked_word(msg_bits, self.k_bits, 1, "message"))

    def syndromes(self, rx_bits):
        return self._syndromes(checked_word(rx_bits, self.n_bits, 1, "received word"))

    def decode(self, rx_bits):
        """Correct up to t bit errors; return message bits or None."""
        return self._correct(checked_word(rx_bits, self.n_bits, 1, "received word"))

    encode_bits = encode
    decode_bits = decode
