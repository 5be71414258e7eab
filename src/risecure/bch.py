"""Binary BCH codec on the shared systematic-code core.

The default instance is the (127, 36) code correcting t=15 bit errors,
constructed over GF(2^7) with primitive polynomial x^7 + x^3 + 1. The codec
supplies only its generator, the product of the minimal polynomials of
alpha^1..alpha^2t, and a symbol width of 1 bit; encoding, syndromes and
decoding come from `galois.SystematicCode`, whose Forney step rejects any
magnitude other than 1. Bit vectors are numpy uint8 arrays in
ascending-power order: ``word[i]`` is the coefficient of x^i, so a
systematic codeword carries its n-k parity bits first and the message bits
on top.
"""

import numpy as np

from .galois import GF2m, SystematicCode


def _cyclotomic_cosets(n: int, upto: int):
    """Distinct 2-cyclotomic cosets mod n touching exponents 1..upto."""
    seen = set()
    cosets = []
    for j in range(1, upto + 1):
        if j in seen:
            continue
        coset = []
        e = j
        while e not in coset:
            coset.append(e)
            e = (2 * e) % n
        seen.update(coset)
        cosets.append(coset)
    return cosets


class BchCode(SystematicCode):
    """Systematic binary BCH code with bounded-distance decoding.

    decode() returns the message bits, or None when the received word is
    flagged uncorrectable. Miscorrection (silently landing on a wrong
    nearby codeword) is possible beyond t errors, as for any bounded
    distance decoder.
    """

    def __init__(self, m: int = 7, t: int = 15, primitive_poly: int = 0x89):
        field = GF2m(m, primitive_poly)
        gen = np.array([1], dtype=np.int64)
        for coset in _cyclotomic_cosets(field.order - 1, 2 * t):
            minpoly = np.array([1], dtype=np.int64)
            for e in coset:
                minpoly = field.poly_mul(minpoly, [field.pow_alpha(e), 1])
            if not np.all((minpoly == 0) | (minpoly == 1)):
                raise AssertionError("minimal polynomial not binary")
            gen = field.poly_mul(gen, minpoly)
        if not np.all((gen == 0) | (gen == 1)):
            raise AssertionError("generator polynomial not binary")
        super().__init__(field, t, gen, s=1)
        self.generator = gen.astype(np.uint8)

    @property
    def code_id(self) -> str:
        return f"bch-{self.n}-{self.k}-{self.t}"

    def encode(self, msg_bits) -> np.ndarray:
        return self._encode_bits(self._word(msg_bits, self.k, np.uint8, "message", "bits"))

    # bit-oriented aliases shared with the Reed-Solomon codec
    encode_bits = encode

    def syndromes(self, rx_bits) -> np.ndarray:
        return self._syndromes(np.asarray(rx_bits, dtype=np.uint8))

    def decode(self, rx_bits):
        """Correct up to t bit errors; return message bits or None."""
        return self._correct(self._word(rx_bits, self.n, np.uint8, "received word", "bits"))

    decode_bits = decode
