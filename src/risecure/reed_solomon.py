"""Reed-Solomon codec on the shared systematic-code core.

The default instance is RS(255, 223) correcting t=16 byte errors, over
GF(2^8) with primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 and a
narrow-sense generator (first consecutive root alpha^1). The codec supplies
only that generator and a symbol width of m bits; encoding, syndromes and
Berlekamp-Massey + Forney decoding come from `galois.SystematicCode`.
Codewords are symbol arrays in ascending-power order: parity symbols
first, then the message. The bit-oriented entry points take m bits per
symbol, most significant bit first, so the codec plugs into the same
helper-data layer as the binary BCH code.
"""

import numpy as np

from .galois import GF2m, SystematicCode


class ReedSolomonCode(SystematicCode):
    """Systematic RS code with Berlekamp-Massey + Forney decoding."""

    def __init__(self, t: int = 16, m: int = 8, primitive_poly: int = 0x11D):
        field = GF2m(m, primitive_poly)
        gen = np.array([1], dtype=np.int64)
        for j in range(1, 2 * t + 1):
            gen = field.poly_mul(gen, [field.pow_alpha(j), 1])
        super().__init__(field, t, gen, s=m)
        self.generator = gen

    @property
    def code_id(self) -> str:
        return f"rs-{self.n}-{self.k}-{self.t}"

    def encode(self, msg_syms) -> np.ndarray:
        """Systematic encode: returns [2t parity symbols, k message symbols]."""
        msg = self._word(msg_syms, self.k, np.int64, "message", "symbols")
        return self._symbols(self._encode_bits(self._bits(msg)))

    def syndromes(self, rx_syms) -> np.ndarray:
        return self._syndromes(np.asarray(rx_syms, dtype=np.int64))

    def decode(self, rx_syms):
        """Correct up to t symbol errors; return message symbols or None."""
        return self._correct(self._word(rx_syms, self.n, np.int64, "received word", "symbols"))

    def encode_bits(self, msg_bits) -> np.ndarray:
        """Encode a k*m bit vector; bits map to symbols MSB first."""
        return self._encode_bits(self._word(msg_bits, self.k_bits, np.uint8, "message", "bits"))

    def decode_bits(self, rx_bits):
        bits = self._word(rx_bits, self.n_bits, np.uint8, "received word", "bits")
        msg = self.decode(self._symbols(bits))
        if msg is None:
            return None
        return self._bits(msg)
