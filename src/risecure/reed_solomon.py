"""Reed-Solomon codec: a parameter set of the systematic-code family.

The default instance is RS(255, 223) correcting t=16 byte errors, over
GF(2^8) with primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 and a
narrow-sense generator (first consecutive root alpha^1). The codec is the
family `galois.SystematicCode` at a symbol width of m bits, so the
generator is the product of (x - alpha^j) for j = 1..2t. Codewords are
symbol arrays in ascending-power order: parity symbols first, then the
message. The core's bit-oriented entry points take m bits per symbol, most
significant bit first, so the codec plugs into the same helper-data layer
as the binary BCH code.
"""

import numpy as np

from .galois import GF2m, SystematicCode, checked_word


class ReedSolomonCode(SystematicCode):
    """Systematic RS code with Berlekamp-Massey + Forney decoding."""

    family = "rs"

    def __init__(self, t: int = 16, m: int = 8, primitive_poly: int = 0x11D):
        super().__init__(GF2m(m, primitive_poly), t, s=m)

    def encode(self, msg_syms) -> np.ndarray:
        """Systematic encode: returns [2t parity symbols, k message symbols]."""
        msg = checked_word(msg_syms, self.k, self.s, "message")
        return self._symbols(self._encode_bits(self._bits(msg)))

    def syndromes(self, rx_syms) -> np.ndarray:
        return self._syndromes(checked_word(rx_syms, self.n, self.s, "received word"))

    def decode(self, rx_syms):
        """Correct up to t symbol errors; return message symbols or None."""
        return self._correct(checked_word(rx_syms, self.n, self.s, "received word"))
