"""Hash output stage: R3 = SHA3-256(R2 || C), and bit statistics over digests.

SHA3-256 is the only output hash, as in the paper's hardware.

Widths are rigid on purpose. R2 must be exactly the code length and the
outer challenge C exactly 128 bits (or 16 bytes), so no length-extension or
padding games are possible; any deviation, or a bit other than 0 or 1,
raises instead of truncating, padding or packing two inputs to one digest.
"""

import hashlib

import numpy as np

from .galois import checked_word

OUTER_CHALLENGE_BITS = 128
DIGEST_BITS = 256
PASS_SIGMA = 4.0  # unpredictability_report passes when every z-score is within this


def bits_to_bytes(bits):
    """Pack a bit vector to bytes, most significant bit first per byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def bytes_to_bits(data):
    """Unpack bytes to a bit vector, most significant bit first per byte."""
    return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))


def compose_response(r2_bits, c_bits, n_code):
    """R3 = SHA3-256(R2 || C) as a 256-bit vector; widths and bit values checked exactly.

    C is 128 bits, or exactly 16 `bytes` holding them most significant bit
    first, as the ISA reads them from memory; both give the same digest.
    """
    r2 = bits_to_bytes(checked_word(r2_bits, n_code, 1, "R2"))
    if type(c_bits) is not bytes:
        c_bits = bits_to_bytes(checked_word(c_bits, OUTER_CHALLENGE_BITS, 1, "outer challenge"))
    elif len(c_bits) != OUTER_CHALLENGE_BITS // 8:
        raise ValueError(f"outer challenge must be {OUTER_CHALLENGE_BITS // 8} bytes, "
                         f"got {len(c_bits)}")
    return bytes_to_bits(hashlib.sha3_256(r2 + c_bits).digest())


def unpredictability_report(samples):
    """Bit statistics over a batch of digests, pass/fail at PASS_SIGMA sigma.

    Checks overall ones frequency (monobit), the worst per-position bias,
    and lag-1 serial correlation of the concatenated stream. A cryptographic
    digest over distinct inputs should sit within a few sigma of fair-coin
    behavior on all three.
    """
    x = np.asarray(samples, dtype=np.uint8)
    if x.ndim != 2 or len(x) < 1000:
        raise ValueError("need a 2-d batch of at least 1000 digests")
    n, w = x.shape
    total = n * w

    ones = float(x.mean())
    monobit_z = abs(ones - 0.5) * 2.0 * np.sqrt(total)

    per_bit = x.mean(axis=0)
    bias_z = float(np.max(np.abs(per_bit - 0.5)) * 2.0 * np.sqrt(n))

    flat = x.ravel().astype(np.float64) - ones
    denom = float(np.dot(flat, flat))
    serial = float(np.dot(flat[:-1], flat[1:]) / denom) if denom else 1.0
    serial_z = abs(serial) * np.sqrt(total)

    return {
        "samples": n,
        "bits_per_sample": w,
        "ones_fraction": ones,
        "monobit_z": float(monobit_z),
        "max_bit_bias_z": bias_z,
        "serial_corr_z": float(serial_z),
        "threshold": PASS_SIGMA,
        "pass": bool(monobit_z <= PASS_SIGMA and bias_z <= PASS_SIGMA and serial_z <= PASS_SIGMA),
    }
