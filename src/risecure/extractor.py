"""Code-offset fuzzy extractor: enrollment and reconstruction.

Enrollment draws a fresh random message r, encodes it, and publishes
aux = Encode(r) XOR R1 where R1 is a noisy PUF read. Reconstruction takes a
new read R1', decodes aux XOR R1' back to r, and returns
R2 = Encode(r) XOR aux, which equals the enrollment-time R1 whenever the
two reads differ in at most t correctable positions. aux is public: it
reveals nothing useful without the PUF because r is uniform. The code is
fixed at enrollment: helper data carries the code object it was enrolled on.
"""

from dataclasses import dataclass

import numpy as np

from .bch import BchCode
from .galois import SystematicCode
from .prng import checked_int, random_bits, stream
from .puf import eval_raw, reference_response
from .reed_solomon import ReedSolomonCode

SCHEMA_VERSION = 1

_FAMILIES = {cls.family: cls for cls in (BchCode, ReedSolomonCode)}
_CODES = {}  # family -> its default code


def get_code(name):
    """Look up a codec by family ('bch', 'rs') or its default's full code id."""
    key = str(name).lower()
    family = key.split("-")[0]
    if family in _FAMILIES:
        if family not in _CODES:
            _CODES[family] = _FAMILIES[family]()
        if key in (family, _CODES[family].code_id):
            return _CODES[family]
    raise ValueError(f"unknown code {name!r}; expected 'bch' or 'rs'")


@dataclass
class HelperData:
    """Public helper string binding an enrollment to a PUF read and its code."""

    aux: np.ndarray  # n_bits of uint8
    code: SystematicCode  # the code aux was enrolled on

    def to_json(self):
        return {
            "version": SCHEMA_VERSION,
            "code_id": self.code.code_id,
            "n": int(len(self.aux)),
            "aux": np.packbits(self.aux).tobytes().hex(),
        }

    @classmethod
    def from_json(cls, doc):
        """Parse to_json's form, resolving the code id once; malformed input raises ValueError."""
        try:
            if checked_int(doc.get("version"), "helper-data version") != SCHEMA_VERSION:
                raise ValueError(f"unsupported helper-data version {doc['version']!r}")
            n = checked_int(doc["n"], "helper-data n", 0)
            raw = bytes.fromhex(doc["aux"])
            code = get_code(doc["code_id"])
        except (AttributeError, KeyError, OverflowError, TypeError) as exc:
            raise ValueError(f"malformed helper data: {exc}") from exc
        if len(raw) != -(-n // 8):
            raise ValueError(f"aux hex length {len(raw)} bytes inconsistent with n={n}")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        if bits[n:].any():
            raise ValueError("nonzero padding bits in final aux byte")
        if code.n_bits != n:
            raise ValueError(f"n={n} does not match code {doc['code_id']} (n={code.n_bits})")
        return cls(aux=bits[:n].copy(), code=code)


def enroll(puf, c0, code, rng_seed):
    """Enroll (puf, c0); returns (HelperData, enrolled R2).

    Enrollment happens once, at provisioning time, under nominal conditions
    (in hardware: temporal majority voting over repeated reads), so R1 is
    the device's reference response. Later reconstructions see single noisy
    reads and recover this R1 exactly while decode succeeds. Anchoring to
    the reference keeps the per-reconstruction error count at Binomial(n, p)
    instead of the doubled 2p(1-p) rate a noisy anchor would give.
    """
    r = random_bits(stream("enroll-secret", checked_int(rng_seed, "rng_seed")), code.k_bits)
    r1 = reference_response(puf, c0, code.n_bits)
    aux = code.encode_bits(r) ^ r1  # two uint8 arrays XOR to a fresh uint8 array
    return HelperData(aux=aux, code=code), r1.copy()


def reconstruct(puf, c0, helper, noise_seed):
    """Recover the enrolled R2 from a fresh read with helper.code; None if decode fails."""
    code = helper.code
    r1_new = eval_raw(puf, c0, noise_seed, code.n_bits)
    msg = code.decode_bits(helper.aux ^ r1_new)
    if msg is None:
        return None
    return code.encode_bits(msg) ^ helper.aux
