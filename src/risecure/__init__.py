"""Deterministic simulator of a PUF-backed RISC-V security extension.

The package models the full pipeline of a physically-unclonable-function
key facility: noisy silicon PUF models, a code-offset fuzzy extractor
built on from-scratch BCH and Reed-Solomon codecs, a hash output stage, a
FIFO lookaside buffer that amortizes decoder work, an RV32I interpreter
exposing the facility through two custom instructions, and a modeling
attack bench that demonstrates why the hash stage is there.
"""

from .bch import BchCode
from .buffer import LookasideBuffer, sample_with_buffer, select_output
from .extractor import HelperData, enroll, get_code, reconstruct
from .hashing import compose_response, unpredictability_report
from .isa import MachineState, PufDevice
from .puf import (ArbiterPuf, SramPuf, XorArbiterPuf, calibrate_sigma,
                  eval_raw, expand_challenge, measure_reliability, new_puf,
                  parity_features, reference_response)
from .reed_solomon import ReedSolomonCode

__version__ = "0.1.0"

__all__ = [
    "ArbiterPuf",
    "BchCode",
    "HelperData",
    "LookasideBuffer",
    "MachineState",
    "PufDevice",
    "ReedSolomonCode",
    "SramPuf",
    "XorArbiterPuf",
    "calibrate_sigma",
    "compose_response",
    "enroll",
    "eval_raw",
    "expand_challenge",
    "get_code",
    "measure_reliability",
    "new_puf",
    "parity_features",
    "reconstruct",
    "reference_response",
    "sample_with_buffer",
    "select_output",
    "unpredictability_report",
    "__version__",
]
