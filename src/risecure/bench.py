"""Batch-sampling benchmarks for the lookaside buffer and the hash stage.

Counters (decode calls, hits, misses) are exact and asserted elsewhere;
wall-clock numbers depend on the host and are reported next to the
published FPGA measurements for orientation only. The batch kernel samples
one enrolled key repeatedly, which is the workload the buffer exists for; a
distinct-keys variant gives the cold-cache bound. Both benchmarks time
their legs in one loop, `_time_legs`, whose legs take turns going first.
"""

import time

import numpy as np

from .buffer import LookasideBuffer, sample_with_buffer
from .extractor import enroll, get_code
from .hashing import OUTER_CHALLENGE_BITS
from .prng import checked_int, derive_seed, stream
from .puf import ArbiterPuf, calibrate_sigma

SCHEMA_VERSION = 1
BUFFER_CAPACITY = 16  # the paper's 16-entry lookaside buffer
PASSES = 3  # timed passes per leg: the throughput bench's, and the batch bench's default

# Published hardware measurements (FPGA): single-sample CRPs per millisecond
# without/with the hash stage, and microseconds for a 16-round batch without/
# with the lookaside buffer.
FPGA_REFERENCE = {
    "rs": {
        "crps_per_ms": {"corrected": 66.55, "hashed": 59.46},
        "hash_overhead_pct": -10.66,
        "batch16_us": {"unbuffered": 253.13, "buffered": 92.94},
        "batch16_speedup": 2.72,
    },
    "bch": {
        "crps_per_ms": {"corrected": 173.4, "hashed": 171.3},
        "hash_overhead_pct": -1.16,
        "batch16_us": {"unbuffered": 21.64, "buffered": 13.24},
        "batch16_speedup": 1.63,
    },
}


def _bench_system(code_name, seed):
    """Arbiter PUF at the calibrated reliability, enrolled on the given code."""
    puf = ArbiterPuf(derive_seed("bench-puf", seed))
    sigma = calibrate_sigma(puf, 0.9976, trials=100, seed=seed)
    return get_code(code_name), puf.with_sigma(sigma)


def _outer_challenge(seed):
    return stream("bench-outer", seed).integers(0, 2, OUTER_CHALLENGE_BITS, dtype=np.uint8)


def _time_legs(puf, code, jobs, outer, legs, passes):
    """{leg: {"seconds": best of `passes`, **counters}} for `legs` = {leg: (buffered, mode)}.

    Each pass times every leg once over `jobs`, a list of (key, helper, noise
    seed), with a fresh buffer; odd passes run the legs in reverse order.
    """
    names = list(legs)
    best = {}
    for p in range(passes):
        for name in names[::-1] if p % 2 else names:
            buffered, mode = legs[name]
            buf = LookasideBuffer(BUFFER_CAPACITY) if buffered else None
            t0 = time.perf_counter()
            for key, helper, noise_seed in jobs:
                if sample_with_buffer(buf, puf, key, helper, code, mode=mode,
                                      outer_challenge=outer, noise_seed=noise_seed) is None:
                    raise RuntimeError("decode failed inside the benchmark kernel")
            elapsed = time.perf_counter() - t0
            if name not in best or elapsed < best[name]["seconds"]:
                counters = buf.counters() if buffered else {
                    "hits": 0, "misses": len(jobs), "decode_calls": len(jobs), "evictions": 0}
                best[name] = {"seconds": elapsed, **counters}
    return best


def run_batch_bench(code_name="rs", batch_sizes=(1, 2, 4, 8, 16), repeats=PASSES,
                    seed=0, distinct_keys=False):
    """Time the batch workload of hashed samples with and without the buffer.

    Returns one row per batch size with wall times (best of `repeats`
    passes), exact counters, and the buffered/unbuffered speedup. Both legs
    replay identical access sequences and noise seeds.
    """
    repeats = checked_int(repeats, "repeats", 1)
    batch_sizes = [checked_int(b, "batch_sizes", 1) for b in batch_sizes]
    code, puf = _bench_system(code_name, seed)
    outer = _outer_challenge(seed)
    num_keys = max(batch_sizes) if distinct_keys else 1
    key_c0s = stream("bench-keys", seed).integers(0, 1 << 63, num_keys)
    enrolled = [((i, int(c0)), enroll(puf, int(c0), code, derive_seed("bench-enroll", seed, i))[0])
                for i, c0 in enumerate(key_c0s)]
    rows = []
    for batch in batch_sizes:
        jobs = [(*enrolled[j % num_keys], derive_seed("bench-read", seed, batch, j))
                for j in range(batch)]
        legs = _time_legs(puf, code, jobs, outer, {"unbuffered": (False, "hashed"),
                                                   "buffered": (True, "hashed")}, repeats)
        rows.append({"batch": batch, **legs,
                     "speedup": legs["unbuffered"]["seconds"] / legs["buffered"]["seconds"]})
    return {
        "version": SCHEMA_VERSION,
        "code": code.code_id,
        "workload": "distinct-keys" if distinct_keys else "repeated-key",
        "mode": "hashed",
        "capacity": BUFFER_CAPACITY,
        "rows": rows,
        "fpga_reference": FPGA_REFERENCE[code.family],
    }


def run_throughput_bench(code_name="rs", samples=200, seed=0):
    """Single-sample throughput, corrected vs hashed output, CRPs per ms.

    Each rate is the best of PASSES passes. Software hashing costs almost
    nothing next to a fresh reconstruct, so the measured overhead lands well
    under the hardware figures; both are reported side by side.
    """
    samples = checked_int(samples, "samples", 1)
    code, puf = _bench_system(code_name, seed)
    c0 = int(stream("bench-keys", seed).integers(0, 1 << 63))
    helper, _ = enroll(puf, c0, code, derive_seed("bench-enroll", seed, 0))
    jobs = [((0, c0), helper, derive_seed("bench-read", seed, 0, j)) for j in range(samples)]
    legs = _time_legs(puf, code, jobs, _outer_challenge(seed),
                      {"corrected": (False, "corrected"), "hashed": (False, "hashed")}, PASSES)
    crps = {mode: samples / (1000.0 * leg["seconds"]) for mode, leg in legs.items()}
    return {
        "version": SCHEMA_VERSION,
        "code": code.code_id,
        "samples": samples,
        "crps_per_ms": crps,
        "hash_overhead_pct": 100.0 * (crps["hashed"] - crps["corrected"]) / crps["corrected"],
        "fpga_reference": FPGA_REFERENCE[code.family],
    }
