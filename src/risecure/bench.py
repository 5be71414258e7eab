"""Batch-sampling benchmarks for the lookaside buffer and the hash stage.

Counters (decode calls, hits, misses) are exact and asserted elsewhere;
wall-clock numbers depend on the host and are reported next to the
published FPGA measurements for orientation only. The batch kernel samples
one enrolled key repeatedly, which is the workload the buffer exists for; a
distinct-keys variant gives the cold-cache bound.
"""

import time

import numpy as np

from .buffer import LookasideBuffer, sample_with_buffer
from .extractor import enroll, get_code
from .prng import derive_seed, stream
from .puf import ArbiterPuf, calibrate_sigma

SCHEMA_VERSION = 1

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
    code = get_code(code_name)
    sigma = calibrate_sigma(ArbiterPuf(derive_seed("bench-puf", seed)), 0.9976,
                            trials=100, seed=seed)
    puf = ArbiterPuf(derive_seed("bench-puf", seed), sigma=sigma)
    return code, puf


def _outer_challenge(seed):
    return stream("bench-outer", seed).integers(0, 2, 128, dtype=np.uint8)


def run_batch_bench(code_name="rs", batch_sizes=(1, 2, 4, 8, 16), repeats=3,
                    seed=0, capacity=16, distinct_keys=False):
    """Time the batch workload of hashed samples with and without the buffer.

    Returns one row per batch size with wall times (best of `repeats`),
    exact counters, and the buffered/unbuffered speedup. Enrollment happens
    outside the timed region; both legs replay identical access sequences
    and noise seeds.
    """
    if repeats < 1 or min(batch_sizes) < 1:
        raise ValueError(f"repeats and batch sizes must be >= 1, got {repeats} and {batch_sizes}")
    code, puf = _bench_system(code_name, seed)
    outer = _outer_challenge(seed)
    num_keys = max(batch_sizes) if distinct_keys else 1
    key_c0s = stream("bench-keys", seed).integers(0, 1 << 63, num_keys)
    helpers = {}
    for i in range(num_keys):
        c0 = int(key_c0s[i])
        helper, _ = enroll(puf, c0, code, derive_seed("bench-enroll", seed, i))
        helpers[i] = (c0, helper)

    rows = []
    for batch in batch_sizes:
        keys = [i % num_keys for i in range(batch)]
        legs = {}
        for leg in ("unbuffered", "buffered"):
            best = None
            counters = None
            for rep in range(repeats):
                buf = LookasideBuffer(capacity) if leg == "buffered" else None
                t0 = time.perf_counter()
                for j, ki in enumerate(keys):
                    c0, helper = helpers[ki]
                    out = sample_with_buffer(
                        buf, puf, (ki, c0), helper, code, mode="hashed",
                        outer_challenge=outer,
                        noise_seed=derive_seed("bench-read", seed, batch, j))
                    if out is None:
                        raise RuntimeError("decode failed inside the benchmark kernel")
                elapsed = time.perf_counter() - t0
                if best is None or elapsed < best:
                    best = elapsed
                    counters = buf.counters() if buf is not None else {
                        "hits": 0, "misses": batch, "decode_calls": batch, "evictions": 0}
            legs[leg] = {"seconds": best, **counters}
        rows.append({
            "batch": batch,
            "unbuffered": legs["unbuffered"],
            "buffered": legs["buffered"],
            "speedup": legs["unbuffered"]["seconds"] / legs["buffered"]["seconds"],
        })
    return {
        "version": SCHEMA_VERSION,
        "code": code.code_id,
        "workload": "distinct-keys" if distinct_keys else "repeated-key",
        "mode": "hashed",
        "capacity": capacity,
        "rows": rows,
        "fpga_reference": FPGA_REFERENCE[code.family],
    }


def run_throughput_bench(code_name="rs", samples=200, seed=0):
    """Single-sample throughput, corrected vs hashed output, CRPs per ms.

    Software hashing costs almost nothing next to a fresh reconstruct, so
    the measured overhead lands well under the hardware figures; both are
    reported side by side.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    code, puf = _bench_system(code_name, seed)
    c0 = int(stream("bench-keys", seed).integers(0, 1 << 63))
    helper, _ = enroll(puf, c0, code, derive_seed("bench-enroll", seed, 0))
    outer = _outer_challenge(seed)
    times = {}
    for mode in ("corrected", "hashed"):
        sample_with_buffer(None, puf, (0, c0), helper, code, mode=mode,
                           outer_challenge=outer,
                           noise_seed=derive_seed("bench-warmup", seed))
        t0 = time.perf_counter()
        for j in range(samples):
            out = sample_with_buffer(None, puf, (0, c0), helper, code, mode=mode,
                                     outer_challenge=outer,
                                     noise_seed=derive_seed("bench-read", seed, 0, j))
            if out is None:
                raise RuntimeError("decode failed inside the benchmark kernel")
        times[mode] = time.perf_counter() - t0
    crps = {mode: samples / (1000.0 * t) for mode, t in times.items()}
    return {
        "version": SCHEMA_VERSION,
        "code": code.code_id,
        "samples": samples,
        "crps_per_ms": crps,
        "hash_overhead_pct": 100.0 * (crps["hashed"] - crps["corrected"]) / crps["corrected"],
        "fpga_reference": FPGA_REFERENCE[code.family],
    }
