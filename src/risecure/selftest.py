"""Known-answer tests behind `risecure selftest`.

Each check builds fixed bytes from fixed inputs through one part of the
pipeline and compares the first 16 hex digits of their SHA-256 (arrays in
little-endian byte order) with the digest recorded in `CHECKS`, as the
pre-operational self-tests of FIPS 140-3 do. The inputs are constants, so
the suite takes no seed.

The checks cover the four numpy `Generator` methods every output bit flows
through and the raw Philox words under them, the public mixers and the hash
stage, one enroll -> noisy reconstruct -> hashed-output route per PUF kind
(SRAM on BCH, arbiter on RS, 4-XOR arbiter on BCH; each read at noise seed 3
carries errors within t, so every route decodes), the buffer's FIFO policy,
the memory an init + challenge program leaves behind, and a second challenge
after its index was evicted, which the device decodes from a noisy read at a
`device-read` seed. A FAIL means the package's bits changed, or numpy's:
NEP 19 lets `Generator` methods change their algorithms between feature
releases.
"""

import hashlib

import numpy as np

from .buffer import LookasideBuffer, select_output
from .extractor import enroll, get_code, reconstruct
from .hashing import bytes_to_bits, compose_response
from .isa import (MachineState, PufDevice, asm_ebreak, asm_inner_puf_init,
                  asm_outer_puf_chal, li32, run)
from .prng import splitmix64, stream
from .puf import ArbiterPuf, SramPuf, XorArbiterPuf, expand_challenge, parity_features

OUTER = bytes(range(16))  # the outer challenge of every hashed check
OUTER_BITS = bytes_to_bits(OUTER)


def _digest(parts):
    """The first 16 hex digits of SHA-256 over bytes and arrays, arrays little-endian."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 part.astype(part.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()[:16]


def _route(puf, c0, family):
    """Enroll at rng seed 2, reconstruct at noise seed 3, which must give R2, and hash R2."""
    code = get_code(family)
    helper, r2 = enroll(puf, c0, code, 2)
    got = reconstruct(puf, c0, helper, 3)
    if got is None or not np.array_equal(got, r2):
        raise ValueError("reconstruct did not return R2")
    return helper.aux, r2, select_output(2, puf, c0, code, helper=helper,
                                         outer_challenge=OUTER_BITS, noise_seed=3)


def _fifo_trace():
    """Hit and eviction count of each lookup in a capacity-4 FIFO, then its keys in order."""
    buf, trace = LookasideBuffer(capacity=4), []
    for key in (0, 1, 2, 3, 4, 0, 2, 5, 2, 1, 6):
        trace += [buf.lookup(key) is not None, buf.evictions]
        buf.insert(key, key)  # a hit replaces its entry in place
    return [bytes(trace + list(buf.entries))]


def _isa_machine(capacity, indices):
    """A 1 KiB machine on an SRAM device: PUFs 0 .. indices-1, each with an init block
    at 0x200 + 0x10 * index (c0 = 3), and a challenge block for index 0 at 0x220."""
    device = PufDevice(get_code("bch"), seed=4, capacity=capacity)
    state = MachineState(memory_size=0x400, device=device)
    for idx in range(indices):
        device.register(idx, SramPuf(5 + idx, num_blocks=4, block_bits=127, p=0.02))
        state.mem_write(0x200 + 0x10 * idx, idx.to_bytes(4, "little") + (3).to_bytes(8, "little"))
    state.mem_write(0x220, bytes(4) + OUTER)
    return state


def _isa_program():
    """The status and memory after inner_puf_init and outer_puf_chal on an SRAM device."""
    state = _isa_machine(16, 1)
    state.load_words(0, li32(5, 0x200) + [asm_inner_puf_init(10, 5)] + li32(6, 0x220)
                     + li32(7, 0x300) + [asm_outer_puf_chal(11, 6, 7), asm_ebreak()])
    return [run(state).encode(), bytes(state.memory)]


def _isa_noise_read():
    """On a capacity-1 buffer: init 0, a challenge (a hit), init 1, which evicts index 0,
    and the challenge again, so the device reads and decodes at its second device-read seed.

    Its status, memory, buffer counters and read count.
    """
    state = _isa_machine(1, 2)
    state.load_words(0, li32(5, 0x200) + li32(6, 0x210) + li32(7, 0x220) + li32(28, 0x300)
                     + li32(29, 0x320) + [asm_inner_puf_init(10, 5), asm_outer_puf_chal(11, 7, 28),
                                          asm_inner_puf_init(12, 6), asm_outer_puf_chal(13, 7, 29),
                                          asm_ebreak()])
    status = run(state).encode()
    counters = [*state.device.buffer.counters().values(), state.device.read_count]
    return [status, bytes(state.memory), np.array(counters, dtype=np.int64)]


def _draw(method, *args):
    """A check of one Generator method on the stream every prng check shares."""
    return lambda: [getattr(stream("selftest"), method)(*args)]


# (name, build, recorded digest)
CHECKS = [
    ("prng-random-raw", lambda: [stream("selftest").bit_generator.random_raw(8)],
     "b89d03332ded9cf8"),
    ("prng-integers-bits", _draw("integers", 0, 2, 127, np.uint8), "395eef2c21743255"),
    ("prng-random", _draw("random", 8), "39f2bd641f2d23e8"),
    ("prng-integers-63", _draw("integers", 0, 1 << 63, 8), "c09ed5c5e177a1ae"),
    ("prng-standard-normal", _draw("standard_normal", 8), "f67cda109fa8d728"),
    ("splitmix64", lambda: [splitmix64(np.arange(8, dtype=np.uint64))], "996b2fab3540594c"),
    ("parity-features", lambda: [parity_features(expand_challenge(1, 16, 70))],
     "e214e6aef7dea2f3"),
    ("compose-response", lambda: [compose_response(OUTER_BITS[:127], OUTER_BITS[::-1], 127)],
     "5fcec440d4887f96"),
    ("route-sram-bch", lambda: _route(SramPuf(1, num_blocks=2, block_bits=127, p=0.03), 1, "bch"),
     "568e9b4f650a8508"),
    ("route-arbiter-rs", lambda: _route(ArbiterPuf(1, sigma=0.1), 1, "rs"), "52eed981c96ed45d"),
    ("route-xor-bch", lambda: _route(XorArbiterPuf(1, sigma=0.2), 1, "bch"), "9792ce231c5e49b4"),
    ("buffer-fifo-trace", _fifo_trace, "4948687c6ba9b338"),
    ("isa-init-chal-program", _isa_program, "e09170cbb230bb7a"),
    ("isa-noise-read", _isa_noise_read, "b809609cbafd188f"),
]


def run_selftest():
    """Run every check; returns (all_passed, [(name, ok, detail), ...])."""
    results = []
    for name, build, want in CHECKS:
        try:
            got = _digest(build())
            detail = "" if got == want else f"digest {got}, want {want}"
        except Exception as exc:  # a failing check must not stop the suite
            detail = f"{type(exc).__name__}: {exc}"
        results.append((name, not detail, detail))
    return all(ok for _, ok, _ in results), results
