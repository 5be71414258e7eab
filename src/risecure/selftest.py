"""Fast invariant suite behind `risecure selftest`.

Each check is small and deterministic; together they cover the codec
round trips, the code-offset identity, buffer policy, hash widths, and the
instruction plumbing in a few seconds. Every check takes only the seed and
looks up the default codes itself, so a broken decoder in the code family
fails every check that decodes; the test suite proves this by patching the
decoder.
"""

import hashlib

import numpy as np

from .buffer import LookasideBuffer, select_output
from .extractor import enroll, get_code, reconstruct
from .hashing import compose_response
from .isa import (MachineState, PufDevice, asm_ebreak, asm_inner_puf_init,
                  asm_outer_puf_chal, decode, encode_fields, li32, run)
from .prng import checked_int, splitmix64, stream
from .puf import ArbiterPuf, SramPuf, parity_features

SHA3_256_ABC = "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"


def _check_splitmix_vector(seed):
    assert int(splitmix64(0)) == 0xE220A8397B1DCDAF


def _check_parity_features(seed):
    for c in range(16):
        bits = [(c >> i) & 1 for i in range(4)]
        phi = parity_features(np.array(bits, dtype=np.uint8))
        for i in range(4):
            expected = np.prod([1 - 2 * bits[j] for j in range(i, 4)])
            assert phi[i] == expected
        assert phi[4] == 1


def _check_codec_clean_roundtrip(seed):
    code = get_code("bch")
    g = stream("selftest-codec", seed)
    for _ in range(10):
        msg = g.integers(0, 2, code.k_bits, dtype=np.uint8)
        out = code.decode_bits(code.encode_bits(msg))
        assert out is not None and np.array_equal(out, msg)


def _check_codec_terror_roundtrip(seed):
    code = get_code("bch")
    g = stream("selftest-codec-err", seed)
    for _ in range(20):
        msg = g.integers(0, 2, code.k_bits, dtype=np.uint8)
        cw = code.encode_bits(msg)
        pos = g.choice(code.n_bits, code.t, replace=False)
        rx = cw.copy()
        rx[pos] ^= 1
        out = code.decode_bits(rx)
        assert out is not None and np.array_equal(out, msg)


def _check_code_offset_identity(seed):
    code = get_code("bch")
    g = stream("selftest-offset", seed)
    for _ in range(10):
        r = g.integers(0, 2, code.k_bits, dtype=np.uint8)
        r1 = g.integers(0, 2, code.n_bits, dtype=np.uint8)
        aux = code.encode_bits(r) ^ r1
        flips = np.zeros(code.n_bits, dtype=np.uint8)
        flips[g.choice(code.n_bits, code.t, replace=False)] = 1
        msg = code.decode_bits(aux ^ (r1 ^ flips))
        assert msg is not None
        r2 = code.encode_bits(msg) ^ aux
        assert np.array_equal(r2, r1)


def _check_rs_symbol_errors(seed):
    rs = get_code("rs")
    g = stream("selftest-rs", seed)
    for _ in range(5):
        msg = g.integers(0, 256, rs.k)
        cw = rs.encode(msg)
        pos = g.choice(rs.n, rs.t, replace=False)
        rx = cw.copy()
        rx[pos] ^= g.integers(1, 256, rs.t)
        out = rs.decode(rx)
        assert out is not None and np.array_equal(out, msg)


def _check_extractor_zero_noise(seed):
    real = get_code("bch")
    puf = SramPuf(seed, num_blocks=2, block_bits=real.n_bits, p=0.0)
    helper, r2 = enroll(puf, 0, real, seed)
    got = reconstruct(puf, 0, helper, noise_seed=99)
    assert got is not None and np.array_equal(got, r2)


def _check_buffer_fifo(seed):
    buf = LookasideBuffer(capacity=4)
    for k in range(5):
        buf.insert(k, ("entry", k))
    assert buf.lookup(0) is None  # oldest evicted
    assert buf.lookup(4) == ("entry", 4)
    buf.insert(2, ("entry", "replaced"))
    assert len(buf) == 4 and buf.evictions == 1
    assert buf.lookup(2) == ("entry", "replaced")


def _check_hash_vector(seed):
    assert hashlib.sha3_256(b"abc").hexdigest() == SHA3_256_ABC
    bits = compose_response(np.zeros(127, dtype=np.uint8), np.zeros(128, dtype=np.uint8), 127)
    assert bits.shape == (256,)


def _check_hash_widths(seed):
    r2 = np.zeros(127, dtype=np.uint8)
    c = np.zeros(128, dtype=np.uint8)
    for bad_r2, bad_c in ((np.zeros(126, dtype=np.uint8), c), (r2, np.zeros(129, dtype=np.uint8))):
        try:
            compose_response(bad_r2, bad_c, 127)
            raise AssertionError("wrong-width input accepted")
        except ValueError:
            pass


def _check_hash_avalanche(seed):
    g = stream("selftest-avalanche", seed)
    r2 = g.integers(0, 2, 127, dtype=np.uint8)
    c = g.integers(0, 2, 128, dtype=np.uint8)
    base = compose_response(r2, c, 127)
    fracs = []
    for _ in range(100):
        c2 = c.copy()
        c2[g.integers(0, 128)] ^= 1
        fracs.append(np.mean(base != compose_response(r2, c2, 127)))
    assert 0.3 < np.mean(fracs) < 0.7


def _check_output_mux(seed):
    real = get_code("bch")
    puf = SramPuf(seed + 1, num_blocks=2, block_bits=real.n_bits, p=0.0)
    helper, r2 = enroll(puf, 1, real, seed)
    out = select_output(1, puf, 1, real, helper=helper, noise_seed=5)
    assert np.array_equal(out, r2)
    try:
        select_output(3, puf, 1, real, helper=helper)
        raise AssertionError("reserved selector accepted")
    except ValueError:
        pass


def _check_isa_vectors(seed):
    init = decode(0x0002952B)
    assert (init.name, init.rs1, init.rd) == ("inner_puf_init", 5, 10)
    chal = decode(0x0062A52B)
    assert (chal.name, chal.rs1, chal.rs2, chal.rd) == ("outer_puf_chal", 5, 6, 10)
    assert encode_fields(init) == 0x0002952B
    assert encode_fields(chal) == 0x0062A52B


def _check_isa_program(seed):
    real = get_code("bch")
    device = PufDevice(real, seed=seed)
    device.register(0, SramPuf(seed + 2, num_blocks=4, block_bits=real.n_bits, p=0.02))
    state = MachineState(memory_size=1 << 16, device=device)
    c0 = 3
    state.mem_write(0x200, (0).to_bytes(4, "little") + c0.to_bytes(8, "little"))
    outer = stream("selftest-isa", seed).integers(0, 2, 128, dtype=np.uint8)
    state.mem_write(0x220, (0).to_bytes(4, "little") + np.packbits(outer).tobytes())
    prog = (li32(5, 0x200) + [asm_inner_puf_init(10, 5)]
            + li32(6, 0x220) + li32(7, 0x300)
            + [asm_outer_puf_chal(11, 6, 7), asm_ebreak()])
    state.load_words(0, prog)
    assert run(state) == "halted"
    assert state.regs[10] == 0 and state.regs[11] == 0

    mirror = PufDevice(real, seed=seed)
    mirror.register(0, SramPuf(seed + 2, num_blocks=4, block_bits=real.n_bits, p=0.02))
    mirror.enroll_idx(0, c0)
    r3 = mirror.sample_r3(0, outer)
    assert np.array_equal(np.frombuffer(state.mem_read(0x300, 32), dtype=np.uint8),
                          np.packbits(r3))


CHECKS = [
    ("splitmix-vector", _check_splitmix_vector),
    ("parity-features-exhaustive", _check_parity_features),
    ("codec-clean-roundtrip", _check_codec_clean_roundtrip),
    ("codec-t-error-roundtrip", _check_codec_terror_roundtrip),
    ("code-offset-identity", _check_code_offset_identity),
    ("rs-symbol-errors", _check_rs_symbol_errors),
    ("extractor-zero-noise", _check_extractor_zero_noise),
    ("buffer-fifo-eviction", _check_buffer_fifo),
    ("hash-known-vector", _check_hash_vector),
    ("hash-width-rejection", _check_hash_widths),
    ("hash-avalanche", _check_hash_avalanche),
    ("output-mux", _check_output_mux),
    ("isa-decode-vectors", _check_isa_vectors),
    ("isa-init-chal-program", _check_isa_program),
]


def run_selftest(seed=0):
    """Run every check; returns (all_passed, [(name, ok, detail), ...]).

    A seed that is not an integer raises ValueError before any check runs.
    """
    seed = checked_int(seed, "seed")
    results = []
    for name, fn in CHECKS:
        try:
            fn(seed)
            results.append((name, True, ""))
        except Exception as exc:  # a failing check must not stop the suite
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return all(ok for _, ok, _ in results), results
