import numpy as np
import pytest

from risecure.bch import BchCode
from risecure import extractor
from risecure.buffer import LookasideBuffer, sample_with_buffer
from risecure.extractor import HelperData, enroll, get_code, reconstruct
from risecure.hashing import bits_to_bytes, compose_response
from risecure.isa import MachineState, PufDevice, asm_ebreak, asm_outer_puf_chal, li32, run
from risecure.prng import derive_seed
from risecure.puf import SramPuf, reference_response
from risecure.reed_solomon import ReedSolomonCode


class _ControlledSram(SramPuf):
    """SRAM whose read noise is an explicit bit-position list, set per test.

    Lets a test inject exactly t (or t+1, or zero) flips between the
    enrollment read and the reconstruction read.
    """

    def __init__(self, seed, **kw):
        super().__init__(seed, p=0.0, **kw)
        self.flips = ()

    def read(self, c0, n_bits, noise_seed=None):
        bits = super().read(c0, n_bits).copy()
        if noise_seed is not None:
            for pos in self.flips:
                bits[pos] ^= 1
        return bits


def test_get_code_aliases_and_caching():
    bch = get_code("bch")
    assert get_code("BCH-127-36-15") is bch
    rs = get_code("rs")
    assert get_code("rs-255-223-16") is rs
    assert (bch.n_bits, bch.k_bits) == (127, 36)
    assert (rs.n_bits, rs.k_bits) == (2040, 1784)
    with pytest.raises(ValueError):
        get_code("hamming")


def test_get_code_builds_only_the_family_it_looks_up(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("built a code nobody asked for")

    monkeypatch.setattr(extractor, "_CODES", {})
    monkeypatch.setattr(ReedSolomonCode, "__init__", refuse)
    assert get_code("Bch-127-36-15") is get_code("bch")
    for name in ("bch-31-16-3", "bch-127-36", "hamming"):
        with pytest.raises(ValueError):
            get_code(name)


def test_enroll_is_deterministic_in_rng_seed():
    puf = SramPuf(1, p=0.0)
    code = get_code("bch")
    h1, r1 = enroll(puf, 0, code, rng_seed=5)
    h2, r2 = enroll(puf, 0, code, rng_seed=5)
    h3, _ = enroll(puf, 0, code, rng_seed=6)
    assert np.array_equal(h1.aux, h2.aux) and np.array_equal(r1, r2)
    assert not np.array_equal(h1.aux, h3.aux)


def test_noiseless_roundtrip_returns_enrollment_read():
    puf = SramPuf(2, p=0.0)
    code = get_code("bch")
    helper, r1 = enroll(puf, 3, code, rng_seed=0)
    out = reconstruct(puf, 3, helper, noise_seed=99)
    assert out is not None and np.array_equal(out, r1)
    assert np.array_equal(r1, reference_response(puf, 3, 127))


def test_bch_recovers_through_exactly_t_flips():
    rng = np.random.default_rng(0)
    puf = _ControlledSram(4)
    code = get_code("bch")
    helper, r1 = enroll(puf, 0, code, rng_seed=1)
    for _ in range(30):
        puf.flips = tuple(rng.choice(127, size=15, replace=False))
        out = reconstruct(puf, 0, helper, noise_seed=0)
        assert out is not None and np.array_equal(out, r1)


def test_rs_recovers_through_exactly_t_symbol_errors():
    rng = np.random.default_rng(1)
    puf = _ControlledSram(5, block_bits=2040)
    code = get_code("rs")
    helper, r1 = enroll(puf, 0, code, rng_seed=2)
    for _ in range(10):
        symbols = rng.choice(255, size=16, replace=False)
        puf.flips = tuple(int(8 * s + rng.integers(0, 8)) for s in symbols)
        out = reconstruct(puf, 0, helper, noise_seed=0)
        assert out is not None and np.array_equal(out, r1)


def test_heavy_noise_never_silently_returns_wrong_r2():
    rng = np.random.default_rng(2)
    puf = _ControlledSram(6)
    code = get_code("bch")
    helper, r1 = enroll(puf, 0, code, rng_seed=3)
    none_count = 0
    for _ in range(50):
        puf.flips = tuple(rng.choice(127, size=40, replace=False))
        out = reconstruct(puf, 0, helper, noise_seed=0)
        if out is None:
            none_count += 1
        else:
            # a miscorrection lands on a different codeword, never on r1
            assert not np.array_equal(out, r1)
    assert none_count > 0


def test_success_implies_bit_identical_r2_under_real_noise():
    puf = SramPuf(7, p=0.05)
    code = get_code("bch")
    helper, r1 = enroll(puf, 0, code, rng_seed=4)
    ok = 0
    for t in range(200):
        out = reconstruct(puf, 0, helper, noise_seed=t)
        if out is not None:
            ok += 1
            assert np.array_equal(out, r1)
    assert ok >= 195  # p=0.05 with t=15 on n=127 fails only a few per mille


def test_helper_json_roundtrip():
    puf = SramPuf(8, p=0.0)
    helper, _ = enroll(puf, 1, get_code("bch"), rng_seed=0)
    doc = helper.to_json()
    assert doc["version"] == 1 and doc["n"] == 127
    back = HelperData.from_json(doc)
    assert back.code.code_id == helper.code.code_id
    assert np.array_equal(back.aux, helper.aux)


def test_helper_json_rejects_malformed_documents():
    puf = SramPuf(9, p=0.0)
    helper, _ = enroll(puf, 0, get_code("bch"), rng_seed=0)
    doc = helper.to_json()
    bad = dict(doc, version=2)
    with pytest.raises(ValueError):
        HelperData.from_json(bad)
    bad = dict(doc, aux=doc["aux"] + "00")
    with pytest.raises(ValueError):
        HelperData.from_json(bad)
    bad = dict(doc, n=126)
    with pytest.raises(ValueError):
        HelperData.from_json(bad)
    # force a nonzero bit into the final byte's padding
    raw = bytearray(bytes.fromhex(doc["aux"]))
    raw[-1] |= 0x01
    bad = dict(doc, aux=bytes(raw).hex())
    with pytest.raises(ValueError):
        HelperData.from_json(bad)


# n and version take integers only: a float, a string or a bool used to
# load as a truncated or coerced value (127.9 and "127" as n = 127, true and
# 1.0 as version 1).
@pytest.mark.parametrize("field,value", [
    ("n", 127.9), ("n", 127.0), ("n", "127"), ("n", True), ("n", -1),
    ("version", True), ("version", 1.0), ("version", "1"), ("version", None),
])
def test_helper_json_integer_fields_take_integers_only(field, value):
    helper, _ = enroll(SramPuf(9, p=0.0), 0, get_code("bch"), rng_seed=0)
    with pytest.raises(ValueError, match=field):
        HelperData.from_json(dict(helper.to_json(), **{field: value}))


def test_aux_is_full_code_length_and_binary():
    for name in ("bch", "rs"):
        code = get_code(name)
        puf = SramPuf(10, block_bits=code.n_bits, p=0.0)
        helper, _ = enroll(puf, 0, code, rng_seed=0)
        assert helper.aux.shape == (code.n_bits,)
        assert set(np.unique(helper.aux)) <= {0, 1}


def test_r2_and_aux_are_uint8_and_r2_owns_its_memory():
    for name in ("bch", "rs"):
        code = get_code(name)
        puf = SramPuf(10, block_bits=code.n_bits, p=0.0)
        helper, _ = enroll(puf, 0, code, rng_seed=0)
        r2 = reconstruct(puf, 0, helper, noise_seed=1)
        assert helper.aux.dtype == np.uint8 and r2.dtype == np.uint8
        assert not np.shares_memory(r2, helper.aux) and r2.flags.writeable


def test_enroll_and_reconstruct_take_integer_challenges_and_seeds():
    code = get_code("bch")
    puf = SramPuf(10, block_bits=code.n_bits, p=0.0)
    helper, _ = enroll(puf, 1, code, rng_seed=0)
    with pytest.raises(ValueError, match="c0"):  # it read block 1 and failed its decode
        reconstruct(puf, 1.5, helper, noise_seed=0)
    with pytest.raises(ValueError, match="noise_seed"):  # it read with noise seed 1
        reconstruct(puf, 1, helper, noise_seed=1.5)
    with pytest.raises(ValueError, match="rng_seed"):  # it enrolled with secret seed 0
        enroll(puf, 1, code, rng_seed=0.5)


@pytest.mark.parametrize("code", [ReedSolomonCode(t=2, m=4, primitive_poly=0x13),
                                  BchCode(m=5, t=3, primitive_poly=0x25)],
                         ids=lambda code: code.code_id)
def test_non_default_codes_end_to_end(code):
    # t errors on every noisy read: one bit in each of t symbols (RS) or t bits (BCH)
    width = code.n_bits // code.n
    puf = _ControlledSram(12, block_bits=code.n_bits)
    puf.flips = tuple(width * s + s % width for s in range(0, 2 * code.t, 2))
    helper, r2 = enroll(puf, 3, code, rng_seed=1)
    assert np.array_equal(reconstruct(puf, 3, helper, noise_seed=0), r2)
    buf = LookasideBuffer(4)
    out = sample_with_buffer(buf, puf, ("dev", 3), helper, code, noise_seed=0)
    assert np.array_equal(out, r2) and buf.decode_calls == 1

    # capacity 1: enrolling index 1 evicts index 0, so the request for 0 misses and decodes
    dev = PufDevice(code, seed=5, capacity=1)
    dev.register(0, puf)
    dev.register(1, SramPuf(13, block_bits=code.n_bits, p=0.0))
    dev.enroll_idx(0, 3)
    dev.enroll_idx(1, 2)
    st = MachineState(memory_size=4096, device=dev)
    outer = bytes(range(16, 32))
    st.mem_write(0x220, (0).to_bytes(4, "little") + outer)
    st.load_words(0, [*li32(6, 0x220), *li32(7, 0x300), asm_outer_puf_chal(11, 6, 7),
                      asm_ebreak()])
    assert run(st) == "halted" and st.regs[11] == 0
    assert dev.buffer.misses == 1 and dev.buffer.decode_calls == 1

    mirror, mirror_r2 = enroll(puf, 3, code, derive_seed("device-enroll", 5, 0, 3))
    assert np.array_equal(mirror.aux, dev.aux_table[0].aux)
    r3 = compose_response(mirror_r2, np.unpackbits(np.frombuffer(outer, np.uint8)), code.n_bits)
    assert st.mem_read(0x300, 32) == bits_to_bytes(r3)
