import numpy as np
import pytest

from risecure.extractor import HelperData, enroll, get_code, reconstruct
from risecure.puf import SramPuf, reference_response


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
    assert back.code_id == helper.code_id
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


def test_aux_is_full_code_length_and_binary():
    for name in ("bch", "rs"):
        code = get_code(name)
        puf = SramPuf(10, block_bits=code.n_bits, p=0.0)
        helper, _ = enroll(puf, 0, code, rng_seed=0)
        assert helper.aux.shape == (code.n_bits,)
        assert set(np.unique(helper.aux)) <= {0, 1}
