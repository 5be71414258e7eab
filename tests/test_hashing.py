import numpy as np
import pytest

import fips202_ref
from risecure.buffer import select_output
from risecure.extractor import enroll, get_code
from risecure.hashing import (OUTER_CHALLENGE_BITS, bits_to_bytes,
                              bytes_to_bits, compose_response,
                              unpredictability_report)
from risecure.prng import stream
from risecure.puf import SramPuf, eval_raw


def test_bit_byte_packing_is_msb_first():
    assert bits_to_bytes([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x80"
    assert bits_to_bytes([0, 0, 0, 0, 0, 0, 0, 1]) == b"\x01"
    assert list(bytes_to_bits(b"\xa5")) == [1, 0, 1, 0, 0, 1, 0, 1]
    rng = np.random.default_rng(0)
    for _ in range(20):
        bits = rng.integers(0, 2, 128, dtype=np.uint8)
        assert np.array_equal(bytes_to_bits(bits_to_bytes(bits)), bits)


def test_digest_matches_independent_keccak_oracle():
    # fips202_ref implements Keccak-f[1600] from the permutation up,
    # sharing nothing with hashlib
    rng = np.random.default_rng(1)
    for _ in range(50):
        r2 = rng.integers(0, 2, 127, dtype=np.uint8)
        c = rng.integers(0, 2, OUTER_CHALLENGE_BITS, dtype=np.uint8)
        got = compose_response(r2, c, 127)
        want = fips202_ref.sha3_256(bits_to_bytes(r2) + bits_to_bytes(c))
        assert np.array_equal(got, bytes_to_bits(want))


def test_wrong_widths_rejected():
    c_ok = np.zeros(OUTER_CHALLENGE_BITS, dtype=np.uint8)
    r_ok = np.zeros(127, dtype=np.uint8)
    for bad in (126, 128, 0):
        with pytest.raises(ValueError):
            compose_response(np.zeros(bad, dtype=np.uint8), c_ok, 127)
    for bad in (127, 129, 64):
        with pytest.raises(ValueError):
            compose_response(r_ok, np.zeros(bad, dtype=np.uint8), 127)


def test_outer_challenge_as_16_bytes_hashes_like_its_128_bits():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r2 = rng.integers(0, 2, 127, dtype=np.uint8)
        c = rng.integers(0, 2, OUTER_CHALLENGE_BITS, dtype=np.uint8)
        assert np.array_equal(compose_response(r2, bits_to_bytes(c), 127),
                              compose_response(r2, c, 127))


@pytest.mark.parametrize("c", [bytes(15), bytes(17), bytearray(16)],
                         ids=["15-bytes", "17-bytes", "bytearray"])
def test_outer_challenge_bytes_of_another_length_or_type_are_rejected(c):
    with pytest.raises(ValueError, match="outer challenge"):
        compose_response(np.zeros(127, dtype=np.uint8), c, 127)


def test_single_bit_challenge_flip_avalanche():
    r2 = stream("t", 0).integers(0, 2, 127, dtype=np.uint8)
    c = stream("t", 1).integers(0, 2, OUTER_CHALLENGE_BITS, dtype=np.uint8)
    base = compose_response(r2, c, 127)
    fractions = []
    for i in range(OUTER_CHALLENGE_BITS):
        c2 = c.copy()
        c2[i] ^= 1
        fractions.append(np.mean(base ^ compose_response(r2, c2, 127)))
    assert 0.45 < np.mean(fractions) < 0.55
    assert min(fractions) > 0.30  # no weak positions


def test_mux_mode_0_is_raw_read():
    puf = SramPuf(1, p=0.05)
    code = get_code("bch")
    out = select_output(0, puf, 2, code, noise_seed=7)
    assert np.array_equal(out, eval_raw(puf, 2, 7, 127))


def test_mux_modes_1_and_2_compose_correctly():
    puf = SramPuf(2, p=0.02)
    code = get_code("bch")
    helper, r1 = enroll(puf, 0, code, rng_seed=0)
    outer = stream("t", 2).integers(0, 2, OUTER_CHALLENGE_BITS, dtype=np.uint8)
    r2 = select_output(1, puf, 0, code, helper=helper, noise_seed=3)
    assert np.array_equal(r2, r1)
    r3 = select_output(2, puf, 0, code, helper=helper, outer_challenge=outer, noise_seed=3)
    assert np.array_equal(r3, compose_response(r1, outer, 127))


def test_mux_argument_validation():
    puf = SramPuf(3, p=0.0)
    code = get_code("bch")
    helper, _ = enroll(puf, 0, code, rng_seed=0)
    with pytest.raises(ValueError):
        select_output(1, puf, 0, code)  # helper missing
    with pytest.raises(ValueError):
        select_output(2, puf, 0, code, helper=helper)  # outer missing
    with pytest.raises(ValueError):
        select_output(3, puf, 0, code, helper=helper)  # reserved
    with pytest.raises(ValueError):
        select_output(4, puf, 0, code, helper=helper)


@pytest.mark.parametrize("mode", [1.9, 2.5, 1.0, "1", None, True, np.float64(2)], ids=repr)
def test_mux_selector_must_be_an_integer(mode):
    puf = SramPuf(3, p=0.0)
    code = get_code("bch")
    helper, _ = enroll(puf, 0, code, rng_seed=0)
    outer = stream("t", 4).integers(0, 2, OUTER_CHALLENGE_BITS, dtype=np.uint8)
    with pytest.raises(ValueError, match="selector must be a 2-bit value"):
        select_output(mode, puf, 0, code, helper=helper, outer_challenge=outer)


def test_mux_accepts_numpy_integer_selectors():
    puf = SramPuf(2, p=0.02)
    code = get_code("bch")
    helper, r1 = enroll(puf, 0, code, rng_seed=0)
    assert np.array_equal(select_output(np.int64(0), puf, 0, code, noise_seed=3),
                          select_output(0, puf, 0, code, noise_seed=3))
    assert np.array_equal(select_output(np.uint8(1), puf, 0, code, helper=helper, noise_seed=3), r1)


def test_hashed_output_stable_across_noisy_reads():
    puf = SramPuf(4, p=0.03)
    code = get_code("bch")
    helper, _ = enroll(puf, 1, code, rng_seed=1)
    outer = stream("t", 3).integers(0, 2, OUTER_CHALLENGE_BITS, dtype=np.uint8)
    outs = [select_output(2, puf, 1, code, helper=helper, outer_challenge=outer,
                          noise_seed=t) for t in range(25)]
    outs = [o for o in outs if o is not None]
    assert len(outs) >= 24
    for o in outs[1:]:
        assert np.array_equal(o, outs[0])


def test_unpredictability_report_on_digests_and_on_junk():
    rng = np.random.default_rng(5)
    digests = np.empty((1000, 256), dtype=np.uint8)
    r2 = rng.integers(0, 2, 127, dtype=np.uint8)
    for i in range(1000):
        c = rng.integers(0, 2, OUTER_CHALLENGE_BITS, dtype=np.uint8)
        digests[i] = compose_response(r2, c, 127)
    rep = unpredictability_report(digests)
    assert rep["pass"] and rep["samples"] == 1000
    assert rep["monobit_z"] < 4 and rep["max_bit_bias_z"] < 4

    biased = digests.copy()
    biased[:, 0] = 1  # pin one output bit
    assert not unpredictability_report(biased)["pass"]

    with pytest.raises(ValueError):
        unpredictability_report(digests[:500])
    with pytest.raises(ValueError):
        unpredictability_report(digests[0])
