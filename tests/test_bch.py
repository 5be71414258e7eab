import math

import numpy as np
import pytest

from risecure.bch import BchCode
from risecure.galois import GF2m
from risecure.reed_solomon import ReedSolomonCode

from gf_ref import ref_field, symbols_to_bits


@pytest.fixture(scope="module")
def code():
    return BchCode()


def test_default_parameters(code):
    assert (code.n, code.k, code.t) == (127, 36, 15)
    assert len(code.generator) - 1 == 91


def test_generator_from_independent_root_product(code):
    # rebuild the generator as prod (x - alpha^e) over the union of the
    # cyclotomic cosets of 1..2t, using only field primitives
    gf = GF2m(7, 0x89)
    ref = ref_field(gf)
    exponents = sorted({(j << i) % 127 for j in range(1, 31) for i in range(7)})
    g = np.array([1], dtype=np.int64)
    for e in exponents:
        g = gf.poly_mul(g, np.array([ref.pow_alpha(e), 1], dtype=np.int64))
    assert np.array_equal(g.astype(np.uint8), code.generator)
    assert len(exponents) == 91


def test_generator_divides_x_n_minus_1(code):
    # long division of x^127 - 1 by g over GF(2)
    dividend = np.zeros(128, dtype=np.int64)
    dividend[0] = 1
    dividend[127] = 1
    g = code.generator
    rem = dividend.copy()
    for top in range(127, 90, -1):
        if rem[top]:
            rem[top - 91 : top + 1] ^= g
    assert not rem.any()


def test_generator_roots(code):
    ref = ref_field(code.field)
    for j in range(1, 31):
        assert ref.poly_eval(code.generator.astype(np.int64), ref.pow_alpha(j)) == 0


def test_encode_is_systematic_and_divisible_by_generator(code):
    rng = np.random.default_rng(0)
    msg = rng.integers(0, 2, 36, dtype=np.uint8)
    cw = code.encode(msg)
    assert np.array_equal(cw[91:], msg)
    # codeword polynomial must be divisible by g
    rem = cw.astype(np.int64)
    for top in range(126, 90, -1):
        if rem[top]:
            rem[top - 91 : top + 1] ^= code.generator
    assert not rem.any()


def test_encode_linearity(code):
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.integers(0, 2, 36, dtype=np.uint8)
        b = rng.integers(0, 2, 36, dtype=np.uint8)
        assert np.array_equal(code.encode(a) ^ code.encode(b), code.encode(a ^ b))
    assert not code.encode(np.zeros(36, dtype=np.uint8)).any()


def test_zero_error_roundtrip(code):
    rng = np.random.default_rng(2)
    for _ in range(50):
        msg = rng.integers(0, 2, 36, dtype=np.uint8)
        assert np.array_equal(code.decode(code.encode(msg)), msg)


def test_small_code_matches_textbook_generator():
    # BCH(15,5,3) over GF(2^4)/x^4+x+1: g = x^10+x^8+x^5+x^4+x^2+x+1
    small = BchCode(m=4, t=3, primitive_poly=0x13)
    assert (small.n, small.k, small.t) == (15, 5, 3)
    expected = np.zeros(11, dtype=np.uint8)
    for d in (0, 1, 2, 4, 5, 8, 10):
        expected[d] = 1
    assert np.array_equal(small.generator, expected)
    # exhaustive: all 32 messages, all single-bit errors
    for m_int in range(32):
        msg = np.array([(m_int >> i) & 1 for i in range(5)], dtype=np.uint8)
        cw = small.encode(msg)
        for pos in range(15):
            rx = cw.copy()
            rx[pos] ^= 1
            assert np.array_equal(small.decode(rx), msg)


def test_correction_exhaustive_weight_le_2(code):
    rng = np.random.default_rng(3)
    msg = rng.integers(0, 2, 36, dtype=np.uint8)
    cw = code.encode(msg)
    for i in range(127):
        rx = cw.copy()
        rx[i] ^= 1
        assert np.array_equal(code.decode(rx), msg), f"weight-1 at {i}"
    for i in range(127):
        for j in range(i + 1, 127):
            rx = cw.copy()
            rx[i] ^= 1
            rx[j] ^= 1
            assert np.array_equal(code.decode(rx), msg), f"weight-2 at {i},{j}"


def test_correction_at_capability_bound(code):
    rng = np.random.default_rng(4)
    msg = rng.integers(0, 2, 36, dtype=np.uint8)
    cw = code.encode(msg)
    for _ in range(200):
        pos = rng.choice(127, 15, replace=False)
        rx = cw.copy()
        rx[pos] ^= 1
        assert np.array_equal(code.decode(rx), msg)


def test_beyond_distance_never_returns_original_with_errors_intact(code):
    # 2t+1 flips move the word at least distance t+1 from the true codeword,
    # so bounded-distance decoding can fail or miscorrect but cannot return
    # the original message
    rng = np.random.default_rng(5)
    failures = 0
    for _ in range(300):
        msg = rng.integers(0, 2, 36, dtype=np.uint8)
        cw = code.encode(msg)
        pos = rng.choice(127, 31, replace=False)
        rx = cw.copy()
        rx[pos] ^= 1
        out = code.decode(rx)
        if out is None:
            failures += 1
        else:
            assert not np.array_equal(out, msg)
    assert failures > 0  # DecodeFailure is a value, and it does occur


def test_decode_failure_rate_matches_binomial_tail():
    # at p=0.05 the probability of >15 errors in 127 bits is the binomial
    # tail; decode failures over many noisy words should be in that regime
    p = 0.05
    tail = sum(math.comb(127, i) * p**i * (1 - p) ** (127 - i) for i in range(16, 128))
    code = BchCode()
    rng = np.random.default_rng(6)
    msg = rng.integers(0, 2, 36, dtype=np.uint8)
    cw = code.encode(msg)
    trials = 4000
    bad = 0
    for _ in range(trials):
        noise = (rng.random(127) < p).astype(np.uint8)
        out = code.decode(cw ^ noise)
        if out is None or not np.array_equal(out, msg):
            bad += 1
    # tail is ~4e-4; allow generous Monte-Carlo slack around it
    assert bad / trials <= tail * 10 + 3 / trials


def test_wrong_length_rejected(code):
    with pytest.raises(ValueError):
        code.encode(np.zeros(35, dtype=np.uint8))
    with pytest.raises(ValueError):
        code.decode(np.zeros(126, dtype=np.uint8))


@pytest.mark.parametrize("code", [
    BchCode(),
    BchCode(m=5, t=3, primitive_poly=0x25),
    BchCode(m=4, t=3, primitive_poly=0x13),
    ReedSolomonCode(),
    ReedSolomonCode(t=2, m=4, primitive_poly=0x13),
    ReedSolomonCode(t=2, m=3, primitive_poly=0xB),
], ids=["bch-127-36-15", "bch-31-16-3", "bch-15-5-3", "rs-255-223-16", "rs-15-11-2", "rs-7-3-2"])
def test_syndromes_equal_scalar_evaluation(code):
    """S_j = rx(alpha^j) for j = 1..2t by scalar Horner evaluation, on the
    zero word, every word with one nonzero symbol (a single bit for BCH)
    and seeded random words."""
    gf = ref_field(code.field)
    rng = np.random.default_rng(18)
    top = 1 << code.s
    dtype = np.uint8 if code.s == 1 else np.int64
    words = [np.zeros(code.n, dtype), *(np.eye(code.n, dtype=dtype) * rng.integers(1, top, code.n)),
             *rng.integers(0, top, (100, code.n)).astype(dtype)]
    for rx in words:
        want = [gf.poly_eval(rx, gf.pow_alpha(j)) for j in range(1, 2 * code.t + 1)]
        assert code.syndromes(symbols_to_bits(rx, code.s)).tolist() == want
