import numpy as np
import pytest

from risecure.galois import GF2m
from risecure.reed_solomon import ReedSolomonCode

from gf_ref import decode_symbols, encode_symbols, ref_field


@pytest.fixture(scope="module")
def code():
    return ReedSolomonCode()


def poly_remainder(field, dividend, divisor):
    """Independent long division over the field, ascending coefficients."""
    field = ref_field(field)
    rem = np.asarray(dividend, dtype=np.int64).copy()
    d = len(divisor) - 1
    inv_lead = field.inv(int(divisor[-1]))
    for top in range(len(rem) - 1, d - 1, -1):
        if rem[top]:
            coef = field.mul(int(rem[top]), inv_lead)
            for i, c in enumerate(divisor):
                rem[top - d + i] ^= field.mul(coef, int(c))
    return rem[:d]


def test_default_parameters(code):
    assert (code.n, code.k, code.t) == (255, 223, 16)
    assert len(code.generator) - 1 == 32
    assert code.n_bits == 2040 and code.k_bits == 1784


def test_generator_roots_first_consecutive_root_is_alpha(code):
    ref = ref_field(code.field)
    for j in range(1, 33):
        assert ref.poly_eval(code.generator, ref.pow_alpha(j)) == 0
    # alpha^0 = 1 is not a root: narrow-sense, fcr = 1
    assert ref.poly_eval(code.generator, 1) != 0


def test_encode_matches_independent_polynomial_division(code):
    rng = np.random.default_rng(0)
    for _ in range(5):
        msg = rng.integers(0, 256, 223)
        cw = encode_symbols(code, msg)
        assert np.array_equal(cw[32:], msg)
        shifted = np.concatenate([np.zeros(32, dtype=np.int64), msg])
        rem = poly_remainder(code.field, shifted, code.generator)
        assert np.array_equal(cw[:32], rem)


def test_encode_linearity(code):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, 223)
    b = rng.integers(0, 256, 223)
    sum_of_codewords = encode_symbols(code, a) ^ encode_symbols(code, b)
    assert np.array_equal(sum_of_codewords, encode_symbols(code, a ^ b))


def test_zero_error_roundtrip(code):
    rng = np.random.default_rng(2)
    msg = rng.integers(0, 256, 223)
    assert np.array_equal(decode_symbols(code, encode_symbols(code, msg)), msg)


def test_correction_at_symbol_capability(code):
    rng = np.random.default_rng(3)
    for _ in range(50):
        msg = rng.integers(0, 256, 223)
        cw = encode_symbols(code, msg)
        pos = rng.choice(255, 16, replace=False)
        rx = cw.copy()
        rx[pos] ^= rng.integers(1, 256, 16)
        assert np.array_equal(decode_symbols(code, rx), msg)


def test_beyond_capability_fails_or_miscorrects(code):
    rng = np.random.default_rng(4)
    failures = 0
    for _ in range(100):
        msg = rng.integers(0, 256, 223)
        cw = encode_symbols(code, msg)
        pos = rng.choice(255, 33, replace=False)  # 2t+1 symbol errors
        rx = cw.copy()
        rx[pos] ^= rng.integers(1, 256, 33)
        out = decode_symbols(code, rx)
        if out is None:
            failures += 1
        else:
            assert not np.array_equal(out, msg)
    assert failures > 0


def test_bit_packing_is_msb_first(code):
    msg_bits = np.zeros(code.k_bits, dtype=np.uint8)
    msg_bits[0] = 1  # only the MSB of the first message symbol
    cw = code.encode_bits(msg_bits)
    syms = np.packbits(cw)
    assert syms[32] == 0x80
    assert np.array_equal(np.unpackbits(np.array([0x80], dtype=np.uint8)),
                          cw[32 * 8 : 33 * 8])


def test_bit_flips_within_budget_decode(code):
    # a single flipped bit costs one symbol of budget; bursts inside one
    # symbol cost the same one symbol
    rng = np.random.default_rng(5)
    msg_bits = rng.integers(0, 2, code.k_bits, dtype=np.uint8)
    cw_bits = code.encode_bits(msg_bits)
    syms = rng.choice(255, 16, replace=False)
    rx = cw_bits.copy()
    for s in syms:
        width = rng.integers(1, 9)
        offs = rng.choice(8, width, replace=False)
        rx[8 * s + offs] ^= 1
    assert np.array_equal(code.decode_bits(rx), msg_bits)


def test_bit_interface_rejects_wrong_widths(code):
    with pytest.raises(ValueError):
        code.encode_bits(np.zeros(code.k_bits - 1, dtype=np.uint8))
    with pytest.raises(ValueError):
        code.decode_bits(np.zeros(code.n_bits + 8, dtype=np.uint8))


def test_small_field_forney_magnitudes_by_bruteforce():
    # RS over GF(16): compare decoded error magnitudes against brute force
    small = ReedSolomonCode(t=2, m=4, primitive_poly=0x13)
    assert (small.n, small.k) == (15, 11)
    gf = GF2m(4, 0x13)
    rng = np.random.default_rng(6)
    for _ in range(100):
        msg = rng.integers(0, 16, 11)
        cw = encode_symbols(small, msg)
        pos = rng.choice(15, 2, replace=False)
        mags = rng.integers(1, 16, 2)
        rx = cw.copy()
        rx[pos] ^= mags
        out = decode_symbols(small, rx)
        assert out is not None and np.array_equal(out, msg)
