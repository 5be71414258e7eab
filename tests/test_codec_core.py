"""Checks on the codec core shared by BchCode and ReedSolomonCode.

A brute-force nearest-codeword oracle on small codes pins what the
shared decoder does at every error weight, beyond t included (failure
versus miscorrection), on a sample of words and on every syndrome class;
a digest of decode outcomes pins the two full-size codes to the per-codec
decoders they replaced. The generators the core derives are checked
against each codec's own textbook construction.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from risecure import galois
from risecure.bch import BchCode
from risecure.galois import GF2m
from risecure.hashing import OUTER_CHALLENGE_BITS, compose_response
from risecure.prng import stream
from risecure.reed_solomon import ReedSolomonCode

from gf_ref import (bits_to_symbols, clmul_mod, decode_symbols, encode_symbols, ref_field,
                    symbols_to_bits)


def _corrupt(code, cw, weight, rng, symbol_max):
    """cw with `weight` distinct positions changed by nonzero magnitudes."""
    rx = cw.copy()
    pos = rng.choice(code.n, weight, replace=False)
    rx[pos] ^= rng.integers(1, symbol_max + 1, weight).astype(rx.dtype)
    return rx


@pytest.mark.parametrize("code,symbol_max", [
    (BchCode(m=4, t=3, primitive_poly=0x13), 1),  # BCH(15,5,3): 32 codewords
    (ReedSolomonCode(t=2, m=3, primitive_poly=0xB), 7),  # RS(7,3): 512 codewords
], ids=["bch-15-5", "rs-7-3"])
def test_decode_matches_bruteforce_nearest_codeword(code, symbol_max):
    base = symbol_max + 1
    # every message, as digits of its index in base 2^s
    msgs = (np.arange(base ** code.k)[:, None] // base ** np.arange(code.k)) % base
    book = np.array([encode_symbols(code, m) for m in msgs])
    rng = np.random.default_rng(11)
    per_weight = -(-3000 // (code.n + 1))
    for weight in range(code.n + 1):
        for _ in range(per_weight):
            cw = book[rng.integers(len(book))]
            rx = _corrupt(code, cw, weight, rng, symbol_max)
            dist = np.count_nonzero(book != rx, axis=1)
            near = np.nonzero(dist <= code.t)[0]
            assert len(near) <= 1  # minimum distance 2t+1
            got = decode_symbols(code, rx)
            if len(near):
                assert got is not None and np.array_equal(got, msgs[near[0]]), weight
            else:
                assert got is None, weight


def _all_words(count, length, base):
    """Row i holds the base-`base` digits of i, least significant first."""
    return (np.arange(count)[:, None] // base ** np.arange(length)) % base


@pytest.mark.parametrize("code,symbol_max", [
    (BchCode(m=4, t=3, primitive_poly=0x13), 1),
    (ReedSolomonCode(t=2, m=3, primitive_poly=0xB), 7),
    (BchCode(m=4, t=2, primitive_poly=0x13), 1),  # BCH(15,7,2): 128 codewords
], ids=["bch-15-5", "rs-7-3", "bch-15-7"])
def test_decoder_is_complete_bounded_distance_on_every_syndrome_class(code, symbol_max):
    """Every word of BCH(15,5,3) and BCH(15,7,2), and one word per syndrome
    class of RS(7,3,2), decodes to the codeword within t when one exists and
    to None otherwise."""
    base, r = symbol_max + 1, code.n - code.k
    dtype = np.uint8 if symbol_max == 1 else np.int64
    msgs = _all_words(base ** code.k, code.k, base).astype(dtype)
    book = np.array([encode_symbols(code, m) for m in msgs])
    if symbol_max == 1:
        words = _all_words(2 ** code.n, code.n, 2).astype(dtype)
    else:
        # a systematic code's syndrome class holds one word whose message part
        # is zero, so the parity patterns, each added to a codeword, cover all
        rng = np.random.default_rng(7)
        words = book[rng.integers(len(book), size=base ** r)]
        words[:, :r] ^= _all_words(base ** r, r, base)
    decoded = 0
    for rx in words:  # one word's distances at a time: all at once is words x codewords x n
        near = np.nonzero(np.count_nonzero(book != rx, axis=1) <= code.t)[0]
        got = decode_symbols(code, rx)
        if len(near):
            assert got is not None and np.array_equal(got, msgs[near[0]])
            decoded += 1
        else:
            assert got is None
    # words within t of a codeword: one sphere of sum C(n, w) (2^s - 1)^w per
    # codeword; one syndrome class per point of a sphere
    sphere = sum(math.comb(code.n, w) * symbol_max ** w for w in range(code.t + 1))
    assert decoded == (len(book) * sphere if symbol_max == 1 else sphere)


def _minpoly_generator(gf, t):
    """BCH: the product of the minimal polynomials of the 2-cyclotomic cosets of 1..2t."""
    n, seen, gen = gf.order - 1, set(), np.array([1], dtype=np.int64)
    for j in range(1, 2 * t + 1):
        if j in seen:
            continue
        minpoly, e = np.array([1], dtype=np.int64), j
        while e not in seen:
            seen.add(e)
            minpoly = gf.poly_mul(minpoly, [ref_field(gf).pow_alpha(e), 1])
            e = 2 * e % n
        assert set(minpoly.tolist()) <= {0, 1}
        gen = gf.poly_mul(gen, minpoly)
    return gen


def _root_product_generator(gf, t):
    """RS: the product of (x - alpha^j) for j = 1..2t."""
    gen = np.array([1], dtype=np.int64)
    for j in range(1, 2 * t + 1):
        gen = gf.poly_mul(gen, [ref_field(gf).pow_alpha(j), 1])
    return gen


@pytest.mark.parametrize("make,m,t,poly,build", [
    (BchCode, 7, 15, 0x89, _minpoly_generator),
    (BchCode, 4, 3, 0x13, _minpoly_generator),
    (BchCode, 5, 3, 0x25, _minpoly_generator),
    (ReedSolomonCode, 8, 16, 0x11D, _root_product_generator),
    (ReedSolomonCode, 4, 2, 0x13, _root_product_generator),
    (ReedSolomonCode, 3, 2, 0xB, _root_product_generator),
], ids=["bch-127-36-15", "bch-15-5-3", "bch-31-16-3", "rs-255-223-16", "rs-15-11-2", "rs-7-3-2"])
def test_generator_matches_the_per_codec_construction(make, m, t, poly, build):
    code = make(m=m, t=t, primitive_poly=poly)
    want = build(GF2m(m, poly), t)
    assert code.generator.dtype == want.dtype
    assert np.array_equal(code.generator, want)
    assert code.k == code.n - (len(want) - 1)


def test_rs_bit_interface_with_four_bit_symbols():
    code = ReedSolomonCode(t=2, m=4, primitive_poly=0x13)
    assert (code.n_bits, code.k_bits) == (60, 44)
    rng = np.random.default_rng(12)
    for _ in range(50):
        msg = rng.integers(0, 2, code.k_bits, dtype=np.uint8)
        cw = code.encode_bits(msg)
        assert cw.shape == (60,) and np.array_equal(cw[16:], msg)
        # bits map to 4-bit symbols MSB first: read so, the word has roots alpha^1..alpha^2t
        syms = cw.reshape(15, 4) @ np.array([8, 4, 2, 1])
        ref = ref_field(code.field)
        assert not any(ref.poly_eval(syms, ref.pow_alpha(j)) for j in range(1, 2 * code.t + 1))
        rx = cw.copy()
        for s in rng.choice(code.n, code.t, replace=False):
            rx[4 * s + rng.choice(4, rng.integers(1, 5), replace=False)] ^= 1
        assert np.array_equal(code.decode_bits(rx), msg)


def _outcome_digest(code, weights, symbol_max, per_weight, seed):
    """SHA-256 over decode outcomes (message bytes, or b"None") of a corpus."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for weight in weights:
        for _ in range(per_weight):
            if symbol_max == 1:
                cw = encode_symbols(code, rng.integers(0, 2, code.k, dtype=np.uint8))
            else:
                cw = encode_symbols(code, rng.integers(0, symbol_max + 1, code.k))
            got = decode_symbols(code, _corrupt(code, cw, weight, rng, symbol_max))
            h.update(b"None" if got is None else np.asarray(got, np.uint8).tobytes())
    return h.hexdigest()


# Digests produced by running _outcome_digest, unchanged, against the
# per-codec decoders of commit 0c911b8 (the RS LFSR encoder and the BCH
# bit-flip decoder that the shared core replaced).
@pytest.mark.parametrize("code,symbol_max,digest", [
    (BchCode(), 1, "2f6cc7e4a3fa28135c31c3f0b298325ded96f8e48ba585eac3b0a8a570402554"),
    (ReedSolomonCode(), 255, "a5913f1f5a4a7a491faaa9feea738cf48d2a453eb3b0425695e2af325d86f368"),
], ids=["bch-127-36-15", "rs-255-223-16"])
def test_full_size_decode_outcomes_are_pinned(code, symbol_max, digest):
    weights = range(code.t - 2, code.t + 6)
    assert _outcome_digest(code, weights, symbol_max, 40, seed=13) == digest


def _word_with(n, index, value, dtype=np.int64):
    """n zeros of dtype with `value` at `index`."""
    word = np.zeros(n, dtype=dtype)
    word[index] = value
    return word


BCH, RS = BchCode(), ReedSolomonCode()


# Each input is checked for its length and its value range [0, 2^width)
# before any cast: none may index past a table, wrap, or share a digest.
@pytest.mark.parametrize("call", [
    lambda: RS.decode(_word_with(2040, 7, 256)),
    lambda: RS.decode(_word_with(2040, 7, -1)),
    lambda: RS.decode_bits(_word_with(2040, 5, 2, np.uint8)),
    lambda: RS.syndromes(_word_with(2040, 0, 300)),
    lambda: RS.encode(_word_with(1784, 0, 256)),
    lambda: BCH.syndromes(np.zeros(200, np.uint8)),
    lambda: BCH.syndromes(np.zeros(100, np.uint8)),
    lambda: BCH.decode(_word_with(127, 9, 256)),
    lambda: BCH.encode_bits(np.zeros(36)),
    lambda: compose_response(np.full(127, 2), np.zeros(OUTER_CHALLENGE_BITS, np.uint8), 127),
    lambda: compose_response(np.zeros(127, np.uint8), _word_with(OUTER_CHALLENGE_BITS, 0, 2), 127),
], ids=["rs-decode-256", "rs-decode-negative", "rs-decode-bits-2", "rs-syndromes-300",
        "rs-encode-256", "bch-syndromes-200-bits", "bch-syndromes-100-bits",
        "bch-decode-int64-256", "bch-encode-float", "hash-r2-of-2s", "hash-outer-2"])
def test_out_of_range_codec_and_hash_inputs_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


# Outcomes of CENSUS_WORDS seeded words at each weight t+1 .. t+5, as
# {weight: (failures, miscorrections)}. Beyond t the sent message is out of
# reach of a bounded-distance decoder, so any message it returns is a
# miscorrection. The expected miscorrection rates (McEliece & Swanson, IEEE
# Trans. IT 32(5), 1986) are about 2^36 V(127,15) / 2^127 = 5e-9 for BCH and
# 1/16! = 5e-14 for RS, so a few hundred words should all fail.
CENSUS_WORDS = 200


@pytest.mark.parametrize("code,symbol_max,census", [
    (BCH, 1, {16: (200, 0), 17: (200, 0), 18: (200, 0), 19: (200, 0), 20: (200, 0)}),
    (RS, 255, {17: (200, 0), 18: (200, 0), 19: (200, 0), 20: (200, 0), 21: (200, 0)}),
], ids=["bch-127-36-15", "rs-255-223-16"])
def test_failure_census_beyond_t(code, symbol_max, census):
    got = {}
    for weight in range(code.t + 1, code.t + 6):
        rng = stream("census-" + code.family, weight)
        failures = miscorrections = 0
        for _ in range(CENSUS_WORDS):
            msg = rng.integers(0, symbol_max + 1, code.k)
            out = decode_symbols(code, _corrupt(code, encode_symbols(code, msg), weight, rng, symbol_max))
            if out is None:
                failures += 1
            else:
                assert not np.array_equal(out, msg)  # the nearest codeword is another one
                miscorrections += 1
        got[weight] = (failures, miscorrections)
    assert got == census


# Every error pattern of each weight beyond t on a small code, as {weight:
# (miscorrected, patterns)}. The codes are linear, so patterns on the zero
# codeword stand for every codeword; a pattern the decoder does not
# miscorrect fails. Here, unlike on the default codes, miscorrection is
# common: a decoding sphere of radius t covers much of the space.
@pytest.mark.parametrize("code,counts", [
    (BchCode(m=4, t=3, primitive_poly=0x13),
     {4: (525, 1365), 5: (1155, 3003), 6: (3045, 5005), 7: (3915, 6435)}),
    (BchCode(m=4, t=2, primitive_poly=0x13), {3: (180, 455), 4: (540, 1365)}),
], ids=["bch-15-5-3", "bch-15-7-2"])
def test_exhaustive_miscorrection_counts_beyond_t(code, counts):
    got = {}
    for weight in counts:
        miscorrected = patterns = 0
        for pos in itertools.combinations(range(code.n), weight):
            rx = np.zeros(code.n, dtype=np.uint8)
            rx[list(pos)] = 1
            out = code.decode(rx)
            if out is not None:
                assert out.any()  # the zero message lies weight > t away
                miscorrected += 1
            patterns += 1
        got[weight] = (miscorrected, patterns)
    assert got == counts


@pytest.mark.parametrize("code,symbol_max", [(BCH, 1), (RS, 255)],
                         ids=["bch-127-36-15", "rs-255-223-16"])
@pytest.mark.parametrize("weight", [0, 3], ids=["clean", "errored"])
def test_one_public_syndrome_call_per_decode(code, symbol_max, weight, monkeypatch):
    calls = []
    public = code.syndromes
    monkeypatch.setattr(code, "syndromes", lambda rx: calls.append(1) or public(rx))
    rng = stream("syndrome-calls", weight)
    msg = rng.integers(0, symbol_max + 1, code.k)
    out = decode_symbols(code, _corrupt(code, encode_symbols(code, msg), weight, rng, symbol_max))
    assert np.array_equal(out, msg) and len(calls) == 1


_ENCODER_CODES = [
    BCH, BchCode(m=4, t=3, primitive_poly=0x13), BchCode(m=4, t=2, primitive_poly=0x13),
    BchCode(m=5, t=3, primitive_poly=0x25), RS, ReedSolomonCode(t=2, m=4, primitive_poly=0x13),
    ReedSolomonCode(t=4, m=5, primitive_poly=0x25),  # k*s = 115 bits: a part-full last slice
]


def _encoder_digest(code):
    """SHA-256 over the dtype and bytes of every codeword of a fixed corpus:
    encode_bits of 200 seeded, the all-zero, the all-one and every single-bit
    message, then encode of 200 seeded symbol messages, each codeword read
    back as uint8 bits (BCH) or int64 symbols (RS)."""
    rng = np.random.default_rng(16)
    k = code.k_bits
    msgs = [np.zeros(k, np.uint8), np.ones(k, np.uint8), *np.eye(k, dtype=np.uint8),
            *rng.integers(0, 2, (200, k), dtype=np.uint8)]
    words = [code.encode_bits(msg) for msg in msgs]
    for _ in range(200):
        word = code.encode(symbols_to_bits(rng.integers(0, 1 << code.s, code.k), code.s))
        words.append(word if code.s == 1 else bits_to_symbols(word, code.s))
    h = hashlib.sha256()
    for word in words:
        h.update(word.dtype.str.encode() + word.tobytes())
    return h.hexdigest()


# Digests produced by running _encoder_digest, unchanged, against the float32
# parity-matrix encoder of commit 7f3e2ce, which the slice table replaced.
@pytest.mark.parametrize("code,digest", zip(_ENCODER_CODES, [
    "b3acf7567a903a33dde001d7cf5b3b65b96e5557473cb4c26677da63abe7ca0d",
    "120e10e32b18f43ca8262f405bbe91133bc291cc100e3403213a63548334b602",
    "5140e26440b86200189898896a06e4af68949103e8351e91c3e867141525a6a2",
    "1beda6e84bfd0798bec19c2bc3c2ab5bbbca3be023bd989de1f44ef7c09da6f4",
    "e54e8e48e36c4e5ceb70e1378b58a720ca181abe4422da0d9869bbf578683794",
    "cd03d8f2679c3dd2eeb4a600cde539b476bae8b04913dbb58fbe62ed4dcd65dd",
    "707de26583dfa45ed71200620cdc6435dc0aa0de8116659d4a0727699c0e411d",
]), ids=lambda c: getattr(c, "code_id", None))
def test_encoder_outputs_are_pinned(code, digest):
    assert _encoder_digest(code) == digest


def test_parity_table_is_read_only_shared_and_small():
    """The parity, syndrome and Chien tables of each default code: read-only,
    one object for two codes with equal parameters, at most 256 KiB each,
    after a decode that grows the Chien map to its longest polynomial."""
    for make, symbol_max in [(BchCode, 1), (ReedSolomonCode, 255)]:
        a, b = make(), make()
        rng = stream("slice-tables", symbol_max)
        msg = rng.integers(0, symbol_max + 1, a.k)
        rx = _corrupt(a, encode_symbols(b, msg), a.t, rng, symbol_max)
        assert np.array_equal(decode_symbols(a, rx), msg)
        key = (a.field.m, a.field.primitive_poly)
        chien = galois._chien_maps[key]
        b.field.chien([1, 1])  # another field object, a shorter polynomial: the same map
        assert b.field is not a.field and galois._chien_maps[key] is chien
        assert a._parity is b._parity and a._syndrome_map is b._syndrome_map
        for table in (a._parity.table, a._syndrome_map.table, chien.table):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0
            assert table.nbytes <= 256 * 1024


def _scalar_syndromes(code, word):
    """rx(alpha^j) for j = 1..2t by Horner's rule on carry-less products."""
    m, poly = code.field.m, code.field.primitive_poly
    out, x = [], 1
    for _ in range(2 * code.t):
        x = clmul_mod(x, 2, poly, m)
        acc = 0
        for c in reversed(word.tolist()):
            acc = clmul_mod(acc, x, poly, m) ^ c
        out.append(acc)
    return out


# Fields wider than a byte: each value spans two bytes in the slice maps.
@pytest.mark.parametrize("code,symbol_max", [
    (BchCode(m=9, t=5, primitive_poly=0x211), 1),
    (ReedSolomonCode(t=4, m=9, primitive_poly=0x211), 511),
    (BchCode(m=10, t=8, primitive_poly=0x409), 1),
], ids=["bch-511-466-5", "rs-511-503-4", "bch-1023-943-8"])
def test_wide_field_codes_decode_to_scalar_codewords(code, symbol_max):
    """t errors round-trip; at t+1 and t+2 a decode fails or returns a codeword
    within t of the word. Syndromes are checked against the scalar reference."""
    rng = stream("wide-field", code.n)
    for weight in (code.t, code.t, code.t + 1, code.t + 2):
        msg = rng.integers(0, symbol_max + 1, code.k)
        rx = _corrupt(code, encode_symbols(code, msg), weight, rng, symbol_max)
        assert code.syndromes(symbols_to_bits(rx, code.s)).tolist() == _scalar_syndromes(code, rx)
        got = decode_symbols(code, rx)
        if weight == code.t:
            assert np.array_equal(got, msg)
        elif got is not None:
            cw = encode_symbols(code, got)
            assert not any(_scalar_syndromes(code, cw)) and np.count_nonzero(cw != rx) <= code.t


def test_byte_symbol_conversions_match_the_shift_formula():
    syms = np.arange(256)
    want = ((syms[:, None] >> np.arange(7, -1, -1)) & 1).astype(np.uint8).ravel()
    got = RS._bits(syms)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    rng = np.random.default_rng(8)
    nibbles = ReedSolomonCode(t=2, m=4, primitive_poly=0x13)  # the general path of _bits
    for code in (RS, nibbles):
        for _ in range(50):
            word = rng.integers(0, 1 << code.s, code.n)
            bits = code._bits(word)
            assert bits.dtype == np.uint8 and np.array_equal(bits, symbols_to_bits(word, code.s))
            assert np.array_equal(bits_to_symbols(bits, code.s), word)


@pytest.mark.parametrize("cls", [BchCode, ReedSolomonCode])
def test_each_codec_takes_bits_and_aliases_its_bit_entry_points(cls):
    """encode_bits and decode_bits are the class's own encode and decode, which
    take and return bit vectors; the family defines no second pair."""
    own = vars(cls)
    assert own["encode_bits"] is own["encode"] and own["decode_bits"] is own["decode"]
    assert not {"encode_bits", "decode_bits", "_symbols"} & set(vars(galois.SystematicCode))
    code = cls()
    msg = stream("bit-contract", code.s).integers(0, 2, code.k_bits, dtype=np.uint8)
    cw = code.encode(msg)
    assert cw.dtype == np.uint8 and cw.shape == (code.n_bits,) and np.array_equal(cw[-code.k_bits:], msg)
    rx = cw.copy()
    rx[:: code.n_bits // code.t + 1] ^= 1  # at most one flipped bit in each of t symbols
    got = code.decode(rx)
    assert got.dtype == np.uint8 and np.array_equal(got, msg)
    assert code.syndromes(cw).shape == (2 * code.t,) and not code.syndromes(cw).any()
