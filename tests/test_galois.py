import sys
import tracemalloc

import numpy as np
import pytest

from risecure import galois
from risecure.bch import BchCode
from risecure.galois import GF2m, SliceMap, berlekamp_massey, locator_roots
from risecure.prng import stream
from risecure.reed_solomon import ReedSolomonCode

from gf_ref import clmul_mod, encode_symbols, ref_field, symbols_to_bits


@pytest.mark.parametrize("m,poly", [(4, 0x13), (7, 0x89), (8, 0x11D)])
def test_field_mul_matches_carryless_reference(m, poly):
    gf = GF2m(m, poly)
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = int(rng.integers(0, gf.order))
        b = int(rng.integers(0, gf.order))
        product = gf.exp[(gf.log[a] + gf.log[b]) % (gf.order - 1)] if a and b else 0
        assert product == clmul_mod(a, b, poly, m)


def test_field_axioms_small_field_exhaustive():
    gf = ref_field(GF2m(4, 0x13))
    els = range(16)
    for a in els:
        for b in els:
            assert gf.mul(a, b) == gf.mul(b, a)
            if b:
                assert gf.mul(gf.div(a, b), b) == a
    for a in range(1, 16):
        assert gf.mul(a, gf.inv(a)) == 1
        # distributivity against a fixed probe
        for b in els:
            assert gf.mul(a, b ^ 5) == gf.mul(a, b) ^ gf.mul(a, 5)


def test_exp_log_roundtrip():
    gf = GF2m(8, 0x11D)
    for v in range(1, 256):
        assert gf.exp[gf.log[v]] == v


def test_nonprimitive_poly_rejected():
    # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1, so its root has order 5
    with pytest.raises(ValueError):
        GF2m(4, 0x1F)


@pytest.mark.parametrize("call,name", [
    (lambda: GF2m(0, 1), "m"),
    (lambda: GF2m(2.0, 7), "m"),
    (lambda: GF2m(17, 0x2002D), "m"),
    (lambda: GF2m(7, 0x9), "primitive_poly"),
    (lambda: GF2m(7, 1.5), "primitive_poly"),
    (lambda: BchCode(t=0), "t"),
    (lambda: BchCode(t=64), "t"),
    (lambda: BchCode(m=True), "m"),
    (lambda: ReedSolomonCode(t=1.5), "t"),
    (lambda: ReedSolomonCode(t=128), "t"),
], ids=["m-zero", "m-float", "m-wide", "poly-degree", "poly-float", "bch-t-zero",
        "bch-t-no-message", "bch-m-bool", "rs-t-float", "rs-t-no-message"])
def test_codec_parameters_raise_value_error_naming_them(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def test_largest_t_leaves_one_message_symbol():
    assert BchCode(t=63).k == 1 and ReedSolomonCode(t=127).k == 1


# a primitive polynomial of each degree m the field accepts
PRIMITIVE = {2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x89, 8: 0x11D, 9: 0x211,
             10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B, 14: 0x4443, 15: 0x8003, 16: 0x1100B}


@pytest.mark.parametrize("make,m,t", [
    *((make, m, ((1 << m) - 1) // 2) for m in range(2, 17) for make in (BchCode, ReedSolomonCode)),
    (ReedSolomonCode, 16, 8), (ReedSolomonCode, 10, 511), (ReedSolomonCode, 11, 8),
], ids=lambda v: getattr(v, "family", v))
def test_code_tables_stay_within_the_budget(make, m, t, monkeypatch):
    """A code either builds, and decodes a t-error word, with its parity,
    syndrome and Chien tables inside TABLE_BYTES, or raises ValueError naming
    m and t before it allocates them (a tracemalloc peak under 1 MB). The
    field is built first: its own tables are no part of a code's."""
    field = GF2m(m, PRIMITIVE[m])
    monkeypatch.setattr(sys.modules[make.__module__], "GF2m", lambda *args: field)
    monkeypatch.setattr(galois.SystematicCode, "_maps", {})  # fresh tables, dropped after the test
    monkeypatch.setattr(galois, "_chien_maps", {})
    tracemalloc.start()
    try:
        code = make(m=m, t=t, primitive_poly=PRIMITIVE[m])
    except ValueError as exc:
        assert f"m={m}, t={t}:" in str(exc)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
        return
    finally:
        tracemalloc.stop()
    assert (m, t) not in [(16, 8), (10, 511)]  # 384 MiB and 208 MiB of tables
    rng = stream("table-budget", m, t)
    msg = rng.integers(0, 2, code.k_bits, dtype=np.uint8)
    rx = code.encode(msg)
    rx[code.s * rng.choice(code.n, t, replace=False) + rng.integers(0, code.s, t)] ^= 1
    assert np.array_equal(code.decode(rx), msg)
    chien = galois._chien_maps[(m, PRIMITIVE[m])]
    assert sum(map.table.nbytes for map in (code._parity, code._syndrome_map, chien)) <= galois.TABLE_BYTES


@pytest.mark.parametrize("in_bits,out_bytes", [(1, 1), (8, 8), (9, 9), (13, 3), (127, 32), (2040, 17)])
def test_slice_table_bytes_are_known_before_the_table_is_built(in_bits, out_bytes):
    rows = np.zeros((in_bits, out_bytes), dtype=np.uint8)
    assert SliceMap(rows).table.nbytes == SliceMap.nbytes(in_bits, out_bytes)


def test_poly_mul_matches_scalar():
    gf = GF2m(7, 0x89)
    ref = ref_field(gf)
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.integers(0, 128, int(rng.integers(1, 12)))
        q = rng.integers(0, 128, int(rng.integers(1, 12)))
        want = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                want[i + j] ^= ref.mul(int(a), int(b))
        assert np.array_equal(gf.poly_mul(p, q), want)


def test_chien_map_matches_scalar(monkeypatch):
    """poly(alpha^-p) at every p in [0, q-1) against Horner's rule, for a
    short polynomial and then a longer one, which grows the shared map."""
    monkeypatch.setattr(galois, "_chien_maps", {})
    rng = np.random.default_rng(5)
    for m, poly in [(4, 0x13), (7, 0x89), (8, 0x11D)]:
        gf = GF2m(m, poly)
        ref = ref_field(gf)
        for length in (3, 11):
            p = rng.integers(0, gf.order, length)
            want = [ref.poly_eval(p, ref.pow_alpha(-i)) for i in range(gf.order - 1)]
            assert gf.chien(p).tolist() == want
            assert len(galois._chien_maps[(m, poly)].starts) == 2 * length  # a byte a term


def lfsr_generates(field, lam, syndromes, length):
    """Check the connection polynomial actually generates the sequence."""
    field = ref_field(field)
    s = [int(v) for v in syndromes]
    for r in range(length, len(s)):
        acc = 0
        for i in range(1, len(lam)):
            acc ^= field.mul(int(lam[i]), s[r - i])
        if acc != s[r]:
            return False
    return True


def test_berlekamp_massey_reproduces_random_lfsr_sequences():
    gf = GF2m(8, 0x11D)
    ref = ref_field(gf)
    rng = np.random.default_rng(6)
    for _ in range(50):
        length = int(rng.integers(1, 8))
        taps = rng.integers(0, 256, length)
        taps[-1] = max(1, int(taps[-1]))
        seq = list(rng.integers(0, 256, length))
        for r in range(length, 32):
            acc = 0
            for i in range(1, length + 1):
                acc ^= ref.mul(int(taps[i - 1]), seq[r - i])
            seq.append(acc)
        lam, l = berlekamp_massey(gf, seq)
        assert l <= length
        assert lfsr_generates(gf, lam, seq, l)


def test_locator_roots_finds_planted_roots():
    rng = np.random.default_rng(7)
    for m, poly in [(4, 0x13), (7, 0x89), (8, 0x11D)]:
        gf = GF2m(m, poly)
        ref = ref_field(gf)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            pos = rng.choice(gf.order - 1, k, replace=False)
            # Lambda(x) = prod (1 - x * alpha^pos)
            lam = np.array([1], dtype=np.int64)
            for p in pos:
                lam = gf.poly_mul(lam, np.array([1, ref.pow_alpha(int(p))], dtype=np.int64))
            found = locator_roots(gf, lam)
            assert np.array_equal(found, np.sort(pos)), (m, pos)


def textbook_berlekamp_massey(field, syndromes):
    """Massey's algorithm on scalar field products, one step per syndrome:
    the reference that the log-domain loop, and its binary t-step form, match."""
    field = ref_field(field)
    s = [int(v) for v in syndromes]
    n = len(s)
    lam = [1] + [0] * n
    prev = [1] + [0] * n
    l = 0
    shift = 1
    b = 1  # last nonzero discrepancy
    for r in range(n):
        d = s[r]
        for i in range(1, l + 1):
            d ^= field.mul(lam[i], s[r - i])
        if d:
            coef = field.div(d, b)
            nxt = lam[:]
            for i in range(n + 1 - shift):
                nxt[i + shift] ^= field.mul(coef, prev[i])
            if 2 * l <= r:  # L grows
                l, prev, b, shift = r + 1 - l, lam, d, 0
            lam = nxt
        shift += 1
    deg = max(i for i, c in enumerate(lam) if c)
    return np.array(lam[: deg + 1], dtype=np.int64), l


BM_WORDS = 10_000


@pytest.mark.parametrize("code,symbol_max", [
    (BchCode(), 1),
    (BchCode(m=5, t=3, primitive_poly=0x25), 1),
    (ReedSolomonCode(), 255),
], ids=["bch-127-36-15-binary", "bch-31-16-3-binary", "rs-255-223-16-general"])
def test_berlekamp_massey_matches_the_textbook_loop_on_received_words(code, symbol_max):
    """BM_WORDS seeded received words at error weights 0 .. t+3: the binary
    route for BCH and the general route for RS give the textbook (Lambda, L)."""
    rng = np.random.default_rng(31)
    for k in range(BM_WORDS):
        weight = k % (code.t + 4)
        rx = encode_symbols(code, rng.integers(0, symbol_max + 1, code.k).astype(np.uint8))
        pos = rng.choice(code.n, weight, replace=False)
        rx[pos] ^= rng.integers(1, symbol_max + 1, weight).astype(rx.dtype)
        synd = code.syndromes(symbols_to_bits(rx, code.s))
        lam, l = berlekamp_massey(code.field, synd, binary=symbol_max == 1)
        want, want_l = textbook_berlekamp_massey(code.field, synd)
        assert l == want_l and np.array_equal(lam, want), (k, weight)


def test_berlekamp_massey_matches_the_textbook_loop_on_arbitrary_sequences():
    """Sequences over GF(2^8) that are no binary word's syndromes, on the general route."""
    gf = GF2m(8, 0x11D)
    rng = np.random.default_rng(32)
    for k in range(BM_WORDS):
        seq = rng.integers(0, 256, int(rng.integers(1, 33)))
        seq[rng.random(len(seq)) < 0.2] = 0
        lam, l = berlekamp_massey(gf, seq)
        want, want_l = textbook_berlekamp_massey(gf, seq)
        assert l == want_l and np.array_equal(lam, want), k


# Each value indexes a field table, so one outside [0, 2^m) is an error that
# names its argument, not a wrapped index or a bare IndexError.
@pytest.mark.parametrize("call,name", [
    (lambda gf: berlekamp_massey(gf, [-1, 5, 3, 2]), "syndromes"),
    (lambda gf: berlekamp_massey(gf, [1, 128]), "syndromes"),
    (lambda gf: berlekamp_massey(gf, [1, 128], binary=True), "syndromes"),
    (lambda gf: locator_roots(gf, [1, -3]), "lam"),
    (lambda gf: locator_roots(gf, np.array([1, 128])), "lam"),
], ids=["bm-negative", "bm-wide", "bm-binary-wide", "roots-negative", "roots-wide"])
def test_out_of_field_values_raise_value_error_naming_the_argument(call, name):
    with pytest.raises(ValueError, match=name):
        call(GF2m(7, 0x89))
