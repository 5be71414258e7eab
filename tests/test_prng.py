import sys

import numpy as np
import pytest
import test_codec_core
import test_isa
import test_puf

from risecure import puf, selftest
from risecure.prng import (GOLDEN_GAMMA, _domain_hash, _PhiloxKey, derive_seed, random_bits,
                           random_int63, random_uniforms, splitmix64, stream)


def splitmix64_scalar(state, count):
    """Plain-int reference for the splitmix64 sequence."""
    out = []
    x = state
    for _ in range(count):
        x = (x + GOLDEN_GAMMA) & 0xFFFFFFFFFFFFFFFF
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_reference_vector():
    # first output of the widely published sequence for seed 0
    assert int(splitmix64(0)) == 0xE220A8397B1DCDAF


def test_splitmix64_matches_scalar_reference():
    rng = np.random.default_rng(11)
    for _ in range(20):
        seed = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        ref = splitmix64_scalar(seed, 8)
        idx = np.arange(8, dtype=np.uint64)
        with np.errstate(over="ignore"):
            got = splitmix64(np.uint64(seed) + idx * np.uint64(GOLDEN_GAMMA))
        assert [int(v) for v in got] == ref


def test_splitmix64_leaves_its_input_unchanged_and_takes_scalars():
    x = np.arange(100, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
    before = x.copy()
    out = splitmix64(x)
    assert np.array_equal(x, before) and not np.shares_memory(out, x)
    assert [int(v) for v in out[:3]] == [int(splitmix64(int(v))) for v in x[:3]]
    for zero in (0, np.uint64(0), np.array(0, dtype=np.uint64)):
        assert int(splitmix64(zero)) == 0xE220A8397B1DCDAF  # the selftest's vector


@pytest.mark.parametrize("tag", ["arbiter-noise", "sram-read", "", "x" * 70])
def test_stream_is_the_philox_stream_keyed_by_the_domain_hash(tag):
    """stream() must build exactly Philox(key=<first 16 hash bytes, little-endian>).

    A numpy that seeds Philox from its seed sequence differently would change
    every stream; this fails first.
    """
    for i in range(100):
        seeds = (i, (i * GOLDEN_GAMMA) & (2**64 - 1))[: 1 + i % 2]
        key = int.from_bytes(_domain_hash(tag, seeds)[:16], "little")
        got, ref = stream(tag, *seeds), np.random.Generator(np.random.Philox(key=key))
        np.testing.assert_equal(got.bit_generator.state, ref.bit_generator.state)
        assert np.array_equal(got.standard_normal(9), ref.standard_normal(9))
        assert np.array_equal(got.integers(0, 1 << 63, 9), ref.integers(0, 1 << 63, 9))
        assert np.array_equal(got.random(9), ref.random(9))


@pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (2, np.uint32), (1, np.uint64),
                                           (4, np.uint64), (2, np.int64)])
def test_philox_key_answers_only_the_request_philox_makes(n_words, dtype):
    digest = (1).to_bytes(8, "little") + (2).to_bytes(8, "little") + bytes(16)
    assert np.array_equal(_PhiloxKey(digest).generate_state(2, np.uint64), [1, 2])
    with pytest.raises(RuntimeError, match="Philox asked for"):
        _PhiloxKey(digest).generate_state(n_words, dtype)


def test_stream_is_deterministic():
    a = stream("unit", 1, 2).integers(0, 1 << 32, 16)
    b = stream("unit", 1, 2).integers(0, 1 << 32, 16)
    assert np.array_equal(a, b)


def test_streams_are_domain_separated():
    same_seeds = stream("alpha", 5).integers(0, 1 << 32, 16)
    other_tag = stream("beta", 5).integers(0, 1 << 32, 16)
    other_seed = stream("alpha", 6).integers(0, 1 << 32, 16)
    extra_seed = stream("alpha", 5, 0).integers(0, 1 << 32, 16)
    assert not np.array_equal(same_seeds, other_tag)
    assert not np.array_equal(same_seeds, other_seed)
    assert not np.array_equal(same_seeds, extra_seed)


def test_derive_seed_stable_and_distinct():
    assert derive_seed("child", 1, 2) == derive_seed("child", 1, 2)
    seen = {derive_seed("child", i) for i in range(1000)}
    assert len(seen) == 1000


# every seed of stream and derive_seed is checked where it is hashed; each of
# these stood in for the integer it truncates to
@pytest.mark.parametrize("call", [
    lambda: stream("x", 1.5),
    lambda: stream("x", 1, "2"),
    lambda: derive_seed("x", True),
    lambda: derive_seed("x", 1, np.float64(2.0)),
], ids=["stream-float", "stream-str", "derive-bool", "derive-numpy-float"])
def test_non_integer_seeds_raise_value_error_naming_seed(call):
    with pytest.raises(ValueError, match="seed"):
        call()


def test_integer_seeds_hash_by_their_low_64_bits():
    assert derive_seed("x", np.int64(5), np.uint8(7)) == derive_seed("x", 5, 7)
    assert derive_seed("x", -1) == derive_seed("x", (1 << 64) - 1)
    assert np.array_equal(stream("x", 1 << 64).integers(0, 256, 8), stream("x", 0).integers(0, 256, 8))


def _same_draws(tag, calls):
    """Run each (draw, Generator method, args) pair on two copies of one stream, in order,
    and check that every pair gives equal values of equal dtype; returns the numpy copy."""
    ours, numpys = stream(tag), stream(tag)
    for draw, method, args in calls:
        got, want = draw(ours), getattr(numpys, method)(*args)
        assert np.asarray(got).dtype == np.asarray(want).dtype, (method, args)
        assert np.array_equal(got, want), (method, args)
    return numpys


@pytest.mark.parametrize("shape", [1, 36, 127, 1784, (300, 65), (8, 1024)])
def test_random_bits_is_integers_0_2_uint8(shape):
    # 1784 bits: the RS message an enroll draws; 127: an SRAM block; 36: the BCH message
    _same_draws(f"bits-{shape}", [_bits(shape)])


def _bits(shape):
    """A (random_bits, integers) pair of one bit draw."""
    return (lambda g: random_bits(g, shape), "integers", (0, 2, shape, np.uint8))


def test_calibration_blocks_join_like_one_integers_draw():
    # sample_margins' two blocks of a 100-trial calibration at 64 stages, on one stream
    _same_draws("blocks", [_bits((8192, 64)), _bits((4508, 64))])


def test_scalar_63_bit_draw_after_a_bit_block():
    # and bits after 63-bit draws, as generate_crps draws its c0 and then its challenges
    _same_draws("int63", [_bits((4, 128)), (random_int63, "integers", (0, 1 << 63)),
                          (lambda g: random_int63(g, 5), "integers", (0, 1 << 63, 5)), _bits(128)])


def test_draw_that_ends_mid_word_and_the_64_bit_draws_after_it():
    # 36 bits end in the low half of word 4; numpy keeps its high half for the next 32-bit
    # draw, which no 64-bit draw reads, so uniforms and 63-bit integers still agree
    numpys = _same_draws("mid-word", [_bits(36), (lambda g: random_uniforms(g, 3), "random", (3,)),
                                      (random_int63, "integers", (0, 1 << 63))])
    # numpy's next bit draw reads that kept half, where random_bits starts a new word:
    # no stream of the package draws bits again after a draw that ends mid-word
    word4 = stream("mid-word").bit_generator.random_raw(5)[4:].view(np.uint8)
    assert np.array_equal(numpys.integers(0, 2, 4, np.uint8), word4[4:] >> 7)
    assert random_bits(stream("x"), 0).shape == (0,) and random_uniforms(stream("x"), 0).size == 0


def test_random_uniforms_is_random():
    _same_draws("uniforms", [(lambda g, n=n: random_uniforms(g, n), "random", (n,))
                             for n in (1, 127, 1000)])


class _PackageMayNotCall(np.random.Generator):
    """A Generator whose integers and random raise when the package calls them; the tests'
    own inputs may still use them."""

    def integers(self, *args, **kwargs):
        _refuse_package_caller()
        return super().integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        _refuse_package_caller()
        return super().random(*args, **kwargs)


def _refuse_package_caller():
    caller = sys._getframe(2).f_globals.get("__name__", "")
    if caller.startswith("risecure"):
        raise AssertionError(f"{caller} drew through a Generator variate method")


@pytest.fixture
def package_variates_refused(monkeypatch):
    """stream() builds _PackageMayNotCall generators while the test runs."""
    monkeypatch.setattr(np.random, "Generator", _PackageMayNotCall)
    assert type(stream("x")) is _PackageMayNotCall


def test_refusal_sees_a_package_call(package_variates_refused):
    with pytest.raises(AssertionError, match="risecure.puf drew"):
        puf.SramPuf(1).draw_challenge(stream("x"), 127)  # the one bounded draw left on numpy
    assert stream("x").integers(0, 2) in (0, 1)  # a test's own call is allowed


def test_golden_digests_and_routes_pass_without_integers_or_random(package_variates_refused):
    test_puf.test_arbiter_reads_match_the_recorded_digest()
    for name, seed, want in [("perfbench-arbiter", 1, 0.07406320818637752),
                             ("perfbench-xor", 20261017, 0.031872527783463195)]:
        test_puf.test_calibrated_sigma_is_pinned(name, seed, want)
    test_isa.test_random_programs_reach_the_recorded_final_state()
    for code, digest in zip(test_codec_core._ENCODER_CODES[:2], [
            "b3acf7567a903a33dde001d7cf5b3b65b96e5557473cb4c26677da63abe7ca0d",
            "120e10e32b18f43ca8262f405bbe91133bc291cc100e3403213a63548334b602"]):
        test_codec_core.test_encoder_outputs_are_pinned(code, digest)
    checks = [(name, build, want) for name, build, want in selftest.CHECKS
              if not name.startswith("prng-")]
    assert [name for name, _, _ in checks][:3] == ["splitmix64", "parity-features", "compose-response"]
    for name, build, want in checks:
        assert selftest._digest(build()) == want, name
