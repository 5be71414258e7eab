import numpy as np
import pytest

from risecure.prng import GOLDEN_GAMMA, _domain_hash, _PhiloxKey, derive_seed, splitmix64, stream


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
