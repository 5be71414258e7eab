from collections import deque

import numpy as np
import pytest

from risecure.buffer import LookasideBuffer, sample_with_buffer
from risecure.extractor import enroll, get_code
from risecure.isa import PufDevice
from risecure.prng import stream
from risecure.puf import ArbiterPuf, SramPuf


def test_constructor_validation():
    with pytest.raises(ValueError):
        LookasideBuffer(0)
    buf = LookasideBuffer(4)
    assert buf.capacity == 4 and len(buf) == 0


@pytest.mark.parametrize("capacity", [2.9, 4.0, "8", None, True, np.float64(4), [4]],
                         ids=repr)
def test_capacity_must_be_an_integer(capacity):
    with pytest.raises(ValueError, match="capacity"):
        LookasideBuffer(capacity)
    with pytest.raises(ValueError, match="capacity"):
        PufDevice(get_code("bch"), capacity=capacity)


@pytest.mark.parametrize("capacity", [np.int64(3), np.uint8(3), np.int32(3)], ids=repr)
def test_numpy_integer_capacity_is_accepted(capacity):
    buf = LookasideBuffer(capacity)
    for key in range(5):
        buf.insert(key, key)
    assert buf.capacity == 3 and len(buf) == 3 and buf.evictions == 2


def test_fifo_eviction_order_ignores_hits():
    buf = LookasideBuffer(2)
    buf.insert("a", 1)
    buf.insert("b", 2)
    assert buf.lookup("a") == 1  # hit, but position unchanged under fifo
    buf.insert("c", 3)
    assert buf.lookup("a") is None  # oldest evicted despite recent hit
    assert buf.lookup("b") == 2 and buf.lookup("c") == 3


def test_replace_in_place_keeps_position():
    buf = LookasideBuffer(2)
    buf.insert("a", 1)
    buf.insert("b", 2)
    buf.insert("a", 10)  # update, not reinsertion
    buf.insert("c", 3)
    assert buf.lookup("a") is None  # a still oldest, so still first out
    assert buf.lookup("b") == 2


def test_counters_track_every_event():
    buf = LookasideBuffer(1)
    buf.lookup("x")
    buf.insert("x", 0)
    buf.lookup("x")
    buf.insert("y", 0)  # evicts x
    c = buf.counters()
    assert c == {"hits": 1, "misses": 1, "decode_calls": 0, "evictions": 1}


def test_contents_match_reference_fifo_on_random_trace():
    rng = np.random.default_rng(0)
    for cap in (1, 2, 3, 7):
        buf = LookasideBuffer(cap)
        ref = deque()  # (key, value) in insertion order
        for step in range(2000):
            key = int(rng.integers(0, 12))
            val = step
            hit = buf.lookup(key)
            ref_hit = dict(ref).get(key)
            assert hit == ref_hit
            if hit is None:
                buf.insert(key, val)
                ref.append((key, val))
                if len(ref) > cap:
                    ref.popleft()
            assert list(buf.entries.items()) == list(ref)


def _setup_system(seed, p=0.02):
    puf = SramPuf(seed, p=p)
    code = get_code("bch")
    helper, r1 = enroll(puf, 0, code, rng_seed=seed)
    return puf, code, helper, r1


def test_buffered_sampling_decodes_once_per_key():
    puf, code, helper, r1 = _setup_system(1)
    buf = LookasideBuffer(16)
    outs = [sample_with_buffer(buf, puf, ("dev", 0), helper, code,
                               noise_seed=t) for t in range(16)]
    for o in outs:
        assert np.array_equal(o, r1)
    assert buf.decode_calls == 1 and buf.hits == 15


def test_unbuffered_baseline_matches_buffered_output():
    puf, code, helper, _ = _setup_system(2)
    buf = LookasideBuffer(16)
    for t in range(20):
        a = sample_with_buffer(buf, puf, ("dev", 0), helper, code, noise_seed=t)
        b = sample_with_buffer(None, puf, ("dev", 0), helper, code, noise_seed=t)
        assert np.array_equal(a, b)


def _edit(out):
    """Flip out[:8] in place where the array allows it."""
    try:
        out[:8] ^= 1
    except ValueError:  # read-only
        pass


def test_editing_a_corrected_result_leaves_the_cache_unchanged():
    puf, code, helper, r1 = _setup_system(1)
    buf = LookasideBuffer(4)
    for t in range(3):  # a miss, then hits
        _edit(sample_with_buffer(buf, puf, ("dev", 0), helper, code, noise_seed=t))
        assert np.array_equal(sample_with_buffer(buf, puf, ("dev", 0), helper, code,
                                                 noise_seed=t), r1)
    # an entry seeded at device enrollment
    dev = PufDevice(code, seed=1)
    dev.register(0, puf)
    dev_helper = dev.enroll_idx(0, 0)
    for t in range(2):
        _edit(sample_with_buffer(dev.buffer, puf, (0, 0), dev_helper, code, noise_seed=t))
        assert np.array_equal(sample_with_buffer(dev.buffer, puf, (0, 0), dev_helper, code,
                                                 noise_seed=t), r1)
    assert buf.decode_calls == 1 and dev.buffer.decode_calls == 0


def test_hashed_mode_goes_through_cache_too():
    puf, code, helper, r1 = _setup_system(3)
    outer = stream("t", 0).integers(0, 2, 128, dtype=np.uint8)
    buf = LookasideBuffer(4)
    a = sample_with_buffer(buf, puf, ("dev", 0), helper, code, mode="hashed",
                           outer_challenge=outer, noise_seed=0)
    b = sample_with_buffer(buf, puf, ("dev", 0), helper, code, mode="hashed",
                           outer_challenge=outer, noise_seed=1)
    assert np.array_equal(a, b) and a.shape == (256,)
    assert buf.decode_calls == 1
    with pytest.raises(ValueError):
        sample_with_buffer(buf, puf, ("dev", 0), helper, code, mode="plain")


def test_failed_reconstruction_not_cached():
    puf, code, helper, _ = _setup_system(4, p=0.45)  # hopeless noise level
    buf = LookasideBuffer(8)
    fails = 0
    for t in range(10):
        if sample_with_buffer(buf, puf, ("dev", 0), helper, code, noise_seed=t) is None:
            fails += 1
    assert fails == 10
    assert len(buf) == 0 and buf.decode_calls == 10


def test_helper_must_be_present_and_enrolled_on_the_code():
    puf = ArbiterPuf(5)
    rs_helper, _ = enroll(puf, 0, get_code("rs"), rng_seed=0)
    outer = stream("t", 1).integers(0, 2, 128, dtype=np.uint8)
    buf = LookasideBuffer(4)
    for mode in ("corrected", "hashed"):
        for helper in (rs_helper, None):
            with pytest.raises(ValueError):
                sample_with_buffer(buf, puf, ("dev", 0), helper, get_code("bch"), mode=mode,
                                   outer_challenge=outer)
    assert len(buf) == 0 and buf.decode_calls == 0 and buf.misses == 0
