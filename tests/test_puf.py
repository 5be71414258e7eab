import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from risecure.prng import GOLDEN_GAMMA, derive_seed, splitmix64, stream
from risecure.puf import (TRIAL_BITS, ArbiterPuf, SramPuf, XorArbiterPuf, _byte_sum,
                          _flip_probability, _reliability_above, calibrate_sigma, eval_raw,
                          expand_challenge, measure_reliability, new_puf, parity_features,
                          puf_from_config, puf_to_config, reference_response)


def test_parity_features_contract_examples():
    assert np.array_equal(parity_features(np.zeros(4, dtype=np.uint8)), np.ones(5))
    phi = parity_features(np.array([1, 0, 1, 0], dtype=np.uint8))
    assert np.array_equal(phi, [1, -1, -1, 1, 1])


def test_parity_features_exhaustive_4_stage():
    for c_int in range(16):
        c = np.array([(c_int >> i) & 1 for i in range(4)], dtype=np.uint8)
        phi = parity_features(c)
        for i in range(4):
            assert phi[i] == np.prod([1 - 2 * int(c[j]) for j in range(i, 4)])
        assert phi[4] == 1


def test_parity_features_last_stage_flip_negates_all_but_bias():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.integers(0, 2, 16, dtype=np.uint8)
        c2 = c.copy()
        c2[-1] ^= 1
        a, b = parity_features(c), parity_features(c2)
        assert np.array_equal(a[:16], -b[:16]) and a[16] == b[16] == 1


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        new_puf("sram", 1, {"p": 0.6})
    for kind in ("arbiter", "xor"):
        for sigma in (-0.1, math.inf, math.nan):  # NaN would read noise-free
            with pytest.raises(ValueError, match="sigma must be finite"):
                new_puf(kind, 1, {"sigma": sigma})
    with pytest.raises(ValueError):
        new_puf("arbiter", 1, {"stages": 0})
    with pytest.raises(ValueError):
        new_puf("ringosc", 1, {})


def test_sram_reference_is_deterministic():
    a = SramPuf(1, p=0.0)
    b = SramPuf(1, p=0.0)
    for blk in range(a.num_blocks):
        assert np.array_equal(a.read(blk, 127), b.read(blk, 127))
    assert not np.array_equal(a.read(0, 127), a.read(1, 127))


def test_sram_reference_block_is_built_once_and_read_only():
    warm = SramPuf(4, num_blocks=4, p=0.1)
    ref = warm.read(2, 127)
    assert np.array_equal(ref, stream("sram-ref", 4, 2).integers(0, 2, 127, dtype=np.uint8))
    assert warm.read(2, 127) is ref and not ref.flags.writeable
    with pytest.raises(ValueError):
        ref[0] ^= 1
    for ns in range(5):  # noisy reads over the kept block equal a fresh instance's
        fresh = SramPuf(4, num_blocks=4, p=0.1)
        assert np.array_equal(warm.read(2, 127, noise_seed=ns), fresh.read(2, 127, noise_seed=ns))


def test_sram_zero_noise_fixed_point_exhaustive_blocks():
    puf = SramPuf(7, num_blocks=8, p=0.0)
    for blk in range(8):
        assert np.array_equal(eval_raw(puf, blk, noise_seed=blk, n_bits=127),
                              reference_response(puf, blk, 127))


def test_sram_flip_rate_within_3_sigma_of_binomial():
    puf = SramPuf(3, num_blocks=4, p=0.05)
    trials = 10000
    flips = 0
    ref = reference_response(puf, 2, 127)
    for t in range(trials):
        flips += int(np.sum(eval_raw(puf, 2, noise_seed=t, n_bits=127) != ref))
    n = trials * 127
    sd = np.sqrt(n * 0.05 * 0.95)
    assert abs(flips - n * 0.05) < 3 * sd


@pytest.mark.parametrize("p", [1e-300, 2.0 ** -53, 3 * 2.0 ** -40, 0.01, 0.05, 1 / 3,
                               np.nextafter(0.5, 0.0)])
def test_sram_noise_flips_where_a_uniform_is_below_p(p):
    """A noisy SRAM read flips bit i where Generator.random's value i on the read's stream
    is below p; the read compares raw words w with T = ceil(p 2^53) 2^11 instead, and
    (w >> 11) 2^-53 < p holds at w = T - 1 and fails at w = T."""
    puf = SramPuf(8, num_blocks=2, block_bits=4096, p=p)
    ref = puf.read(1, 4096)
    for noise_seed in range(3):
        want = stream("sram-read", 8, 1, noise_seed).random(4096) < p
        assert np.array_equal(puf.read(1, 4096, noise_seed) ^ ref, want)
    below = int(puf._flip_below)
    assert ((below - 1) >> 11) * 2.0 ** -53 < p <= (below >> 11) * 2.0 ** -53


def test_sram_block_out_of_range():
    puf = SramPuf(1, num_blocks=4)
    with pytest.raises(ValueError):
        eval_raw(puf, 4, noise_seed=0, n_bits=127)
    with pytest.raises(ValueError):
        eval_raw(puf, 0, noise_seed=0, n_bits=128)  # width mismatch


# Every integer parameter takes Python and numpy integers only. A float, a
# string or a bool raises ValueError naming the parameter; each of these
# used to build a truncated instance, read a truncated challenge, or raise a
# bare TypeError.
@pytest.mark.parametrize("call,name", [
    (lambda: SramPuf(1, num_blocks=2.5), "num_blocks"),
    (lambda: SramPuf(1, block_bits=127.9), "block_bits"),
    (lambda: SramPuf(1.5), "seed"),
    (lambda: SramPuf(1, p="0.1"), "probability p"),
    (lambda: ArbiterPuf(1, stages=True), "stage count"),
    (lambda: ArbiterPuf(1, stages=64.7), "stage count"),
    (lambda: ArbiterPuf(1.5), "seed"),
    (lambda: ArbiterPuf(1, sigma="0.1"), "sigma"),
    (lambda: XorArbiterPuf(1, chains=2.5), "chain count"),
    (lambda: XorArbiterPuf(1, stages=64.7), "stage count"),
    (lambda: XorArbiterPuf(1.5), "seed"),
    (lambda: puf_from_config({"version": 1, "kind": "sram", "seed": 1.5}), "seed"),
    (lambda: eval_raw(ArbiterPuf(1), 1.5, 0, 127), "c0"),
    (lambda: eval_raw(SramPuf(1), 1.5, 0, 127), "c0"),
    (lambda: eval_raw(ArbiterPuf(1), 1, 0, -1), "n_bits"),
    (lambda: eval_raw(ArbiterPuf(1), 1, 0, 127.0), "n_bits"),
    (lambda: eval_raw(SramPuf(1), 1, 0, 127.0), "n_bits"),
    (lambda: reference_response(ArbiterPuf(1), True, 127), "c0"),
    (lambda: eval_raw(ArbiterPuf(1, sigma=0.1), 1, 1.5, 127), "noise_seed"),
    (lambda: eval_raw(SramPuf(1), 1, 1.5, 127), "noise_seed"),
    (lambda: ArbiterPuf(1, stages=4, sigma=0.5).eval_bits(np.zeros((2, 4), np.uint8), 1.5),
     "noise_seed"),
    (lambda: expand_challenge(5, -1), "count"),
    (lambda: expand_challenge(5, 2.5), "count"),
    (lambda: expand_challenge(5, 2, stages=64.0), "stages"),
    (lambda: calibrate_sigma(ArbiterPuf(1), 0.9, trials=1.5), "trials"),
    (lambda: calibrate_sigma(ArbiterPuf(1), 0.9, trials=1, seed=1.5), "seed"),
    (lambda: calibrate_sigma(ArbiterPuf(1), "0.9"), "target reliability"),
    (lambda: measure_reliability(SramPuf(1), 1000.5, seed=0), "trials"),
    (lambda: measure_reliability(SramPuf(1), 1000, seed=0.5), "seed"),
], ids=["sram-num-blocks", "sram-block-bits", "sram-seed", "sram-p-str", "arbiter-stages-bool",
        "arbiter-stages-float", "arbiter-seed", "arbiter-sigma-str", "xor-chains", "xor-stages",
        "xor-seed", "config-seed", "arbiter-c0", "sram-c0", "arbiter-n-bits-negative",
        "arbiter-n-bits-float", "sram-n-bits-float", "reference-c0-bool", "arbiter-noise-seed",
        "sram-noise-seed", "eval-bits-noise-seed", "expand-count-negative", "expand-count-float",
        "expand-stages-float", "calibrate-trials",
        "calibrate-seed", "calibrate-target-str", "reliability-trials", "reliability-seed"])
def test_non_integer_parameters_raise_value_error_naming_them(call, name):
    with pytest.raises(ValueError, match=name):
        call()


# Every real parameter takes Python and numpy reals only: a bool is not a
# number here. Each of these used to read True as 1.0 and False as 0.0.
@pytest.mark.parametrize("call,name", [
    (lambda: ArbiterPuf(1, sigma=True), "sigma"),
    (lambda: ArbiterPuf(1, sigma=np.bool_(True)), "sigma"),
    (lambda: XorArbiterPuf(1, sigma=True), "sigma"),
    (lambda: SramPuf(1, p=False), "probability p"),
    (lambda: SramPuf(1, p=np.bool_(False)), "probability p"),
    (lambda: calibrate_sigma(ArbiterPuf(1), True, trials=10), "target reliability"),
    (lambda: puf_from_config(json.loads(
        '{"version": 1, "kind": "arbiter", "seed": 1, "params": {"sigma": true}}')), "sigma"),
], ids=["arbiter-sigma", "arbiter-sigma-numpy", "xor-sigma", "sram-p", "sram-p-numpy",
        "calibrate-target", "json-sigma"])
def test_bool_reals_raise_value_error_naming_them(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def test_numpy_reals_read_like_python_floats():
    assert np.array_equal(ArbiterPuf(1, sigma=np.float32(0.25)).read(3, 127, 4),
                          ArbiterPuf(1, sigma=0.25).read(3, 127, 4))
    assert SramPuf(1, p=np.float64(0.1)).p == 0.1


def test_numpy_integer_parameters_read_like_python_ints():
    i = np.int64
    sram = SramPuf(i(1), num_blocks=np.int32(4), block_bits=np.uint16(127))
    assert puf_to_config(sram) == puf_to_config(SramPuf(1, num_blocks=4))
    assert np.array_equal(eval_raw(sram, np.uint8(3), 0, i(127)),
                          eval_raw(SramPuf(1, num_blocks=4), 3, 0, 127))
    xor = XorArbiterPuf(i(2), stages=i(32), chains=np.uint8(3), sigma=0.2)
    same = XorArbiterPuf(2, stages=32, chains=3, sigma=0.2)
    assert puf_to_config(xor) == puf_to_config(same)
    assert np.array_equal(eval_raw(xor, np.uint64(1 << 63), i(4), i(255)),
                          eval_raw(same, 1 << 63, 4, 255))


def test_arbiter_noiseless_repeatable():
    puf = ArbiterPuf(7, stages=64, sigma=0.0)
    c = stream("t", 1).integers(0, 2, (10, 64), dtype=np.uint8)
    assert np.array_equal(puf.eval_bits(c, 5), puf.eval_bits(c, 6))


def test_arbiter_bit_matches_independent_dot_product():
    # re-derive the response from scratch: weights dotted with the parity
    # transform, no shared code path beyond the weight draw
    puf = ArbiterPuf(42, stages=64, sigma=0.0)
    c0 = np.zeros(64, dtype=np.uint8)
    assert puf.eval_bits(c0[None, :])[0] == int(np.sum(puf.weights) > 0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        c = rng.integers(0, 2, 64, dtype=np.uint8)
        signs = 1.0 - 2.0 * c.astype(np.float64)
        acc = 0.0
        for i in range(64):
            acc += puf.weights[i] * np.prod(signs[i:])
        acc += puf.weights[64]
        assert puf.eval_bits(c[None, :])[0] == int(acc > 0)


def test_xor_of_identical_chains_is_zero():
    a = ArbiterPuf(5, stages=16, sigma=0.0)
    c = stream("t", 3).integers(0, 2, (40, 16), dtype=np.uint8)
    assert not np.any(a.eval_bits(c, None) ^ a.eval_bits(c, None))


def test_xor_puf_is_xor_of_its_chains():
    puf = XorArbiterPuf(11, stages=64, chains=4, sigma=0.0)
    c = stream("t", 4).integers(0, 2, (50, 64), dtype=np.uint8)
    manual = np.zeros(50, dtype=np.uint8)
    for chain in puf.chains:
        manual ^= chain.eval_bits(c, None)
    assert np.array_equal(puf.eval_bits(c, None), manual)


@pytest.mark.parametrize("n_bits", [127, 2040])
def test_noisy_xor_read_is_xor_of_its_chains_noisy_reads(n_bits):
    puf = XorArbiterPuf(11, stages=64, chains=4, sigma=0.3)
    for c0, noise_seed in ((0, 0), (0x0123456789ABCDEF, 7), ((1 << 64) - 1, 2**63)):
        manual = np.zeros(n_bits, dtype=np.uint8)
        for chain in puf.chains:
            manual ^= chain.read(c0, n_bits, noise_seed)
        assert np.array_equal(puf.read(c0, n_bits, noise_seed), manual)


def test_xor_margins_are_the_column_stack_of_its_chains_margins():
    puf = XorArbiterPuf(12, stages=64, chains=4)
    c = stream("t", 5).integers(0, 2, (300, 64), dtype=np.uint8)
    stacked = np.column_stack([chain.margins(c) for chain in puf.chains])
    assert np.array_equal(puf.margins(c), stacked)
    assert "chains" not in vars(puf)  # built on access: each weight row is stored once
    for k, chain in enumerate(puf.chains):  # chain k is slice k of the stacked table
        assert np.array_equal(chain._table[:, 0], puf._table[:, k])


@pytest.mark.parametrize("stages,chains", [(64, 64), (1024, 3), (1000, 64)])
def test_margins_gathered_in_blocks_are_the_row_sums(stages, chains):
    """Past the gather budget, the blocked margins equal each chain's table row sum plus bias."""
    puf = XorArbiterPuf(16, stages=stages, chains=chains)
    c = stream("blocks", stages).integers(0, 2, (300, stages), dtype=np.uint8)
    parity_bytes = puf.features(c).view(np.uint8)[:, :len(puf._table)]
    # (chains, N, bytes), contiguous, so each row is summed as numpy sums a row
    entries = np.ascontiguousarray(puf._table.transpose(1, 0, 2)[:, np.arange(len(puf._table)),
                                                                 parity_bytes])
    assert np.array_equal(puf.margins(c), (entries.sum(axis=-1) + puf._bias).T)


def test_wide_xor_read_holds_a_bounded_gather_buffer():
    """A 2040-bit read at 1024 stages and 64 chains gathers 128 x 64 x 2040 entries in all,
    134 MB as one buffer; blocked, the read's peak stays a few MB."""
    puf = XorArbiterPuf(17, stages=1024, chains=64, sigma=0.1)
    tracemalloc.start()
    try:
        puf.read(5, 2040, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MB"


def test_wide_calibration_draws_its_challenges_in_blocks():
    """100 trials at 1024 stages draw 12,700 challenges, 13 MB as one bit
    matrix; drawn block by block, calibration's peak stays a few MB."""
    puf = ArbiterPuf(1, stages=1024)
    tracemalloc.start()
    try:
        calibrate_sigma(puf, 0.99, trials=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("width,rows", [(8, 10**5)] + [(w, 300) for w in range(1, 129) if w != 8])
def test_byte_sum_is_numpy_row_sum_bit_for_bit(width, rows):
    """The in-place pairwise order equals np.sum(axis=1) on every row of every table width.

    The exponents spread over 2^-20..2^20, so a different order of the adds
    (left to right, say) rounds differently on many rows.
    """
    g = stream("byte-sum", width)
    table = g.standard_normal((rows, width)) * 2.0 ** g.integers(-20, 21, (rows, width))
    got = _byte_sum(np.ascontiguousarray(table.T)[:, None])[0]
    assert np.array_equal(got, table.sum(axis=1)), (
        f"numpy {np.__version__} sums a {width}-element row in another order")
    if width == 8:
        left_to_right = table[:, 0].copy()
        for k in range(1, 8):
            left_to_right += table[:, k]
        assert not np.array_equal(left_to_right, got)  # the rows tell orders apart


def test_challenge_expansion_is_splitmix_sequence():
    c0 = 0xDEADBEEF
    bits = expand_challenge(c0, 4, 64)
    for i in range(4):
        with np.errstate(over="ignore"):
            word = int(splitmix64(np.uint64(c0) + np.uint64((i + 1) * GOLDEN_GAMMA & (2**64 - 1))))
        expected = [(word >> j) & 1 for j in range(64)]
        assert list(bits[i]) == expected


def test_expansion_handles_non_64_stage_widths():
    bits = expand_challenge(1, 10, 48)
    assert bits.shape == (10, 48)
    bits2 = expand_challenge(1, 3, 100)
    assert bits2.shape == (3, 100)


def _cumprod_features(c):
    """The parity map straight from its definition: a reversed cumulative product of signs."""
    signs = 1.0 - 2.0 * np.atleast_2d(c).astype(np.float64)
    phi = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([phi, np.ones((len(phi), 1))], axis=1)


@pytest.mark.parametrize("stages", [0, 1, 2, 7, 63, 64, 65, 127, 128, 1024])
def test_parity_features_match_cumprod_oracle(stages):
    c = stream("parity-oracle", stages).integers(0, 2, (40, stages), dtype=np.uint8)
    c[0] = 0
    c[1] = 1
    phi = parity_features(c)
    assert phi.dtype == np.float64 and np.array_equal(phi, _cumprod_features(c))
    one = parity_features(c[5])
    assert one.shape == (stages + 1,) and np.array_equal(one, _cumprod_features(c[5])[0])


@pytest.mark.parametrize("stages", [1, 7, 48, 63, 65, 100, 129, 1024])
def test_expand_challenge_matches_shift_and_mask_oracle(stages):
    c0, count = 0x0123456789ABCDEF, 6
    words_per = -(-stages // 64)
    bits = expand_challenge(c0, count, stages)
    assert bits.shape == (count, stages) and bits.dtype == np.uint8
    for i in range(count):
        row = []
        for j in range(words_per):
            k = i * words_per + j + 1
            with np.errstate(over="ignore"):
                word = int(splitmix64(np.uint64(c0) + np.uint64(k * GOLDEN_GAMMA & (2**64 - 1))))
            row += [(word >> b) & 1 for b in range(64)]
        assert list(bits[i]) == row[:stages]


def _read_digest():
    h = hashlib.sha256()
    for kind, extra in (("arbiter", {}), ("xor", {"chains": 3})):
        for stages in (1, 63, 64, 65, 1024):
            puf = new_puf(kind, 1000 + stages, {"stages": stages, "sigma": 0.4, **extra})
            for n_bits in (127, 2040):
                for c0 in (0, 1, (1 << 64) - 1, 0x0123456789ABCDEF):
                    h.update(puf.read(c0, n_bits).tobytes())
                    h.update(puf.read(c0, n_bits, noise_seed=c0 % 1000 + n_bits).tobytes())
            c = stream("golden-batch", stages).integers(0, 2, (300, stages), dtype=np.uint8)
            h.update(puf.eval_bits(c).tobytes())
            h.update(puf.eval_bits(c, 9).tobytes())
            h.update(puf.eval_bits(c[:1], 10).tobytes())
    return h.hexdigest()


def test_arbiter_reads_match_the_recorded_digest():
    """Reference and noisy reads of both arbiter kinds give the bits the float-feature path gave.

    The digest was recorded with the read path that built parity features as
    a float cumprod and took margins as a dot product with the weights.
    """
    assert _read_digest() == "130e161f921345781256829b7cfdf5af51078df83de6054248d2ded4406dfd3e"


def test_weights_are_read_only_and_match_the_margin_table():
    puf = ArbiterPuf(3, stages=65)
    c = stream("t", 12).integers(0, 2, (50, 65), dtype=np.uint8)
    before = puf.margins(c)
    assert np.allclose(before, _cumprod_features(c) @ puf.weights)
    assert np.array_equal(puf.eval_bits(c), (before > 0).astype(np.uint8))
    with pytest.raises(AttributeError):  # no setter: the seed fixes the weights
        puf.weights = -2.0 * puf.weights
    with pytest.raises(ValueError):  # read-only, so the table cannot go stale in place
        puf.weights[0] = 1.0
    assert np.array_equal(puf.margins(c), before)


@pytest.mark.parametrize("make", [
    lambda sigma: ArbiterPuf(14, stages=64, sigma=sigma),
    lambda sigma: XorArbiterPuf(15, stages=64, chains=4, sigma=sigma),
], ids=["arbiter", "xor-4"])
def test_with_sigma_reads_like_a_puf_built_with_that_sigma(make):
    noisy = make(0.0).with_sigma(0.3)
    built = make(0.3)
    assert puf_to_config(noisy) == puf_to_config(built)
    for ns in (None, 0, 1, 2):
        assert np.array_equal(noisy.read(5, 2040, ns), built.read(5, 2040, ns))


def test_eval_raw_deterministic_for_same_noise_seed():
    puf = ArbiterPuf(13, sigma=0.5)
    a = eval_raw(puf, 77, noise_seed=3, n_bits=127)
    b = eval_raw(puf, 77, noise_seed=3, n_bits=127)
    c = eval_raw(puf, 77, noise_seed=4, n_bits=127)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)  # sigma=0.5 flips plenty of bits


def test_measure_reliability_zero_noise_and_sram():
    assert measure_reliability(ArbiterPuf(1, sigma=0.0), 1000, seed=0) == 1.0
    r = measure_reliability(SramPuf(1, p=0.05), 1000, seed=0)
    assert abs(r - 0.95) < 0.01


def test_measure_reliability_requires_enough_trials():
    with pytest.raises(ValueError):
        measure_reliability(SramPuf(1), 100, seed=0)


def test_calibrate_sigma_trivial_and_reachability():
    puf = ArbiterPuf(2)
    assert calibrate_sigma(puf, 1.0) == 0.0
    with pytest.raises(ValueError):
        calibrate_sigma(puf, 0.4)


@pytest.mark.parametrize("trials", [0, -5])
def test_calibrate_sigma_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="at least 1 trial"):
        calibrate_sigma(ArbiterPuf(2, sigma=0.1), 0.9, trials=trials)


def test_calibrate_sigma_hits_arbiter_target():
    target = 0.9976
    base = ArbiterPuf(21)
    sigma = calibrate_sigma(base, target, trials=400, seed=5)
    measured = measure_reliability(base.with_sigma(sigma), 1000, seed=6)
    assert abs(measured - target) < 0.002


def test_calibrate_sigma_hits_xor_target():
    target = 0.9952
    base = XorArbiterPuf(22, chains=4)
    sigma = calibrate_sigma(base, target, trials=400, seed=7)
    measured = measure_reliability(base.with_sigma(sigma), 1000, seed=8)
    assert abs(measured - target) < 0.002


# name -> (PUF for a seed, target reliability, trials): the benchmark set-ups
# (perfbench/workloads.py), the bench command's PUF and acceptance criterion 3
CALIBRATIONS = {
    "perfbench-arbiter": (lambda seed: ArbiterPuf(derive_seed("perfbench-arbiter", seed)),
                          0.9976, 100),
    "perfbench-xor": (lambda seed: XorArbiterPuf(derive_seed("perfbench-xor", seed, 0)),
                      0.9952, 100),
    "bench-puf": (lambda seed: ArbiterPuf(derive_seed("bench-puf", seed)), 0.9976, 100),
    "criterion-3-arbiter": (lambda seed: ArbiterPuf(101), 0.9976, 1000),
    "criterion-3-xor": (lambda seed: XorArbiterPuf(202, chains=4), 0.9952, 1000),
}


# calibrate_sigma's results when its normal tail came from scipy.special.ndtr (commit a5b4eb1)
@pytest.mark.parametrize("name,seed,want", [
    ("perfbench-arbiter", 1, 0.07406320818637752),
    ("perfbench-xor", 1, 0.03185128087352365),
    ("bench-puf", 1, 0.06759881215672986),
    ("perfbench-arbiter", 20261017, 0.06315968653424689),
    ("perfbench-xor", 20261017, 0.031872527783463195),
    ("bench-puf", 20261017, 0.06960451755151037),
    ("criterion-3-arbiter", 7, 0.052368426762761294),
    ("criterion-3-xor", 7, 0.029822042966061266),
])
def test_calibrated_sigma_is_pinned(name, seed, want):
    make, target, trials = CALIBRATIONS[name]
    sigma = calibrate_sigma(make(seed), target, trials=trials, seed=seed)
    assert sigma == pytest.approx(want, rel=1e-14)


def expected_reliability(sigma, margins):
    """Semi-analytic per-challenge agreement probability, averaged over every row.

    `margins` are the absolute delay differences |d| and sigma > 0. For one
    arbiter chain the flip probability at margin d is q = 1 - Phi(|d| / sigma)
    (see _flip_probability); a XOR of k chains reproduces its reference bit
    exactly when an even number of chains flip, which has probability
    (1 + prod_k (1 - 2 q_k)) / 2. calibrate_sigma's step test,
    _reliability_above, must answer as this does, bit for bit.
    """
    q = _flip_probability(margins / sigma)
    if margins.ndim == 1:
        return float(np.mean(1.0 - q))
    return float(np.mean((1.0 + np.prod(1.0 - 2.0 * q, axis=1)) / 2.0))


def _reference_expected_reliability(sigma, margins):
    """expected_reliability as it was when it took signed margins (commit 7604a1c)."""
    if sigma == 0:
        return 1.0
    q = _flip_probability(np.abs(margins) / sigma)
    if margins.ndim == 1:
        return float(np.mean(1.0 - q))
    return float(np.mean((1.0 + np.prod(1.0 - 2.0 * q, axis=1)) / 2.0))


def reference_calibrate_sigma(puf, target_reliability, trials=1000, seed=0):
    """calibrate_sigma's loop as it was with 80 bisection steps and a 1e6 cap (commit 7604a1c)."""
    margins = puf.sample_margins(stream("calibration-challenges", seed), trials * TRIAL_BITS)

    lo, hi = 0.0, 1.0
    while _reference_expected_reliability(hi, margins) > target_reliability:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError(f"target reliability {target_reliability} unreachable")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _reference_expected_reliability(mid, margins) > target_reliability:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _calibration_case(i):
    """Seeded case i: an arbiter (even i) or 4-XOR PUF, its target and its trial count."""
    g = np.random.default_rng([2026, i])
    stages = int(g.choice([8, 16, 32, 64, 100, 128, 200, 256]))
    make = ArbiterPuf if i % 2 == 0 else (lambda seed, stages: XorArbiterPuf(seed, stages, chains=4))
    target = 1.0 - math.exp(g.uniform(math.log(1e-4), math.log(0.49)))  # 0.51 to 0.9999
    trials = round(math.exp(g.uniform(math.log(10), math.log(200))))  # 10 to 200
    return make(int(g.integers(1 << 32)), stages), target, trials, int(g.integers(1 << 32))


@pytest.mark.parametrize("i", range(50))
def test_calibrate_sigma_equals_the_80_step_loop_and_brackets_the_target(i):
    puf, target, trials, seed = _calibration_case(i)
    sigma = calibrate_sigma(puf, target, trials=trials, seed=seed)
    assert sigma == reference_calibrate_sigma(puf, target, trials=trials, seed=seed)
    # sigma and its neighbour double toward the other end of the final interval
    # lie on opposite sides of the target
    margins = np.abs(puf.sample_margins(stream("calibration-challenges", seed), trials * TRIAL_BITS))
    above = expected_reliability(sigma, margins) > target
    neighbour = np.nextafter(sigma, math.inf if above else 0.0)
    assert (expected_reliability(neighbour, margins) > target) != above


def _traced_calibration(monkeypatch, puf, target, trials, seed):
    """calibrate_sigma's result and its steps as (sigma, above, exact), where a step is
    exact when it ran _flip_probability and was settled by the counting bound otherwise."""
    steps, flips = [], []

    def counted_flip(x):
        flips.append(len(x))
        return _flip_probability(x)

    def traced(margins, target):
        above = _reliability_above(margins, target)

        def step(sigma):
            before = len(flips)
            steps.append((sigma, above(sigma), len(flips) > before))
            return steps[-1][1]
        return step

    with monkeypatch.context() as m:
        m.setattr("risecure.puf._flip_probability", counted_flip)
        m.setattr("risecure.puf._reliability_above", traced)
        sigma = calibrate_sigma(puf, target, trials=trials, seed=seed)
    assert len(flips) == sum(exact for _, _, exact in steps)  # one evaluation per exact step
    return sigma, steps


# where the pruned step test is fragile: one to eight chains; 8 stages, where only 256
# challenges exist, so tied margins sit on the prefix boundary; a target just above 1/2,
# where sigma doubles past 1 and every doubling step goes through the counting bound;
# targets within 1e-4 of 1
@pytest.mark.parametrize("make,target,trials,seed", [
    *[(lambda k=k: XorArbiterPuf(30 + k, chains=k), 0.99, 60, k) for k in (1, 2, 4, 8)],
    (lambda: ArbiterPuf(41, stages=8), 0.995, 100, 4),
    (lambda: XorArbiterPuf(42, stages=8, chains=4), 0.99, 100, 5),
    (lambda: ArbiterPuf(43, stages=8), 0.9, 100, 6),
    (lambda: ArbiterPuf(44), 0.50001, 30, 7),  # the reference caps sigma at 1e6
    (lambda: XorArbiterPuf(45, chains=4), 0.500001, 30, 8),
    (lambda: ArbiterPuf(46), 0.99995, 100, 9),
    (lambda: XorArbiterPuf(47, chains=2), 1.0 - 1e-6, 100, 10),
], ids=["chains-1", "chains-2", "chains-4", "chains-8", "stages-8", "stages-8-xor",
        "stages-8-low", "half-arbiter", "half-xor", "near-one-arbiter", "near-one-xor"])
def test_calibrate_sigma_equals_the_80_step_loop_where_pruning_is_fragile(
        monkeypatch, make, target, trials, seed):
    puf = make()
    sigma, steps = _traced_calibration(monkeypatch, puf, target, trials, seed)
    assert sigma == reference_calibrate_sigma(puf, target, trials=trials, seed=seed)
    margins = np.abs(puf.sample_margins(stream("calibration-challenges", seed), trials * TRIAL_BITS))
    for s, above, exact in steps:  # every step, bound-settled or exact, answers as the reference
        assert above == (expected_reliability(s, margins) > target), (s, exact)
        assert exact or not above  # the bound only ever says "not above"
    if target < 0.6:
        assert steps[0][0] == 1.0 and steps[0][1] and max(s for s, _, _ in steps) > 1.0


def test_calibrate_sigma_reaches_a_target_just_above_one_half():
    sigma = calibrate_sigma(ArbiterPuf(2), 0.500001, trials=50, seed=1)
    assert sigma == pytest.approx(2.40e6, rel=0.01)


def test_calibrate_sigma_stops_when_the_interval_stops_shrinking(monkeypatch):
    for name in ("perfbench-arbiter", "perfbench-xor"):
        make, target, trials = CALIBRATIONS[name]
        _, steps = _traced_calibration(monkeypatch, make(1), target, trials, seed=1)
        exact = sum(e for _, _, e in steps)
        # 1 doubling step and 56 or 57 bisection steps; 81 with 80 fixed steps
        assert len(steps) <= 60 and exact >= 50, (name, len(steps), exact)
    # the 4-XOR's large-sigma steps are settled by counting, without erfc
    assert [s for s, _, e in steps if not e] == [1.0, 0.5, 0.25, 0.125]


def test_calibrate_sigma_rejects_non_finite_margins(monkeypatch):
    puf = ArbiterPuf(2, stages=8)
    monkeypatch.setattr(puf, "sample_margins", lambda g, count: np.full(count, math.nan))
    with pytest.raises(ValueError, match="finite delay margins"):
        calibrate_sigma(puf, 0.9, trials=1)


def test_flip_probability_matches_scalar_erfc_and_is_zero_past_the_cut():
    def scalar(x):  # 1 - Phi(x), Phi rounded to a double first
        return 1.0 - (1.0 - 0.5 * math.erfc(x * math.sqrt(0.5)))

    near = np.array([0.0, 1e-9, 0.3, 0.7071, 1.0, 1.5, 2.0, 3.3, 5.0, 8.0, 8.2923, 8.2925,
                     8.5, 8.999, np.nextafter(9.0, 0.0)])
    assert _flip_probability(near).tolist() == [scalar(x) for x in near]
    assert _flip_probability(np.array([0.0]))[0] == 0.5
    far = np.concatenate([np.linspace(9.0, 60.0, 10_001), [1e3, 1e300, np.inf]])
    assert not _flip_probability(far).any()
    # the cut changes no value: the scalar tail is already 0 from 8.2924 on
    assert not any(scalar(x) for x in np.linspace(8.2925, 9.0, 1001))


def test_package_imports_without_scipy():
    code = ("import sys, risecure, risecure.cli, risecure.bench, risecure.attack, risecure.selftest\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_roundtrip():
    for puf in (SramPuf(3, num_blocks=8, block_bits=127, p=0.01),
                ArbiterPuf(4, stages=32, sigma=0.25),
                XorArbiterPuf(5, stages=64, chains=3, sigma=0.1)):
        clone = puf_from_config(puf_to_config(puf))
        assert puf_to_config(clone) == puf_to_config(puf)
        if isinstance(puf, SramPuf):
            assert np.array_equal(clone.read(0, 127), puf.read(0, 127))
        else:
            c = stream("t", 9).integers(0, 2, (20, puf.stages), dtype=np.uint8)
            assert np.array_equal(clone.eval_bits(c, 1), puf.eval_bits(c, 1))


# Standard PUF quality metrics (Maiti, Gunreddy and Schaumont, 2013) over 32
# devices x 64 challenges x 127-bit reference reads: uniformity is the mean
# over devices of each device's fraction of ones, uniqueness the mean
# fractional Hamming distance over the 496 device pairs. The bounds were
# fixed before the first run, from seeds 1-5; 20261017 is held out.
_QUALITY_DEVICES, _QUALITY_CHALLENGES, _QUALITY_BITS = 32, 64, 127


def _quality_reads(kind, seed):
    """(devices, challenges * bits) noiseless responses of one PUF kind."""
    c0s = stream("quality-challenges", seed).integers(0, 1 << 63, _QUALITY_CHALLENGES)
    reads = []
    for d in range(_QUALITY_DEVICES):
        dev_seed = derive_seed("quality-puf", seed, d)
        if kind == "sram":
            puf = SramPuf(dev_seed, num_blocks=_QUALITY_CHALLENGES, block_bits=_QUALITY_BITS)
            challenges = range(_QUALITY_CHALLENGES)
        else:
            puf = ArbiterPuf(dev_seed) if kind == "arbiter" else XorArbiterPuf(dev_seed, chains=4)
            challenges = c0s
        reads.append(np.concatenate([reference_response(puf, c0, _QUALITY_BITS)
                                     for c0 in challenges]))
    return np.array(reads)


@pytest.mark.parametrize("seed", [1, 20261017])
@pytest.mark.parametrize("kind,uniformity_bounds", [
    ("arbiter", (0.46, 0.54)), ("xor", (0.49, 0.51)), ("sram", (0.49, 0.51)),
], ids=["arbiter", "xor", "sram"])
def test_puf_uniformity_and_uniqueness_are_pinned(kind, uniformity_bounds, seed):
    reads = _quality_reads(kind, seed)
    uniformity = reads.mean(axis=1).mean()
    i, j = np.triu_indices(_QUALITY_DEVICES, 1)
    assert len(i) == 496
    uniqueness = (reads[i] != reads[j]).mean(axis=1).mean()
    lo, hi = uniformity_bounds
    assert lo <= uniformity <= hi, uniformity
    assert 0.49 <= uniqueness <= 0.51, uniqueness
