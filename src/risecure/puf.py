"""Seedable PUF models: SRAM (weak), arbiter and XOR-arbiter (strong).

Every model is deterministic given its seed. Noisy reads additionally take a
``noise_seed`` so that a read can be replayed bit-exactly; reference (noise
free) responses are pure functions of the instance and the challenge.

Every kind answers ``read(c0, n_bits, noise_seed=None)``: a None noise seed
gives the reference read. SRAM treats c0 as a block index; the arbiter
kinds share one read path.

The arbiter family follows the standard additive delay model: a challenge c
of s bits is mapped to parity features Phi(c) in {-1,+1}^(s+1), and the
response bit is ``w . Phi(c) + eps > 0`` with per-evaluation Gaussian noise
eps. A multi-bit raw response is produced by expanding one 64-bit inner
challenge into per-bit sub-challenges with a public splitmix64 mixer.

The arbiter kinds compute on packed challenge words: each sub-challenge is
ceil(s/64) uint64 words, stage 64j + k in bit k of word j. Feature i is
(-1) raised to the XOR of bits i..s-1, so a few shift-XORs per word turn the
words into suffix-parity words (Warren, Hacker's Delight, 2nd ed., 5-2).
A PUF keeps one stacked per-byte table of its chains' weights (one chain for
an arbiter, k for a XOR-arbiter), so a margin is one table entry per byte of
suffix parity plus the bias, gathered one byte column at a time for all
chains, in blocks of challenges that keep the gather buffer under a fixed
size; no float feature matrix is built on a read. The entries are summed in
place in numpy's pairwise order for a contiguous row (at 64 stages the tree
((t0+t1)+(t2+t3))+((t4+t5)+(t6+t7))), so every width gives the bits of a
plain row sum. ``parity_features`` unpacks the same words for callers that
need the {-1,+1} matrix.
"""

import math

import numpy as np

from .prng import (GOLDEN_GAMMA, MASK64, checked_int, derive_seed, is_integer, is_real,
                   splitmix64, stream)

SCHEMA_VERSION = 1
TRIAL_BITS = 127  # bits per arbiter read in reliability trials and calibration samples
_GATHER_BUDGET = 1 << 16  # table entries one margin gather holds: 512 KB of doubles
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _challenge_words(c0, count, stages):
    """The (count, ceil(stages/64)) uint64 words of c0's sub-challenges.

    Bit k of word j is stage 64j + k; bits past `stages` are left as drawn.
    Raises ValueError for c0 other than an integer in [0, 2^64).
    """
    if not is_integer(c0) or not 0 <= c0 < 1 << 64:
        raise ValueError(f"inner challenge c0 must be an integer in [0, 2^64), got {c0!r}")
    words_per = -(-stages // 64)
    x = np.arange(1, count * words_per + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
    return splitmix64(x + np.uint64(c0)).reshape(count, words_per)  # the sum wraps mod 2^64


def _pack_words(bits):
    """A (N, s) bit batch as (N, ceil(s/64)) uint64 words laid out like _challenge_words."""
    n, s = bits.shape
    packed = np.zeros((n, 8 * -(-s // 64)), dtype=np.uint8)
    packed[:, :-(-s // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def _bytes(words):
    """The little-endian bytes of uint64 words: byte b of a row holds stages 8b..8b+7."""
    return words.astype("<u8", copy=False).view(np.uint8)


_PREFIX_SHIFTS = tuple(np.uint64(1 << i) for i in range(6))


def _suffix_parity(words, stages):
    """Bit i of the result is the XOR of challenge bits i..stages-1; bits past stages are 0.

    Six shift-XORs give each word its own suffix parity (Warren, Hacker's
    Delight, 2nd ed., 5-2); each earlier word then flips by the parity of
    all later words, whose bit 0 holds it.
    """
    x = words.copy()
    x[:, -1:] &= np.uint64(MASK64 >> (64 * x.shape[1] - stages))  # zero stages: no last word
    for shift in _PREFIX_SHIFTS:
        x ^= x >> shift
    if x.shape[1] > 1:
        later = np.bitwise_xor.accumulate(x[:, :0:-1] & np.uint64(1), axis=1)[:, ::-1]
        x[:, :-1] ^= np.uint64(0) - later  # all ones where the later words' parity is 1
    return x


def parity_features(challenges):
    """Map challenge bits to arbiter delay features in {-1, +1}.

    Accepts one challenge of shape (s,) or a batch of shape (N, s) and
    returns (s+1,) or (N, s+1). Feature i is the product of (1 - 2*c_j)
    over j >= i; the last feature is the constant 1.
    """
    c = np.asarray(challenges)
    single = c.ndim == 1
    c = np.atleast_2d(c)
    stages = c.shape[1]
    parity = _bytes(_suffix_parity(_pack_words(c), stages))
    phi = np.ones((len(c), stages + 1))
    phi[:, :stages] -= 2.0 * np.unpackbits(parity, axis=1, count=stages, bitorder="little")
    return phi[0] if single else phi


def expand_challenge(c0, count, stages=64):
    """Derive `count` sub-challenges of `stages` bits from one 64-bit c0.

    Public, non-cryptographic: sub-challenge bits come from the splitmix64
    output sequence seeded by c0, so any party can recompute the expansion.
    Raises ValueError for c0 other than an integer in [0, 2^64), count
    other than an integer >= 0, or stages other than an integer >= 1.
    """
    count, stages = checked_int(count, "count", 0), checked_int(stages, "stages", 1)
    words = _bytes(_challenge_words(c0, count, stages))
    return np.unpackbits(words, axis=1, bitorder="little")[:, :stages]


class SramPuf:
    """Weak PUF: per-block power-up values with i.i.d. read noise."""

    kind = "sram"

    def __init__(self, seed, num_blocks=16, block_bits=127, p=0.05):
        if not is_real(p) or not 0 <= p < 0.5:
            raise ValueError(f"flip probability p must be a number in [0, 0.5), got {p!r}")
        self.seed = checked_int(seed, "seed")
        self.num_blocks = checked_int(num_blocks, "num_blocks", 1)
        self.block_bits = checked_int(block_bits, "block_bits", 1)
        self.p = float(p)
        self._ref = {}  # block -> its read-only power-up value, a pure function of (seed, block)

    def read(self, c0, n_bits, noise_seed=None):
        """Block c0, which must be n_bits wide; its power-up value when noise_seed is None."""
        if not is_integer(n_bits) or n_bits != self.block_bits:
            raise ValueError(f"code length n_bits={n_bits!r} != SRAM block width "
                             f"{self.block_bits}")
        if not is_integer(c0) or not 0 <= c0 < self.num_blocks:
            raise ValueError(f"block index c0 must be an integer in [0, {self.num_blocks}), "
                             f"got {c0!r}")
        if noise_seed is not None:
            checked_int(noise_seed, "noise_seed")
        block = int(c0)
        ref = self._ref.get(block)
        if ref is None:
            ref = stream("sram-ref", self.seed, block).integers(0, 2, self.block_bits, dtype=np.uint8)
            ref.flags.writeable = False
            self._ref[block] = ref
        if noise_seed is None or self.p == 0:
            return ref
        g = stream("sram-read", self.seed, block, noise_seed)
        return ref ^ (g.random(self.block_bits) < self.p).astype(np.uint8)

    def draw_challenge(self, g, n_bits):
        """A random inner challenge from g and the width of its read."""
        return int(g.integers(0, self.num_blocks)), self.block_bits

    def sample_margins(self, g, count):
        raise ValueError("sigma calibration applies to the arbiter kinds only")

    def params(self):
        return {"num_blocks": self.num_blocks, "block_bits": self.block_bits, "p": self.p}


def _byte_sum(g):
    """The sum over axis 0 of (bytes, chains, N) table entries, bit for bit numpy's row sum.

    numpy sums a contiguous row of n <= 128 doubles pairwise (Higham, SIAM J.
    Sci. Comput. 14(4), 1993): for n >= 8, into eight running sums, one per
    index mod 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    last n mod 8 entries one at a time; a shorter row left to right. That
    order is spelled out here in place, overwriting g; at 64 stages (8 bytes)
    it is the tree alone. A table has at most 128 bytes, so numpy's halving
    of longer rows never applies.
    """
    n = len(g)
    for i in range(8, n - n % 8, 8):
        g[:8] += g[i:i + 8]
    r = list(g[:8])  # the running sums as views, made once: indexing g per add costs more
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)) if n >= 8 else ():
        r[a] += r[b]  # neighbours, then pairs of pairs, then the two halves
    for i in range(max(n - n % 8, 1), n):
        r[0] += g[i]
    return r[0]


class _DelayPuf:
    """Read path shared by the arbiter kinds: c0 expands into n_bits sub-challenges.

    The kinds compute on suffix-parity words (see _suffix_parity), never on
    float feature matrices. An instance holds one stacked table of all its
    chains' per-byte weight rows, ``_table[b, k, v]`` = chain k's
    w[8b:8b+8] . (1 - 2*bits(v)), their biases ``_bias`` as a (chains, 1)
    column and the chains' seeds, which key their weights and their noise;
    an ArbiterPuf is one chain.
    """

    def __init__(self, stages, sigma, chain_seeds):
        """Check stages and sigma, draw each chain's stages + 1 weights from its seed
        and build the stacked table from them."""
        # the bound caps the stages+1 weights a config can allocate
        self.stages = checked_int(stages, "stage count", 1, 1024)
        if not is_real(sigma) or not 0 <= sigma < math.inf:
            # also rejects NaN, which would read noise-free
            raise ValueError(f"noise sigma must be finite and >= 0, got {sigma!r}")
        self.sigma = float(sigma)
        self._chain_seeds = tuple(chain_seeds)
        self._weights = np.array([stream("arbiter-weights", seed).standard_normal(self.stages + 1)
                                  for seed in self._chain_seeds])
        self._weights.flags.writeable = False
        padded = np.pad(self._weights[:, :self.stages], ((0, 0), (0, -self.stages % 8)))
        self._table = np.stack([row.reshape(-1, 8) @ _BYTE_SIGNS.T for row in padded], axis=1)
        self._bias = self._weights[:, self.stages:]

    def read(self, c0, n_bits, noise_seed=None):
        """n_bits response bits for inner challenge c0; noiseless when noise_seed is None."""
        words = _challenge_words(c0, checked_int(n_bits, "n_bits", 1), self.stages)
        if noise_seed is not None:
            checked_int(noise_seed, "noise_seed")
        return self.respond(_suffix_parity(words, self.stages), noise_seed)

    def draw_challenge(self, g, n_bits):
        """A random inner challenge from g and the width of its read."""
        return int(g.integers(0, 1 << 63)), n_bits

    def sample_margins(self, g, count):
        """Noiseless margins of `count` random stage-width challenges drawn from g.

        The challenge bits are drawn and read block by block, a block being
        one _margins gather rounded down to a multiple of 8 challenges: its
        bits are then whole 64-bit Philox words, so the blocks join to the
        one (count, stages) draw without holding all of its bits.
        """
        block = _GATHER_BUDGET // (self._table.size // 256) // 8 * 8  # at least 8, see _margins
        return np.concatenate([
            self.margins(g.integers(0, 2, (min(block, count - lo), self.stages), dtype=np.uint8))
            for lo in range(0, count, block)])

    def features(self, challenges):
        """Suffix-parity words of a challenge batch; its width must equal the stage count."""
        c = np.atleast_2d(np.asarray(challenges))
        if c.shape[1] != self.stages:
            raise ValueError(f"challenge width {c.shape[1]} != stages {self.stages}")
        return _suffix_parity(_pack_words(c), self.stages)

    def eval_bits(self, challenges, noise_seed=None):
        """Response bits for a challenge batch; noiseless when noise_seed is None."""
        if noise_seed is not None:
            checked_int(noise_seed, "noise_seed")
        return self.respond(self.features(challenges), noise_seed)

    def with_sigma(self, sigma):
        """The PUF of the same kind, seed and params, but with noise sigma."""
        return type(self)(self.seed, **{**self.params(), "sigma": sigma})

    def _margins(self, parity):
        """Every chain's noiseless delay differences w . Phi for suffix-parity words, (chains, N).

        One gather per byte column serves all chains, over blocks of challenges
        small enough that the gather buffer holds at most _GATHER_BUDGET
        entries (a block is at least 8 challenges at 1024 stages and 64
        chains); the bias is added after the byte entries are summed (see
        _byte_sum).
        """
        block = _GATHER_BUDGET // (self._table.size // 256)  # entries per challenge: bytes x chains
        d = np.empty((len(self._bias), len(parity)))
        for lo in range(0, len(parity), block):
            part = parity[lo:lo + block]
            g = np.empty(self._table.shape[:2] + (len(part),))
            # a byte never clips, and the default mode="raise" would copy into `out` through a buffer
            for rows, column, out in zip(self._table, _bytes(part).T.astype(np.intp, order="C"), g):
                rows.take(column, axis=1, out=out, mode="clip")
            np.add(_byte_sum(g), self._bias, out=d[:, lo:lo + block])
        return d

    def respond(self, parity, noise_seed=None):
        """Response bits for suffix-parity words, the XOR over the chains; noiseless when
        noise_seed is None, else each chain adds its own sigma-scaled normal noise."""
        d = self._margins(parity)
        if noise_seed is not None and self.sigma > 0:
            # bit-equal to normal(0.0, sigma), which draws 0.0 + sigma*z: only a zero's sign differs
            for row, seed in zip(d, self._chain_seeds):
                row += self.sigma * stream("arbiter-noise", seed, noise_seed).standard_normal(len(row))
        bits = (d > 0).view(np.uint8)
        return bits[0] if len(bits) == 1 else np.bitwise_xor.reduce(bits, axis=0)


_BYTE_SIGNS = 1.0 - 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                                        bitorder="little")  # (256, 8): row v holds 1 - 2*bit_k(v)


class ArbiterPuf(_DelayPuf):
    """Strong PUF: additive delay model with seeded standard-normal weights.

    The weights are drawn from the seed once, and margins are read from a
    per-byte table built from them at the same time: entry [b, 0, v] is
    w[8b:8b+8] . (1 - 2*bits(v)), so a margin is one lookup per byte of
    suffix parity plus the bias w[stages]. `weights` is read-only and has
    no setter, so an instance stays the one its (seed, params) define.
    """

    kind = "arbiter"

    def __init__(self, seed, stages=64, sigma=0.0):
        self.seed = checked_int(seed, "seed")
        super().__init__(stages, sigma, (self.seed,))

    @property
    def weights(self):
        """The stages + 1 seeded delay weights, the bias last; read-only."""
        return self._weights[0]

    def margins(self, challenges):
        """Noiseless delay differences w . Phi(c) for a batch of challenges."""
        return self._margins(self.features(challenges))[0]

    def params(self):
        return {"stages": self.stages, "sigma": self.sigma}


class XorArbiterPuf(_DelayPuf):
    """XOR of k independent arbiter chains sharing the challenge.

    Chain i is the ArbiterPuf of seed derive_seed("xor-chain", seed, i); the
    PUF reads all of them from its one stacked table and keeps no chain
    objects (see `chains`).
    """

    kind = "xor"

    def __init__(self, seed, stages=64, chains=4, sigma=0.0):
        self.num_chains = checked_int(chains, "chain count", 1, 64)
        self.seed = checked_int(seed, "seed")
        super().__init__(stages, sigma,
                         [derive_seed("xor-chain", self.seed, i) for i in range(self.num_chains)])

    @property
    def chains(self):
        """The chains as standalone ArbiterPufs, built anew on each access."""
        return [ArbiterPuf(seed, self.stages, self.sigma) for seed in self._chain_seeds]

    def margins(self, challenges):
        """Per-chain noiseless margins, stacked as (N, chains)."""
        return self._margins(self.features(challenges)).T

    def params(self):
        return {"stages": self.stages, "chains": self.num_chains, "sigma": self.sigma}


_KINDS = {"sram": SramPuf, "arbiter": ArbiterPuf, "xor": XorArbiterPuf}


def new_puf(kind, seed, params=None):
    """Construct a PUF instance by kind name with kind-specific params."""
    if kind not in _KINDS:
        raise ValueError(f"unknown PUF kind {kind!r}; expected one of {sorted(_KINDS)}")
    return _KINDS[kind](seed, **(params or {}))


def puf_to_config(puf):
    """JSON-ready description; responses are always re-derived, never stored."""
    return {"version": SCHEMA_VERSION, "kind": puf.kind, "seed": puf.seed, "params": puf.params()}


def puf_from_config(cfg):
    """Rebuild a PUF from puf_to_config's form; malformed input raises ValueError."""
    try:
        if checked_int(cfg.get("version"), "PUF config version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported PUF config version {cfg['version']!r}")
        return new_puf(cfg["kind"], cfg["seed"], cfg.get("params"))
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise ValueError(f"malformed PUF config: {exc}") from exc


def eval_raw(puf, c0, noise_seed, n_bits):
    """Noisy n_bits-long raw response for inner challenge c0.

    SRAM treats c0 as a block index and requires n_bits == block_bits;
    arbiter kinds expand c0 into n_bits sub-challenges first.
    """
    return puf.read(c0, n_bits, noise_seed)


def reference_response(puf, c0, n_bits):
    """Noise-free enrolled value: eval_raw with noise disabled."""
    return puf.read(c0, n_bits)


def measure_reliability(puf, trials, seed):
    """Fraction of read bits agreeing with the reference across fresh reads.

    Each trial draws a random inner challenge, performs one noisy read
    (TRIAL_BITS wide, or one block for SRAM) and compares it to the
    noiseless reference.
    """
    trials = checked_int(trials, "trials", 1000)  # fewer give no usable estimate
    seed = checked_int(seed, "seed")
    g = stream("reliability-challenges", seed)
    agree = 0
    total = 0
    for t in range(trials):
        c0, width = puf.draw_challenge(g, TRIAL_BITS)
        ref = puf.read(c0, width)
        got = puf.read(c0, width, derive_seed("reliability-read", seed, t))
        agree += int(np.sum(ref == got))
        total += width
    return agree / total


def _flip_probability(x):
    """1 - Phi(x) for x >= 0, with Phi(x) = 1 - erfc(x / sqrt 2) / 2 rounded to a double.

    Rounding Phi first, as a normal-CDF routine does, makes q exactly 0 from
    x = 8.2924 on. Scalar erfc costs about 3x a vectorised CDF per element, so
    it runs only where x < 9; calibration passes only the rows that have such
    an x (see _reliability_above), a few percent of them at a calibrated sigma.
    """
    q = np.zeros_like(x)
    near = x < 9.0
    q[near] = 1.0 - (1.0 - 0.5 * _ERFC(x[near] * math.sqrt(0.5)).astype(float))
    return q


def _expected_reliability(sigma, margins):
    """Semi-analytic per-challenge agreement probability, averaged.

    `margins` are the absolute delay differences |d| and sigma > 0. For one
    arbiter chain the flip probability at margin d is q = 1 - Phi(|d| / sigma)
    (see _flip_probability); a XOR of k chains reproduces its reference bit
    exactly when an even number of chains flip, which has probability
    (1 + prod_k (1 - 2 q_k)) / 2.
    """
    q = _flip_probability(margins / sigma)
    if margins.ndim == 1:
        return float(np.mean(1.0 - q))
    return float(np.mean((1.0 + np.prod(1.0 - 2.0 * q, axis=1)) / 2.0))


_Q1 = float(_flip_probability(np.ones(1))[0])  # q(1) = 0.1587


def _reliability_above(margins, target):
    """calibrate_sigma's step test: sigma -> _expected_reliability(sigma, margins) > target,
    the same answer bit for bit, paid for only by the rows that can flip.

    The rows are sorted once by their smallest |d|. A row whose smallest |d| is
    above fl(9 sigma) > 8.3 sigma has q = 0 on every chain (see
    _flip_probability), so its value is exactly 1.0. Only the sorted prefix
    below runs _flip_probability; its values go into a reused array of 1.0s at
    the rows' own places, so np.mean sums the same array in the same pairwise
    order as _expected_reliability (Higham, SIAM J. Sci. Comput. 14(4), 1993).

    A step far below the target is settled by counting, without erfc: a row
    with some |d| < sigma has q >= q(1) on that chain, and its value, 1 - q or
    for a XOR (1 + prod_k (1 - 2 q_k)) / 2 <= 1 - q_j (the other factors lie in
    [0, 1]), is at most 1 - q(1). So c such rows of n give E <= 1 - c q(1) / n,
    and a bound below target - 1e-9 means E is not above the target. That
    margin assumes only that libm erfc is within a few ulp, which moves q by
    about 1e-16, and the mean's rounding is about 1e-15.
    """
    key = margins if margins.ndim == 1 else margins.min(axis=1)
    order = np.argsort(key)
    rows, key = margins[order], key[order]
    values = np.ones(len(key))
    written = 0  # values[order[written:]] are all 1.0

    def above(sigma):
        nonlocal written
        if 1.0 - np.searchsorted(key, sigma) * _Q1 / len(key) < target - 1e-9:
            return False
        n = int(np.searchsorted(key, 9.0 * sigma, side="right"))
        q = _flip_probability(rows[:n] / sigma)
        values[order[:n]] = 1.0 - q if q.ndim == 1 else (1.0 + np.prod(1.0 - 2.0 * q, axis=1)) / 2.0
        values[order[n:written]] = 1.0  # rows a larger sigma wrote
        written = n
        return float(np.mean(values)) > target
    return above


def calibrate_sigma(puf, target_reliability, trials=1000, seed=0):
    """Find sigma so the puf's measured reliability hits the target.

    Bisection over sigma against the expected reliability evaluated on a
    Monte-Carlo challenge sample of trials * TRIAL_BITS bits; each step asks
    _reliability_above, which answers as _expected_reliability would. Requires
    0.5 < target <= 1; noise can only pull reliability down toward 1/2, so
    every such target is reached. hi doubles from 1 until the expected
    reliability is at or below the target, which ends at the latest when
    erfc rounds to 1 for every |d| / hi and the reliability is exactly 1/2.
    The bisection then runs until the midpoint equals an end, that is until
    lo and hi are adjacent doubles; each step shrinks the doubles strictly
    inside (lo, hi), so it ends too. The result is that midpoint: its
    reliability is above the target and the next double's is not, or the
    reverse.
    """
    if not is_real(target_reliability) or not 0.5 < target_reliability <= 1.0:
        raise ValueError(f"target reliability must be in (0.5, 1], got {target_reliability!r}")
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"calibration needs at least 1 trial: trials must be an integer >= 1, "
                         f"got {trials!r}")
    seed = checked_int(seed, "seed")
    if target_reliability == 1.0:
        return 0.0
    margins = np.abs(puf.sample_margins(stream("calibration-challenges", seed), trials * TRIAL_BITS))
    if not np.isfinite(margins).all():  # NaN or inf would keep hi doubling forever
        raise ValueError("calibration needs finite delay margins from puf.sample_margins")

    above = _reliability_above(margins, target_reliability)
    lo, hi = 0.0, 1.0
    while above(hi):
        hi *= 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if above(mid):
            lo = mid
        else:
            hi = mid
    return mid
