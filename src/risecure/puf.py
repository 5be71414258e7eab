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
"""

import numpy as np
from scipy.special import ndtr

from .prng import GOLDEN_GAMMA, derive_seed, splitmix64, stream

SCHEMA_VERSION = 1


def parity_features(challenges):
    """Map challenge bits to arbiter delay features in {-1, +1}.

    Accepts one challenge of shape (s,) or a batch of shape (N, s) and
    returns (s+1,) or (N, s+1). Feature i is the product of (1 - 2*c_j)
    over j >= i; the last feature is the constant 1.
    """
    c = np.asarray(challenges)
    single = c.ndim == 1
    if single:
        c = c[None, :]
    signs = (1 - 2 * c.astype(np.int8)).astype(np.float64)
    phi = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    phi = np.concatenate([phi, np.ones((len(phi), 1))], axis=1)
    return phi[0] if single else phi


def expand_challenge(c0, count, stages=64):
    """Derive `count` sub-challenges of `stages` bits from one 64-bit c0.

    Public, non-cryptographic: sub-challenge bits come from the splitmix64
    output sequence seeded by c0, so any party can recompute the expansion.
    Raises ValueError for c0 outside [0, 2^64).
    """
    if not 0 <= c0 < 1 << 64:
        raise ValueError(f"inner challenge c0 must be in [0, 2^64), got {c0}")
    words_per = -(-stages // 64)
    idx = np.arange(count * words_per, dtype=np.uint64)
    with np.errstate(over="ignore"):
        words = splitmix64(np.uint64(c0) + (idx + np.uint64(1)) * np.uint64(GOLDEN_GAMMA))
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    return bits.astype(np.uint8).reshape(count, words_per * 64)[:, :stages]


class SramPuf:
    """Weak PUF: per-block power-up values with i.i.d. read noise."""

    kind = "sram"

    def __init__(self, seed, num_blocks=16, block_bits=127, p=0.05):
        if not 0 <= p < 0.5:
            raise ValueError(f"flip probability must be in [0, 0.5), got {p}")
        if num_blocks < 1 or block_bits < 1:
            raise ValueError("num_blocks and block_bits must be positive")
        self.seed = int(seed)
        self.num_blocks = int(num_blocks)
        self.block_bits = int(block_bits)
        self.p = float(p)
        self._ref = {}  # block -> its read-only power-up value, a pure function of (seed, block)

    def read(self, c0, n_bits, noise_seed=None):
        """Block c0, which must be n_bits wide; its power-up value when noise_seed is None."""
        if n_bits != self.block_bits:
            raise ValueError(f"code length {n_bits} != SRAM block width {self.block_bits}")
        block = int(c0)
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block index {block} out of range [0, {self.num_blocks})")
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


class _DelayPuf:
    """Read path shared by the arbiter kinds: c0 expands into n_bits sub-challenges."""

    def read(self, c0, n_bits, noise_seed=None):
        """n_bits response bits for inner challenge c0; noiseless when noise_seed is None."""
        return self.eval_bits(expand_challenge(c0, n_bits, self.stages), noise_seed)

    def draw_challenge(self, g, n_bits):
        """A random inner challenge from g and the width of its read."""
        return int(g.integers(0, 1 << 63)), n_bits

    def sample_margins(self, g, count):
        """Noiseless margins of `count` random stage-width challenges drawn from g."""
        return self.margins(g.integers(0, 2, (count, self.stages), dtype=np.uint8))

    def features(self, challenges):
        """Parity features of a challenge batch; its width must equal the stage count."""
        c = np.atleast_2d(np.asarray(challenges))
        if c.shape[1] != self.stages:
            raise ValueError(f"challenge width {c.shape[1]} != stages {self.stages}")
        return parity_features(c)

    def eval_bits(self, challenges, noise_seed=None):
        """Response bits for a challenge batch; noiseless when noise_seed is None."""
        return self.respond(self.features(challenges), noise_seed)


class ArbiterPuf(_DelayPuf):
    """Strong PUF: additive delay model with seeded standard-normal weights."""

    kind = "arbiter"

    def __init__(self, seed, stages=64, sigma=0.0):
        if not 1 <= stages <= 1024:  # bounds the stages+1 weights a config can allocate
            raise ValueError(f"stage count must be in [1, 1024], got {stages}")
        if sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {sigma}")
        self.seed = int(seed)
        self.stages = int(stages)
        self.sigma = float(sigma)
        self.weights = stream("arbiter-weights", self.seed).standard_normal(stages + 1)

    def margins(self, challenges):
        """Noiseless delay differences w . Phi(c) for a batch of challenges."""
        return self.features(challenges) @ self.weights

    def respond(self, phi, noise_seed=None):
        """Response bits for parity features phi; noiseless when noise_seed is None."""
        d = phi @ self.weights
        if noise_seed is not None and self.sigma > 0:
            d = d + stream("arbiter-noise", self.seed, noise_seed).normal(0.0, self.sigma, len(d))
        return (d > 0).astype(np.uint8)

    def with_sigma(self, sigma):
        return ArbiterPuf(self.seed, self.stages, sigma)

    def params(self):
        return {"stages": self.stages, "sigma": self.sigma}


class XorArbiterPuf(_DelayPuf):
    """XOR of k independent arbiter chains sharing the challenge."""

    kind = "xor"

    def __init__(self, seed, stages=64, chains=4, sigma=0.0):
        if not 1 <= chains <= 64:
            raise ValueError(f"chain count must be in [1, 64], got {chains}")
        self.seed = int(seed)
        self.stages = int(stages)
        self.num_chains = int(chains)
        self.sigma = float(sigma)
        self.chains = [
            ArbiterPuf(derive_seed("xor-chain", seed, i), stages, sigma)
            for i in range(chains)
        ]

    def margins(self, challenges):
        """Per-chain noiseless margins, stacked as (N, chains)."""
        phi = self.features(challenges)
        return np.stack([phi @ chain.weights for chain in self.chains], axis=1)

    def respond(self, phi, noise_seed=None):
        """XOR of the chains' bits for features phi; each chain draws its own noise."""
        acc = np.zeros(len(phi), dtype=np.uint8)
        for chain in self.chains:
            acc ^= chain.respond(phi, noise_seed)
        return acc

    def with_sigma(self, sigma):
        return XorArbiterPuf(self.seed, self.stages, self.num_chains, sigma)

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
        if cfg.get("version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported PUF config version {cfg.get('version')!r}")
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


def measure_reliability(puf, trials, seed, n_bits=127):
    """Fraction of read bits agreeing with the reference across fresh reads.

    Each trial draws a random inner challenge, performs one noisy read
    (n_bits wide, or one block for SRAM) and compares it to the noiseless
    reference.
    """
    if trials < 1000:
        raise ValueError("reliability estimates need at least 1000 trials")
    g = stream("reliability-challenges", seed)
    agree = 0
    total = 0
    for t in range(trials):
        c0, width = puf.draw_challenge(g, n_bits)
        ref = puf.read(c0, width)
        got = puf.read(c0, width, derive_seed("reliability-read", seed, t))
        agree += int(np.sum(ref == got))
        total += width
    return agree / total


def _expected_reliability(puf, sigma, margins):
    """Semi-analytic per-challenge agreement probability, averaged.

    For one arbiter chain the flip probability at margin d is
    P(sign flips) = 1 - ndtr(|d| / sigma); a XOR of k chains reproduces its
    reference bit exactly when an even number of chains flip, which has
    probability (1 + prod_k (1 - 2 q_k)) / 2.
    """
    if sigma == 0:
        return 1.0
    q = 1.0 - ndtr(np.abs(margins) / sigma)
    if margins.ndim == 1:
        return float(np.mean(1.0 - q))
    return float(np.mean((1.0 + np.prod(1.0 - 2.0 * q, axis=1)) / 2.0))


def calibrate_sigma(puf, target_reliability, trials=1000, seed=0, n_bits=127):
    """Find sigma so the puf's measured reliability hits the target.

    Bisection over sigma against the expected reliability evaluated on a
    Monte-Carlo challenge sample of trials * n_bits bits. Requires
    0.5 < target <= 1; noise can only pull reliability down toward 1/2.
    """
    if not 0.5 < target_reliability <= 1.0:
        raise ValueError(f"target reliability must be in (0.5, 1], got {target_reliability}")
    if target_reliability == 1.0:
        return 0.0
    margins = puf.sample_margins(stream("calibration-challenges", seed), trials * n_bits)

    lo, hi = 0.0, 1.0
    while _expected_reliability(puf, hi, margins) > target_reliability:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError(f"target reliability {target_reliability} unreachable")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _expected_reliability(puf, mid, margins) > target_reliability:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
