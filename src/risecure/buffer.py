"""FIFO lookaside buffer caching error-corrected responses.

Keys are (puf id, inner challenge) pairs; entries hold the corrected R2
together with its helper data. A hit serves the cached pair and skips both
the PUF read and the ECC decode, which is where the batch-sampling speedup
comes from. Replacement is strict insertion-order FIFO: a hit does not
refresh an entry's position.

`sample_with_buffer` is the one route from a read to R2 and R3: it checks the
helper against the code, serves or reconstructs R2, and hashes it. The
output mux `select_output` sends the corrected and hashed modes through it.
"""

from collections import OrderedDict

from .extractor import reconstruct
from .hashing import compose_response
from .prng import checked_int, is_integer
from .puf import eval_raw


class LookasideBuffer:
    def __init__(self, capacity=16):
        """An empty FIFO; `capacity`, an integer >= 1 (numpy's too), else ValueError."""
        self.capacity = checked_int(capacity, "capacity", 1)
        self.entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.decode_calls = 0
        self.evictions = 0

    def __len__(self):
        return len(self.entries)

    def lookup(self, key):
        """Return the cached entry or None; updates hit/miss counters."""
        if key in self.entries:
            self.hits += 1
            return self.entries[key]
        self.misses += 1
        return None

    def insert(self, key, entry):
        """Add or replace an entry; evicts the oldest when over capacity."""
        self.entries[key] = entry  # a replaced key keeps its position
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def counters(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "decode_calls": self.decode_calls,
            "evictions": self.evictions,
        }


def sample_with_buffer(buf, puf, key, helper, code, mode="corrected",
                       outer_challenge=None, noise_seed=0):
    """Buffered sampling: serve R2 from cache, reconstruct only on a miss.

    `key` is (puf_id, c0); only its challenge half feeds the PUF. Returns R2
    (mode 'corrected'; read-only once cached) or R3 (mode 'hashed'); a failed
    reconstruction returns None and is never cached. When `buf` is None, a
    call runs a full reconstruction: the unbuffered baseline. Raises ValueError
    when `helper` is missing or was enrolled on another code than `code`.
    """
    if mode not in ("corrected", "hashed"):
        raise ValueError(f"mode must be 'corrected' or 'hashed', got {mode!r}")
    if helper is None:
        raise ValueError(f"mode {mode!r} requires helper data")
    if helper.code.code_id != code.code_id:
        raise ValueError(f"helper data is for code {helper.code.code_id}, not {code.code_id}")
    entry = buf.lookup(key) if buf is not None else None
    if entry is not None:
        r2, _ = entry
    else:
        r2 = reconstruct(puf, key[1], helper, noise_seed)
        if buf is not None:
            buf.decode_calls += 1
        if r2 is None:
            return None
        if buf is not None:
            r2.flags.writeable = False  # a hit hands out this array again
            buf.insert(key, (r2, helper))
    if mode == "corrected":
        return r2
    return compose_response(r2, outer_challenge, code.n_bits)


def select_output(mode, puf, c0, code, helper=None, outer_challenge=None, noise_seed=0):
    """Output mux over the 2-bit selector E, unbuffered.

    E=0 returns the raw response R1, E=1 the corrected R2, E=2 the hashed
    R3; E=3 is reserved and rejected. Modes 1 and 2 return None when
    reconstruction fails. E must be an integer, numpy integers included;
    anything else (a float, a string, a bool) raises ValueError.
    """
    if not is_integer(mode) or mode not in (0, 1, 2, 3):
        raise ValueError(f"selector must be a 2-bit value, got {mode!r}")
    if mode == 0:
        return eval_raw(puf, c0, noise_seed, code.n_bits)
    if mode == 3:
        raise ValueError("selector E=11 is reserved")
    if mode == 2 and outer_challenge is None:
        raise ValueError("mode E=10 requires an outer challenge")
    return sample_with_buffer(None, puf, (None, c0), helper, code,
                              "corrected" if mode == 1 else "hashed",
                              outer_challenge, noise_seed)
