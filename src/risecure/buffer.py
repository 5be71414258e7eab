"""FIFO lookaside buffer caching error-corrected responses.

Keys are (puf id, inner challenge) pairs; entries hold the corrected R2
together with its helper data. A hit serves the cached pair and skips both
the PUF read and the ECC decode, which is where the batch-sampling speedup
comes from. Replacement is strict insertion-order FIFO: a hit does not
refresh an entry's position.
"""

from collections import OrderedDict

from .extractor import reconstruct
from .hashing import compose_response


class LookasideBuffer:
    def __init__(self, capacity=16):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
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
        if key in self.entries:
            self.entries[key] = entry  # replace in place, keep position
            return
        self.entries[key] = entry
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
                       outer_challenge=None, noise_seed=0, hash_name="sha3-256"):
    """Buffered sampling: serve R2 from cache, reconstruct only on a miss.

    `key` is (puf_id, c0); only its challenge half feeds the PUF. Returns R2
    (mode 'corrected') or R3 (mode 'hashed'); a failed reconstruction
    returns None and is never cached. When `buf` is None, every call runs a
    full reconstruction, which is the unbuffered baseline.
    """
    if mode not in ("corrected", "hashed"):
        raise ValueError(f"mode must be 'corrected' or 'hashed', got {mode!r}")
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
            buf.insert(key, (r2, helper))
    if mode == "corrected":
        return r2
    return compose_response(r2, outer_challenge, code.n_bits, hash_name)
