"""The output mux and why the hashed mode is the one you expose.

E=00 raw read, E=01 corrected R2, E=10 hashed R3 = H(R2 || C). The script
shows the three outputs for one system, then measures avalanche and bit
statistics of the hashed mode.
"""

import numpy as np

from risecure.buffer import select_output
from risecure.extractor import enroll, get_code
from risecure.hashing import bits_to_bytes, compose_response, unpredictability_report
from risecure.prng import stream
from risecure.puf import SramPuf

code = get_code("bch")
puf = SramPuf(seed=5, p=0.05)
helper, r2 = enroll(puf, 2, code, rng_seed=0)
outer = stream("demo-outer", 0).integers(0, 2, 128, dtype=np.uint8)

raw = select_output(0, puf, 2, code, noise_seed=1)
corrected = select_output(1, puf, 2, code, helper=helper, noise_seed=1)
hashed = select_output(2, puf, 2, code, helper=helper, outer_challenge=outer,
                       noise_seed=1)
print(f"raw       (127 bits): {bits_to_bytes(raw).hex()}")
print(f"corrected (127 bits): {bits_to_bytes(corrected).hex()}")
print(f"hashed    (256 bits): {bits_to_bytes(hashed).hex()}")
print(f"raw == corrected? {np.array_equal(raw, corrected)} "
      "(raw carries the read noise; corrected strips it)")
print()

# flip one outer-challenge bit and roughly half the digest flips
fractions = []
for i in range(128):
    c2 = outer.copy()
    c2[i] ^= 1
    fractions.append(np.mean(hashed ^ compose_response(r2, c2, 127)))
print(f"avalanche over all 128 single-bit challenge flips: "
      f"mean {np.mean(fractions):.3f}, min {min(fractions):.3f}, "
      f"max {max(fractions):.3f}")
print()

# batch statistics over distinct challenges
g = stream("demo-batch", 1)
digests = np.empty((2000, 256), dtype=np.uint8)
for i in range(2000):
    digests[i] = compose_response(r2, g.integers(0, 2, 128, dtype=np.uint8), 127)
rep = unpredictability_report(digests)
print("bit statistics over 2000 hashed responses:")
for k in ("ones_fraction", "monobit_z", "max_bit_bias_z", "serial_corr_z", "pass"):
    print(f"  {k}: {rep[k]}")
