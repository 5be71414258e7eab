"""The benchmark's workloads: inputs from the seed, set-up, one op, its check.

Each workload drives the public risecure API from one thread as a closed
loop with one client. Calls inside an op go through module attributes
(``buffer.sample_with_buffer``, ``prng.derive_seed``) so the tracer's
wrappers see them. The harness calls, per op i:

    prepare(i)      untimed: stage the request
    op(i)           timed: the work a user waits for, returns a log
    check(i, log)   untimed: verify every output against an independent
                    oracle and update the exact counters

Counters and the output digest cover the first `check_ops` ops only, so
they repeat exactly whatever the run length; outputs are checked on every
op. Decode failures are retried with a fresh read, as key-store software
does; a sample fails only if every attempt fails, and every failed attempt
must carry more errors than the code corrects.
"""

import hashlib
from collections import Counter, OrderedDict

import numpy as np

from risecure import bch, buffer, extractor, hashing, isa, prng, puf, reed_solomon

MAX_ATTEMPTS = 4
CHUNK = 1024  # ops drawn from the seed at a time
OUTER_POOL = 64  # distinct outer challenges per library workload


def zipf_weights(n, s):
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


def sha3_r3(r1_bits, c_bytes):
    """Expected R3 bytes, computed without risecure.hashing."""
    return hashlib.sha3_256(np.packbits(r1_bits).tobytes() + c_bytes).digest()


class ShadowFifo:
    """Independent model of the FIFO lookaside buffer's hit/miss decisions."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.keys = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def lookup(self, key):
        if key in self.keys:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key):
        if key in self.keys:
            return
        self.keys[key] = None
        if len(self.keys) > self.capacity:
            self.keys.popitem(last=False)
            self.evictions += 1

    def counters(self):
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class Workload:
    """Shared bookkeeping: schedule chunks, digest, window counters."""

    name = ""
    samples_per_op = 1
    check_ops = 0
    t = 0  # errors the code corrects, for headroom
    tally_keys = ("sample_attempts", "decode_failures")

    def __init__(self, seed, check_ops=None):
        self.seed = int(seed)
        if check_ops is not None:
            self.check_ops = int(check_ops)
        self._chunks = {}
        self.errors = []

    def schedule(self, i):
        c = i // CHUNK
        if c not in self._chunks:
            self._chunks = {c: self.draw(np.random.default_rng([self.seed, self.sid, c]))}
        return {k: v[i % CHUNK] for k, v in self._chunks[c].items()}

    def draw(self, rng):
        raise NotImplementedError

    def prepare(self, i):
        pass

    def fail(self, msg):
        if len(self.errors) < 20:
            self.errors.append(msg)

    def begin_checks(self):
        """Untimed: reset the digest and counters after the final set-up."""
        self.digest = hashlib.sha256()
        self.tally = Counter(dict.fromkeys(self.tally_keys, 0))
        self.weights = Counter()
        self.window_reads = []  # (puf, c0, noise seed, R1) of each decode in the window
        self.failed_reads = []  # the same for every failed decode in the run
        self.in_window = True

    def record_read(self, read, failed):
        if self.in_window:
            self.window_reads.append(read)
        if failed:
            self.failed_reads.append(read)

    def close_window(self):
        self.in_window = False
        self.window_counters = self.program_counters()

    def error_weight(self, p, c0, noise_seed, r1):
        raw = puf.eval_raw(p, c0, noise_seed, len(r1)) ^ r1
        if self.symbol_bits > 1:
            return int(np.count_nonzero(np.packbits(raw)))
        return int(raw.sum())

    def finish(self):
        """Untimed: error weights over the window, failed-decode audit."""
        for read in self.window_reads:
            self.weights[self.error_weight(*read)] += 1
        for read in self.failed_reads:
            w = self.error_weight(*read)
            if w <= self.t:
                self.fail(f"decode failed at error weight {w} <= t={self.t}")
        self.final_checks()

    def counters(self):
        """Exact simulated counters over the check window."""
        decodes = sum(self.weights.values())
        out = dict(sorted(self.tally.items()))
        out.update(self.window_counters)
        out["error_weight_hist"] = {str(w): n for w, n in sorted(self.weights.items())}
        out["decode_attempts"] = decodes
        return out

    def layer_ratios(self):
        c = self.counters()
        decodes = c["decode_attempts"]
        weights = self.weights
        mean = sum(w * n for w, n in weights.items()) / decodes if decodes else 0.0
        return {
            "extractor.decode_ok_ratio": (decodes - c["decode_failures"]) / decodes if decodes else 1.0,
            "extractor.error_weight_mean": mean,
            "extractor.headroom_min": self.t - max(weights) if weights else self.t,
            "fail_frac": (c["decode_failures"] + c.get("status_nonzero", 0)) / c["sample_attempts"],
        }


class _LibraryWorkload(Workload):
    """Hashed samples through `buffer.sample_with_buffer`, one PUF."""

    capacity = None  # None: unbuffered, every sample reconstructs
    tally_keys = ("sample_attempts", "decode_failures", "enrolls")

    def _sample(self, log, i, j, k, c):
        key = self.keys[k]
        for attempt in range(MAX_ATTEMPTS):
            ns = prng.derive_seed("perfbench-read", self.seed, i, j, attempt)
            r3 = buffer.sample_with_buffer(
                self.buf, self.puf, key, self.helpers[k], self.code, mode="hashed",
                outer_challenge=self.outer[c], noise_seed=ns)
            log.append((j, k, c, ns, r3))
            if r3 is not None:
                return

    def begin_checks(self):
        super().begin_checks()
        self.r1 = [puf.reference_response(self.puf, key[1], self.code.n_bits) for key in self.keys]
        if any(not np.array_equal(a, b) for a, b in zip(self.r1, self.enrolled_r1)):
            self.fail("enroll returned an R2 other than the reference response")
        self.outer_bytes = [np.packbits(c).tobytes() for c in self.outer]
        self.expected = {}
        self.shadow = ShadowFifo(self.capacity) if self.capacity else None
        for k, ns, ok in self.warm_log:
            self._shadow_access(k, ok)

    def _shadow_access(self, k, ok):
        if self.shadow is None:
            return False
        hit = self.shadow.lookup(k)
        if not hit and ok:
            self.shadow.insert(k)
        return hit

    def check(self, i, log):
        delivered = 0
        failed = False
        last = {}
        for entry in log:
            if entry[0] == "enroll":
                _, k, r2 = entry
                self.tally["enrolls"] += self.in_window
                if not np.array_equal(r2, self.r1[k]):
                    self.fail(f"op {i}: re-enroll of key {k} returned a different R2")
                if self.shadow is not None:
                    self.shadow.insert(k)
                continue
            j, k, c, ns, r3 = entry
            hit = self._shadow_access(k, r3 is not None)
            if self.in_window:
                self.tally["sample_attempts"] += 1
            if not hit:
                self.record_read((self.puf, self.keys[k][1], ns, self.r1[k]), r3 is None)
            if r3 is None:
                if hit:
                    self.fail(f"op {i}: decode failure reported on a buffer hit")
                self.tally["decode_failures"] += self.in_window
                last[j] = None
                continue
            got = np.packbits(r3).tobytes()
            want = self.expected.get((k, c))
            if want is None:
                want = self.expected[(k, c)] = sha3_r3(self.r1[k], self.outer_bytes[c])
            if got != want:
                self.fail(f"op {i} sample {j}: R3 differs from H(R1 || C)")
            last[j] = got
        for j in sorted(last):
            if last[j] is None:
                failed = True
            else:
                delivered += 1
            if self.in_window:
                self.digest.update(last[j] if last[j] is not None else b"\0failed")
        return delivered, failed

    def program_counters(self):
        if self.buf is None:
            return {"hits": 0, "misses": 0, "evictions": 0, "decode_calls": 0}
        return dict(self.buf.counters())

    def final_checks(self):
        if self.shadow is not None:
            got = self.program_counters()
            got.pop("decode_calls")
            if got != self.shadow.counters():
                self.fail(f"buffer counters {got} differ from the FIFO model {self.shadow.counters()}")
            if self.buf.decode_calls != self.shadow.misses:
                self.fail("buffer decode_calls differs from the number of misses")


class RsArbiterUnbuffered(_LibraryWorkload):
    """One hashed sample of a pre-enrolled arbiter key on RS(255,223), no buffer.

    Error counts differ a lot from key to key (a mean of 2 to 7 symbols at
    99.76%), so each op draws one of 16 pre-enrolled keys: one key's noise
    tail would otherwise decide op_p99_us for the whole seed.
    """

    name = "rs-arbiter-unbuffered"
    sid = 1
    check_ops = 300
    pool = 16
    t = 16
    symbol_bits = 8

    def draw(self, rng):
        return {"k": rng.integers(0, self.pool, CHUNK), "c": rng.integers(0, OUTER_POOL, CHUNK)}

    def setup(self):
        rng = np.random.default_rng([self.seed, self.sid])
        self.code = reed_solomon.ReedSolomonCode()
        pseed = prng.derive_seed("perfbench-arbiter", self.seed)
        sigma = puf.calibrate_sigma(puf.ArbiterPuf(pseed), 0.9976, trials=100, seed=self.seed)
        self.puf = puf.ArbiterPuf(pseed, sigma=sigma)
        self.keys = [(0, int(c)) for c in rng.integers(0, 1 << 63, self.pool)]
        self.helpers = []
        self.enrolled_r1 = []
        for k, key in enumerate(self.keys):
            helper, r1 = extractor.enroll(self.puf, key[1], self.code,
                                          prng.derive_seed("perfbench-enroll", self.seed, k))
            self.helpers.append(helper)
            self.enrolled_r1.append(r1)
        self.outer = rng.integers(0, 2, (OUTER_POOL, 128), dtype=np.uint8)
        self.buf = None
        self.warm_log = []

    def op(self, i):
        s = self.schedule(i)
        log = []
        self._sample(log, i, 0, int(s["k"]), int(s["c"]))
        return log


class BchSramBatch16(_LibraryWorkload):
    """A batch of 16 hashed samples through a warmed capacity-16 FIFO buffer.

    64 SRAM blocks at p=0.05 on BCH(127,36,15), popularity Zipf(1.2), so the
    FIFO hit ratio settles near 0.64; every 8th batch re-enrolls one block.
    """

    name = "bch-sram-batch16"
    sid = 2
    samples_per_op = 16
    check_ops = 1000
    capacity = 16
    pool = 64
    zipf_s = 1.2
    reenroll_every = 8
    t = 15
    symbol_bits = 1

    def draw(self, rng):
        rank = rng.choice(self.pool, size=(CHUNK, self.samples_per_op), p=zipf_weights(self.pool, self.zipf_s))
        return {
            "k": self.by_rank[rank],
            "c": rng.integers(0, OUTER_POOL, (CHUNK, self.samples_per_op)),
            "enroll": rng.integers(0, self.pool, CHUNK),
        }

    def setup(self):
        rng = np.random.default_rng([self.seed, self.sid])
        self.by_rank = rng.permutation(self.pool)
        self.code = bch.BchCode()
        self.puf = puf.SramPuf(prng.derive_seed("perfbench-sram", self.seed), num_blocks=self.pool,
                               block_bits=self.code.n_bits, p=0.05)
        self.keys = [(0, b) for b in range(self.pool)]
        self.helpers = []
        self.enrolled_r1 = []
        for k, key in enumerate(self.keys):
            helper, r1 = extractor.enroll(self.puf, key[1], self.code,
                                          prng.derive_seed("perfbench-enroll", self.seed, k))
            self.helpers.append(helper)
            self.enrolled_r1.append(r1)
        self.outer = rng.integers(0, 2, (OUTER_POOL, 128), dtype=np.uint8)
        self.buf = buffer.LookasideBuffer(self.capacity)
        # warm the FIFO with the most popular keys, least popular first
        self.warm_log = []
        for j, k in enumerate(self.by_rank[: self.capacity][::-1]):
            log = []
            self._sample(log, -1, j, int(k), 0)
            self.warm_log += [(e[1], e[3], e[4] is not None) for e in log]

    def op(self, i):
        s = self.schedule(i)
        log = []
        if i % self.reenroll_every == self.reenroll_every - 1:
            k = int(s["enroll"])
            key = self.keys[k]
            helper, r2 = extractor.enroll(self.puf, key[1], self.code,
                                          prng.derive_seed("perfbench-reenroll", self.seed, i))
            self.helpers[k] = helper
            self.buf.insert(key, (r2, helper))
            log.append(("enroll", k, r2))
        ks, cs = s["k"], s["c"]
        for j in range(self.samples_per_op):
            self._sample(log, i, j, int(ks[j]), int(cs[j]))
        return log


# --- ISA firmware ----------------------------------------------------------

BASE = 0x1000  # request block; the other blocks sit at fixed offsets from it
ROT, CHAL, OUT, RES = 0x100, 0x200, 0x300, 0x400
MASK32 = 0xFFFFFFFF


def _bne(rs1, rs2, offset):
    return isa.asm_beq(rs1, rs2, offset) | (0b001 << 12)


def _xor(rd, rs1, rs2):
    return isa.asm_r(0b0110011, 0b100, 0, rd, rs1, rs2)


def _slli(rd, rs1, sh):
    return isa.asm_i(0b0010011, 0b001, rd, rs1, sh)


def _srli(rd, rs1, sh):
    return isa.asm_i(0b0010011, 0b101, rd, rs1, sh)


def assemble_handler():
    """RV32I request handler.

    Request at BASE: idx, nonce, rotate flag, new c0 (lo, hi). If the flag
    is set, re-enroll idx at the new c0 (inner_puf_init). Then build the
    128-bit outer challenge as four xorshift32 steps from the nonce, issue
    outer_puf_chal, and on status 0 XOR-fold the 32-byte R3 with lw.
    Results at BASE+RES: init status, challenge status, fold.
    """
    lw, sw, addi = isa.asm_lw, isa.asm_sw, isa.asm_addi
    rot = [lw(6, 8, 0), sw(8, 6, ROT), lw(7, 8, 12), sw(8, 7, ROT + 4), lw(7, 8, 16),
           sw(8, 7, ROT + 8), addi(10, 8, ROT), isa.asm_inner_puf_init(11, 10), sw(8, 11, RES)]
    mix = [_slli(13, 12, 13), _xor(12, 12, 13), _srli(13, 12, 17), _xor(12, 12, 13),
           _slli(13, 12, 5), _xor(12, 12, 13), sw(15, 12, 0), addi(15, 15, 4), addi(14, 14, -1)]
    mix.append(_bne(14, 0, -4 * len(mix)))
    chal = [lw(6, 8, 0), sw(8, 6, CHAL), lw(12, 8, 4), addi(14, 0, 4), addi(15, 8, CHAL + 4),
            *mix, addi(10, 8, CHAL), addi(11, 8, OUT), isa.asm_outer_puf_chal(9, 10, 11),
            sw(8, 9, RES + 4)]
    fold_loop = [lw(17, 11, 0), _xor(16, 16, 17), addi(11, 11, 4), addi(14, 14, -1)]
    fold_loop.append(_bne(14, 0, -4 * len(fold_loop)))
    fold = [addi(16, 0, 0), addi(14, 0, 8), *fold_loop, sw(8, 16, RES + 8)]
    return [*isa.li32(8, BASE), lw(5, 8, 8), isa.asm_beq(5, 0, 4 * (len(rot) + 1)), *rot,
            *chal, _bne(9, 0, 4 * (len(fold) + 1)), *fold, isa.asm_ebreak()]


def outer_challenge_bytes(nonce):
    """Python model of the handler's challenge construction."""
    x = nonce
    words = []
    for _ in range(4):
        x ^= (x << 13) & MASK32
        x ^= x >> 17
        x ^= (x << 5) & MASK32
        words.append(x.to_bytes(4, "little"))
    return b"".join(words)


class IsaFirmware(Workload):
    """One `isa.run` of the request handler on a PufDevice.

    32 XOR-arbiter indices (99.52%) on BCH with a capacity-16 buffer,
    popularity Zipf(1.2), so the hit ratio settles near 0.78; 2% of
    requests rotate their key first.
    """

    name = "isa-firmware"
    sid = 3
    check_ops = 3000
    indices = 32
    capacity = 16
    zipf_s = 1.2
    rotate_share = 0.02
    tally_keys = ("requests", "sample_attempts", "rotations", "retired_instr", "custom_instr",
                  "status_nonzero", "decode_failures")
    t = 15
    symbol_bits = 1

    def draw(self, rng):
        rank = rng.choice(self.indices, size=CHUNK, p=zipf_weights(self.indices, self.zipf_s))
        return {
            "idx": self.by_rank[rank],
            "nonce": rng.integers(1, 1 << 32, CHUNK),
            "rotate": rng.random(CHUNK) < self.rotate_share,
            "c0": rng.integers(0, 1 << 63, CHUNK),
        }

    def _device(self, code):
        dev = isa.PufDevice(code, seed=self.device_seed, capacity=self.capacity)
        for idx, p in enumerate(self.pufs):
            dev.register(idx, p)
        for idx, c0 in enumerate(self.initial_c0):
            dev.enroll_idx(idx, c0)
        return dev

    def setup(self):
        rng = np.random.default_rng([self.seed, self.sid])
        self.by_rank = rng.permutation(self.indices)
        code = bch.BchCode()
        pseeds = [prng.derive_seed("perfbench-xor", self.seed, i) for i in range(self.indices)]
        sigma = puf.calibrate_sigma(puf.XorArbiterPuf(pseeds[0]), 0.9952, trials=100, seed=self.seed)
        self.pufs = [puf.XorArbiterPuf(s, sigma=sigma) for s in pseeds]
        self.initial_c0 = [int(c) for c in rng.integers(0, 1 << 63, self.indices)]
        self.device_seed = prng.derive_seed("perfbench-device", self.seed)
        self.device = self._device(code)
        self.state = isa.MachineState(memory_size=1 << 16, device=self.device)
        self.state.load_words(0, assemble_handler())

    def prepare(self, i):
        s = self.schedule(i)
        st = self.state
        st.regs[:] = [0] * 32
        st.pc = 0
        st.status = "continue"
        st.trap_cause = None
        c0 = int(s["c0"])
        st.load_words(BASE, [int(s["idx"]), int(s["nonce"]), int(s["rotate"]), c0 & MASK32, c0 >> 32])
        st.mem_write(BASE + OUT, bytes(32))
        st.mem_write(BASE + RES, bytes(12))

    def op(self, i):
        return isa.run(self.state)

    def _path_table(self):
        """Retired and custom instructions per handler path, by stepping it."""
        dev = isa.PufDevice(self.device.code, seed=0, capacity=1)
        dev.register(0, self.pufs[0])
        dev.enroll_idx(0, self.initial_c0[0])
        table = {}
        for rotate in (0, 1):
            for idx, ok in ((0, True), (self.indices, False)):
                st = isa.MachineState(memory_size=1 << 16, device=dev)
                st.load_words(0, assemble_handler())
                st.load_words(BASE, [idx, 1, rotate, self.initial_c0[0] & MASK32, self.initial_c0[0] >> 32])
                retired = custom = 0
                while st.status == "continue":
                    custom += st.memory[st.pc] & 0x7F == isa.CUSTOM_OPCODE
                    if isa.step(st) == "trap":
                        self.fail(f"handler trapped on path {rotate, ok}: {st.trap_cause}")
                        break
                    retired += 1
                table[(rotate, ok)] = (retired, custom)
        return table

    def begin_checks(self):
        super().begin_checks()
        self.paths = self._path_table()
        self.replay = self._device(self.device.code)
        self.r1 = {}

    def _r1(self, idx, c0):
        if (idx, c0) not in self.r1:
            self.r1[(idx, c0)] = puf.reference_response(self.pufs[idx], c0, self.device.code.n_bits)
        return self.r1[(idx, c0)]

    def check(self, i, status):
        s = self.schedule(i)
        idx, rotate = int(s["idx"]), int(s["rotate"])
        mem = self.state.memory
        init_status = int.from_bytes(mem[BASE + RES: BASE + RES + 4], "little")
        chal_status = int.from_bytes(mem[BASE + RES + 4: BASE + RES + 8], "little")
        fold = int.from_bytes(mem[BASE + RES + 8: BASE + RES + 12], "little")
        out = bytes(mem[BASE + OUT: BASE + OUT + 32])
        if status != "halted":
            self.fail(f"op {i}: handler ended with {status}: {self.state.trap_cause}")
            return 0, True

        rep = self.replay
        c_bytes = outer_challenge_bytes(int(s["nonce"]))
        if rotate:
            rep.enroll_idx(idx, int(s["c0"]))
        misses = rep.buffer.misses
        r3 = rep.sample_r3(idx, hashing.bytes_to_bits(c_bytes))
        c0 = rep.enrolled_c0[idx]
        if rep.buffer.misses != misses:
            ns = prng.derive_seed("device-read", rep.seed, rep.read_count - 1)
            self.record_read((self.pufs[idx], c0, ns, self._r1(idx, c0)), r3 is None)
        want_status = 0 if r3 is not None else 4
        if chal_status != want_status or (rotate and init_status != 0):
            self.fail(f"op {i}: status {chal_status} (init {init_status}), replay gives {want_status}")
        if r3 is not None:
            want = sha3_r3(self._r1(idx, c0), c_bytes)
            if out != want or out != hashing.bits_to_bytes(r3):
                self.fail(f"op {i}: R3 differs from the replay or from H(R1 || C)")
            words = np.frombuffer(want, dtype="<u4")
            if fold != int(np.bitwise_xor.reduce(words)):
                self.fail(f"op {i}: firmware fold differs from the R3 fold")

        if self.in_window:
            retired, custom = self.paths[(rotate, chal_status == 0)]
            t = self.tally
            t["requests"] += 1
            t["sample_attempts"] += 1
            t["rotations"] += rotate
            t["retired_instr"] += retired
            t["custom_instr"] += custom
            t[f"status_outer_{chal_status}"] += 1
            if rotate:
                t[f"status_init_{init_status}"] += 1
            t["status_nonzero"] += (chal_status != 0) + (rotate and init_status != 0)
            t["decode_failures"] += chal_status == 4
            self.digest.update(out + chal_status.to_bytes(4, "little") + fold.to_bytes(4, "little"))
        return int(chal_status == 0), chal_status != 0 or init_status != 0

    def program_counters(self):
        return dict(self.device.buffer.counters())

    def final_checks(self):
        got, want = self.program_counters(), dict(self.replay.buffer.counters())
        if got != want:
            self.fail(f"device buffer counters {got} differ from the library replay {want}")


WORKLOADS = {w.name: w for w in (RsArbiterUnbuffered, BchSramBatch16, IsaFirmware)}
