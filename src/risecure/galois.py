"""GF(2^m) arithmetic and the systematic-code family behind both codecs.

The field is represented through exp/log tables built from a primitive
polynomial. Berlekamp-Massey adds logs from the list tables, and the
polynomial helpers and the Chien search gather from numpy copies.
Polynomials over the field are numpy int arrays in ascending order, so
``poly[i]`` is the coefficient of x^i.

`SystematicCode` is the whole code family. A narrow-sense binary BCH code
is the binary subfield subcode of the Reed-Solomon code over the same field
(MacWilliams & Sloane, ch. 10), so one formula gives both generators: the
product of (x - alpha^e) over e = 1..2t, closed under e -> e*2^s mod q-1,
where s is the symbol width (1 bit for BCH, m bits for RS, for which every
exponent is its own conjugate). The family encodes through a table of
packed GF(2) parity words, one row of 16 per 4-bit slice of the message
(table-driven encoding of a cyclic code, Sarwate, CACM 31(8), 1988),
decodes by syndromes, Berlekamp-Massey, a Chien search over all q-1
positions and (for RS) Forney to the codeword within t whenever one exists,
and owns the bit contract (`code_id`, `encode_bits`, `decode_bits`). For a
binary code S_2j = S_j^2, so it gathers only the t odd syndromes and runs
Berlekamp-Massey in t steps, not 2t. A codec is a parameter set: its family
name, its field, t and s.
"""

import numpy as np

# the two 4-bit slices of each byte value, high nibble first
_NIBBLES = np.array([[v >> 4, v & 15] for v in range(256)], dtype=np.intp)


class GF2m:
    """GF(2^m) defined by a primitive polynomial given as a bitmask."""

    def __init__(self, m: int, primitive_poly: int):
        self.m = m
        self.order = 1 << m
        self.primitive_poly = primitive_poly
        n = self.order - 1
        exp = [0] * (2 * n)
        log = [0] * self.order
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= primitive_poly
        if x != 1 or len(set(exp[:n])) != n:  # alpha visits all n nonzero elements, then 1
            raise ValueError(f"0x{primitive_poly:x} is not primitive for m={m}")
        exp[n:] = exp[:n]
        self.exp = exp
        self.log = log
        # numpy copies for the vectorized paths
        self.exp_np = np.array(exp, dtype=np.int64)
        self.log_np = np.array(log, dtype=np.int64)
        self._root_exps = np.zeros((0, n), dtype=np.int64)

    def root_exps(self, rows):
        """[i, p] = -i*p mod (q-1), the log of (alpha^-p)^i, for i < rows: Chien's exponents."""
        if len(self._root_exps) < rows:  # built once per row count reached, not per call
            n = self.order - 1
            self._root_exps = -np.arange(rows)[:, None] * np.arange(n) % n
        return self._root_exps

    # polynomial helpers (ascending coefficient arrays over this field)

    def poly_mul(self, p, q):
        """p*q: every nonzero product p_i q_j, XORed into out[i+j]."""
        p = np.asarray(p, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
        out = np.zeros(len(p) + len(q) - 1, dtype=np.int64)
        i, j = np.nonzero(p)[0][:, None], np.nonzero(q)[0]
        terms = self.exp_np[self.log_np[p[i]] + self.log_np[q[j]]]
        np.bitwise_xor.at(out, i + j, terms)
        return out

    def poly_eval_many(self, p, xs):
        """Evaluate p at every point of the 1-D array xs: XOR over i of
        exp[(log p_i + i * log x) mod (q-1)], with p(0) = p_0."""
        p = np.asarray(p, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.int64)
        i = np.nonzero(p)[0][:, None]
        terms = self.exp_np[(self.log_np[p[i]] + i * self.log_np[xs]) % (self.order - 1)]
        out = np.bitwise_xor.reduce(terms, axis=0)
        out[xs == 0] = p[0]
        return out


def checked_word(word, length, width, name) -> np.ndarray:
    """word as `length` integers in [0, 2^width): uint8 at width 1, else int64.

    Checked before any cast, so a wide or negative value raises ValueError
    instead of wrapping or indexing past a table, as do a wrong length and
    a non-integer dtype. Codecs and the hash stage take their inputs
    through it.
    """
    word = np.asarray(word)
    kind = word.dtype.kind
    if word.shape != (length,):
        unit = "bits" if width == 1 else f"{width}-bit symbols"
        raise ValueError(f"{name} must be {length} {unit}, got shape {word.shape}")
    if kind not in "biu":
        raise ValueError(f"{name} must be an integer array, got dtype {word.dtype}")
    # word[word.argmax()] is word.max() without the Python wrapper around max,
    # which costs more than the scan on a word this short
    if kind != "b" and (word[word.argmax()] >> width or kind == "i" and word[word.argmin()] < 0):
        raise ValueError(f"{name} values must be in [0, {1 << width}), "
                         f"got [{word.min()}, {word.max()}]")
    return word.astype(np.uint8 if width == 1 else np.int64, copy=False)


def berlekamp_massey(field: GF2m, syndromes, binary=False):
    """Find the shortest LFSR (error locator) generating the syndrome sequence.

    Returns the connection polynomial Lambda as an ascending int array with
    Lambda[0] == 1, and its LFSR length L. Each nonzero discrepancy updates
    Lambda once, in one loop; when L grows, the branch only swaps registers
    so that the old Lambda becomes the reference. Products add logs and skip
    zero terms; deg(Lambda) <= L bounds both inner loops. A value outside
    [0, 2^m) raises ValueError. binary=True requires the syndromes S_1..S_2t
    of a binary word: S_2j = S_j^2 makes every discrepancy at an even j zero
    (Berlekamp 1968; Lin & Costello, 2nd ed., 6.2), so only the t odd steps
    run, with the same result.
    """
    exp, log, q1 = field.exp, field.log, field.order - 1
    s = checked_word(syndromes, len(syndromes), field.m, "syndromes").tolist()
    slog = [log[v] if v else None for v in s]
    n = len(s)
    step = 2 if binary else 1
    lam = [1] + [0] * n
    prev = [(0, 0)]  # (i, log) of each nonzero coefficient of the reference register
    l, shift, lb = 0, 1, 0  # lb: log of the last nonzero discrepancy
    for r in range(0, n, step):
        d = s[r]
        for i in range(1, l + 1):
            c, sl = lam[i], slog[r - i]
            if c and sl is not None:
                d ^= exp[log[c] + sl]
        if d:
            coef = (log[d] - lb) % q1
            nxt = lam[:]
            for i, lp in prev:
                nxt[i + shift] ^= exp[coef + lp]
            if 2 * l <= r:  # L grows
                prev = [(i, log[c]) for i, c in enumerate(lam[: l + 1]) if c]
                l, lb, shift = r + 1 - l, log[d], 0
            lam = nxt
        shift += step
    deg = max(i for i in range(l + 1) if lam[i])
    return np.array(lam[: deg + 1], dtype=np.int64), l


def locator_roots(field: GF2m, lam):
    """Chien search: the sorted error positions i with Lambda(alpha^-i) == 0.

    Positions cover the whole multiplicative group, [0, q-1), which is the
    length of every SystematicCode, so a decoder compares their count with
    deg(Lambda) to reject bogus locators. Exponents come from the field's
    table. A coefficient outside [0, 2^m) raises ValueError.
    """
    lam = checked_word(lam, len(lam), field.m, "lam")
    i = np.nonzero(lam)[0]
    terms = field.exp_np[field.log_np[lam[i]][:, None] + field.root_exps(len(lam))[i]]
    return np.nonzero(np.bitwise_xor.reduce(terms, axis=0) == 0)[0]


class SystematicCode:
    """Systematic code of length q-1 whose generator has roots alpha^1..alpha^2t.

    Words are symbol arrays in ascending-power order, parity first; as bits,
    each symbol takes s bits, most significant first. A codec names its
    `family`, passes its field, t and symbol width s to __init__, and
    defines its public symbol-level encode, syndromes and decode on the
    underscore helpers, taking each word through `checked_word`. `code_id`,
    `n_bits` and `k_bits` are set once, in __init__.
    """

    family = None  # "bch" or "rs": the first part of code_id

    # read-only parity tables shared by codes with equal parameters; the
    # table is most of a code's memory (223 KB for RS(255,223))
    _parity_tables = {}

    def __init__(self, field: GF2m, t: int, s: int):
        self.field = field
        self.t = t
        self.s = s
        self.n = field.order - 1
        # roots alpha^e for e = 1..2t and their conjugates e * 2^(s*i) mod n;
        # i < m reaches them all, since 2^m = 1 mod n
        roots = {(e << s * i) % self.n for e in range(1, 2 * t + 1) for i in range(field.m)}
        g = np.array([1], dtype=np.int64)
        for e in sorted(roots):
            g = field.poly_mul(g, [field.exp[e], 1])
        if (g >> s).any():
            raise AssertionError(f"generator coefficients wider than {s} bits")
        self.generator = g
        r = len(g) - 1
        self.k = self.n - r
        self.n_bits, self.k_bits = self.n * s, self.k * s
        self.code_id = f"{self.family}-{self.n}-{self.k}-{t}"
        key = (field.m, field.primitive_poly, s, t)
        if key not in self._parity_tables:
            # GF(2) parity bits of each message bit: message symbol i with
            # value 2^b = alpha^b adds alpha^b * (x^(r+i) mod g) to the parity.
            # Zero rows pad the message to whole bytes, zero columns the
            # parity to whole 64-bit words.
            parity = np.zeros((-(-self.k * s // 8) * 8, -(-r * s // 64) * 64), dtype=np.uint8)
            rem = g = g[:r]  # x^r mod g
            shifts = np.arange(s - 1, -1, -1)[:, None]
            for i in range(self.k):
                rows = np.where(rem != 0, field.exp_np[field.log_np[rem] + shifts], 0)
                parity[i * s : (i + 1) * s, : r * s] = self._bits(rows)
                rem = np.concatenate([[0], rem[:-1]]) ^ field.poly_mul([rem[-1]], g)
            # entry [j, v] XORs the packed parity words of the set bits of v
            # in slice j (most significant first), built by doubling over the
            # four bits; stored word-major, so word w of [j, v] is [w, 16j + v]
            packed = np.packbits(parity, axis=1).view(np.uint64).T.reshape(-1, len(parity) // 4, 4)
            table = np.zeros((*packed.shape[:2], 16), dtype=np.uint64)
            for b in range(4):
                table[..., 1 << b : 2 << b] = table[..., : 1 << b] ^ packed[..., 3 - b, None]
            table.flags.writeable = False
            self._parity_tables[key] = table.reshape(len(table), -1)
        self._parity = self._parity_tables[key]
        self._slice_cols = np.arange(0, self._parity.shape[1], 16)  # first column of each slice
        j = np.arange(1, 2 * t + 1, dtype=np.int64)
        if s == 1:
            # rows alpha^(j*i) for the t odd j; S_j for j = o * 2^a is S_o^(2^a),
            # _powers[S_o, j-1] = alpha^(log S_o * 2^a mod (q-1)), 0 for S_o = 0
            self._odd_rows = field.exp_np[j[::2, None] * np.arange(self.n) % self.n]
            self._odd_of, self._cols = j // (j & -j) // 2, j - 1  # row of o, column of j
            self._powers = field.exp_np[field.log_np[:, None] * (j & -j) % self.n]
            self._powers[0] = 0
        else:  # syndrome exponents: entry [j-1, i] = j*i mod (q-1), j = 1..2t
            self._synd_exps = j[:, None] * np.arange(self.n) % self.n

    def _bits(self, syms) -> np.ndarray:
        """Symbols to s bits each, most significant first, along the last axis."""
        if self.s == 8:  # unpackbits gives the same bits in a fraction of the time
            return np.unpackbits(np.asarray(syms, dtype=np.uint8), axis=-1)
        syms = np.asarray(syms, dtype=np.int64)
        bits = (syms[..., None] >> np.arange(self.s - 1, -1, -1)) & 1
        return bits.reshape(*syms.shape[:-1], -1).astype(np.uint8)

    def _symbols(self, bits) -> np.ndarray:
        """Inverse of _bits for a 1-D bit vector."""
        if self.s == 8:
            return np.packbits(bits).astype(np.int64)
        bits = np.asarray(bits, dtype=np.int64).reshape(-1, self.s)
        return bits @ (1 << np.arange(self.s - 1, -1, -1))

    def _encode_bits(self, msg_bits) -> np.ndarray:
        """Codeword bits [parity, message] for k_bits uint8 message bits:
        one table entry per 4-bit slice of the packed message, XORed."""
        cols = _NIBBLES.take(np.packbits(msg_bits), axis=0).ravel()
        cols += self._slice_cols
        parity = np.bitwise_xor.reduce(self._parity.take(cols, axis=1), axis=1).view(np.uint8)
        return np.concatenate([np.unpackbits(parity, count=(self.n - self.k) * self.s), msg_bits])

    def encode_bits(self, msg_bits) -> np.ndarray:
        """Codeword bits for a k_bits message; bits map to symbols MSB first."""
        return self._encode_bits(checked_word(msg_bits, self.k_bits, 1, "message"))

    def decode_bits(self, rx_bits):
        """Message bits of the codeword within t symbols of rx_bits, or None."""
        bits = checked_word(rx_bits, self.n_bits, 1, "received word")
        msg = self.decode(self._symbols(bits))
        if msg is None:
            return None
        return self._bits(msg)

    def _syndromes(self, rx) -> np.ndarray:
        """S_j = rx(alpha^j) for j = 1..2t, one gather over the nonzero symbols;
        for s = 1 over the t odd j only, since then S_2j = S_j^2."""
        nz = np.nonzero(rx)[0]
        if self.s == 1:
            odd = np.bitwise_xor.reduce(self._odd_rows[:, nz], axis=1)
            return self._powers[odd[self._odd_of], self._cols]
        terms = self.field.exp_np[self.field.log_np[rx[nz]] + self._synd_exps[:, nz]]
        return np.bitwise_xor.reduce(terms, axis=1)

    def _correct(self, rx):
        """Message symbols of the codeword within t symbols of rx, or None.

        Only two checks can reject: Berlekamp-Massey's LFSR length l must be
        at most t and equal deg(Lambda), and the Chien search must find l
        roots X_i^-1. They suffice: Lambda then generates S_j = sum Y_i X_i^j
        for j = 1..2t with every Y_i nonzero (a zero Y_i would give a shorter
        LFSR), so removing the Y_i zeroes all 2t syndromes. For s = 1 the
        binary input gives S_2j = S_j^2, so each Y_i is in GF(2), hence 1:
        the located bits flip. For RS (s = m), Forney with first root alpha^1
        gives Y_i = Omega(X_i^-1) / Lambda'(X_i^-1), Omega = S Lambda mod x^2t.
        """
        field, t = self.field, self.t
        synd = self.syndromes(rx)
        if not synd.any():
            return rx[self.n - self.k :].copy()
        lam, l = berlekamp_massey(field, synd, binary=self.s == 1)
        if l > t or len(lam) - 1 != l:
            return None
        pos = locator_roots(field, lam)
        if len(pos) != l:
            return None
        fixed = rx.copy()
        if self.s == 1:
            fixed[pos] ^= 1
        else:
            omega = field.poly_mul(synd, lam)[: 2 * t]
            lam_deriv = lam[1:].copy()
            lam_deriv[1::2] = 0  # formal derivative keeps odd-degree terms
            x_inv = field.exp_np[-pos % self.n]
            num = field.poly_eval_many(omega, x_inv)
            den = field.poly_eval_many(lam_deriv, x_inv)
            fixed[pos] ^= field.exp_np[(field.log_np[num] - field.log_np[den]) % self.n]
        return fixed[self.n - self.k :]
