"""GF(2^m) arithmetic and the systematic-code family behind both codecs.

The field is represented through exp/log tables built from a primitive
polynomial. Berlekamp-Massey adds logs from the list tables, and the
polynomial product gathers from numpy copies. Polynomials over the field
are numpy int arrays in ascending order, so ``poly[i]`` is the coefficient
of x^i.

Every polynomial evaluation goes through one primitive, `SliceMap`: a
GF(2)-linear map from input bits to output bits, read from a table of 16
packed output words per 4-bit slice of the input (Sarwate, CACM 31(8),
1988). Encoding maps message bits to parity bits; the syndromes map a
received word to rx(alpha^j) at j = 1..2t; the field's Chien map takes a
polynomial to its values at every alpha^-p, which give both the roots of
Lambda and Forney's Omega and Lambda' at them.

`SystematicCode` is the whole code family. A narrow-sense binary BCH code
is the binary subfield subcode of the Reed-Solomon code over the same field
(MacWilliams & Sloane, ch. 10), so one formula gives both generators: the
product of (x - alpha^e) over e = 1..2t, closed under e -> e*2^s mod q-1,
where s is the symbol width (1 bit for BCH, m bits for RS, for which every
exponent is its own conjugate). The family encodes, decodes by syndromes,
Berlekamp-Massey, a Chien search over all q-1 positions and (for RS)
Forney to the codeword within t whenever one exists, and owns the bit
contract (`code_id`, `encode_bits`, `decode_bits`). For a binary code
S_2j = S_j^2, so Berlekamp-Massey runs in t steps, not 2t. A codec is a
parameter set: its family name, its field, t and s.
"""

import numpy as np

from .prng import checked_int

# the two 4-bit slices of each byte value, high nibble first
_NIBBLES = np.array([[v >> 4, v & 15] for v in range(256)], dtype=np.intp)


class SliceMap:
    """A GF(2)-linear map on bytes, evaluated from a read-only slice table.

    rows[i] holds the output bytes of input bit i, most significant bit of
    each input byte first. Table entry [j, v] XORs the rows of the set bits
    of v in the j-th 4-bit slice of the input, built by doubling over the
    four bits; `apply` gathers one entry per slice and XORs them
    (table-driven evaluation of a linear map, Sarwate, CACM 31(8), 1988).
    Zero rows pad the input to whole bytes, zero columns the output to
    whole 64-bit words; the table is stored word-major, so word w of
    [j, v] is [w, 16j + v].
    """

    def __init__(self, rows):
        rows = np.pad(rows, ((0, -len(rows) % 8), (0, -rows.shape[1] % 8)))
        packed = rows.view(np.uint64).T.reshape(-1, len(rows) // 4, 4)
        table = np.zeros((*packed.shape[:2], 16), dtype=np.uint64)
        for b in range(4):
            table[..., 1 << b : 2 << b] = table[..., : 1 << b] ^ packed[..., 3 - b, None]
        self.table = table.reshape(len(table), -1)
        self.table.flags.writeable = False
        self.starts = np.arange(0, self.table.shape[1], 16)  # first column of each slice

    def apply(self, data):
        """The output bytes at the input bytes `data`, which may stop short of the table's input."""
        cols = _NIBBLES.take(data, axis=0).ravel()
        # a slice of starts costs about 0.2 us, so a full-length input skips it
        cols += self.starts if len(cols) == len(self.starts) else self.starts[: len(cols)]
        return np.bitwise_xor.reduce(self.table.take(cols, axis=1), axis=1).view(np.uint8)


# Chien maps shared by equal fields: (m, primitive polynomial) -> SliceMap
_chien_maps = {}


class GF2m:
    """GF(2^m) defined by a primitive polynomial given as a bitmask.

    In the slice maps each field value is `dtype`, the smallest unsigned
    integer that holds it, big-endian: ceil(m/8) bytes for m <= 16. m must
    be an integer in [2, 16] and the polynomial one of degree m, else
    ValueError naming the parameter.
    """

    def __init__(self, m: int, primitive_poly: int):
        self.m = m = checked_int(m, "m", 2, 16)
        self.order = 1 << m
        self.primitive_poly = primitive_poly = checked_int(
            primitive_poly, "primitive_poly", self.order, 2 * self.order - 1)
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
        self.dtype = np.min_scalar_type(n).newbyteorder(">")

    def power_rows(self, count, width, xs):
        """SliceMap rows of "bit c of symbol i adds alpha^(c + i*x)" at every
        point alpha^x, x in xs: the map from the coefficients of a polynomial
        of `count` terms, each `width` bits most significant first, to its
        values at those points. A bit c >= m adds nothing."""
        e = np.arange(count)[:, None] * np.asarray(xs) % (self.order - 1)
        rows = np.zeros((count, width, len(xs)), dtype=self.dtype)
        for c in range(min(width, self.m)):
            rows[:, width - 1 - c] = self.exp_np[e + c]  # e + c < 2(q-1), inside exp
        return rows.reshape(count * width, -1).view(np.uint8)

    def chien(self, poly):
        """poly(alpha^-p) for every p in [0, q-1), one SliceMap.apply; the map is
        shared by equal fields and grows to the longest poly asked for."""
        key, n, w = (self.m, self.primitive_poly), self.order - 1, self.dtype.itemsize
        chien = _chien_maps.get(key)
        if chien is None or len(chien.starts) < 2 * w * len(poly):  # 2w slices per term
            chien = _chien_maps[key] = SliceMap(self.power_rows(len(poly), 8 * w, -np.arange(n) % n))
        return chien.apply(np.asarray(poly).astype(self.dtype).view(np.uint8))[: n * w].view(self.dtype)

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
    deg(Lambda) to reject bogus locators. The values come from the field's
    Chien map. A coefficient outside [0, 2^m) raises ValueError.
    """
    lam = checked_word(lam, len(lam), field.m, "lam")
    return np.nonzero(field.chien(lam) == 0)[0]


class SystematicCode:
    """Systematic code of length q-1 whose generator has roots alpha^1..alpha^2t.

    Words are symbol arrays in ascending-power order, parity first; as bits,
    each symbol takes s bits, most significant first. A codec names its
    `family`, passes its field, t and symbol width s to __init__, and
    defines its public symbol-level encode, syndromes and decode on the
    underscore helpers, taking each word through `checked_word`. `code_id`,
    `n_bits` and `k_bits` are set once, in __init__. t must be an integer
    in [1, (q-2)/2], else ValueError naming it: every exponent 1..2t is then
    nonzero mod q-1, and so are its conjugates, so k >= 1; a larger t
    reaches exponent q-1 = 0, every element becomes a root and k = 0.
    """

    family = None  # "bch" or "rs": the first part of code_id

    # (parity, syndrome) SliceMaps shared by codes with equal parameters;
    # their tables are 223 KB and 255 KB for RS(255,223)
    _maps = {}

    def __init__(self, field: GF2m, t: int, s: int):
        self.field = field
        self.n = field.order - 1
        self.t = t = checked_int(t, "t", 1, self.n // 2)
        self.s = s
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
        if key not in self._maps:
            # GF(2) parity bits of each message bit: message symbol i with
            # value 2^b = alpha^b adds alpha^b * (x^(r+i) mod g) to the parity
            parity = np.empty((self.k * s, r * s), dtype=np.uint8)
            rem = g = g[:r]  # x^r mod g
            shifts = np.arange(s - 1, -1, -1)[:, None]
            for i in range(self.k):
                rows = np.where(rem != 0, field.exp_np[field.log_np[rem] + shifts], 0)
                parity[i * s : (i + 1) * s] = self._bits(rows)
                rem = np.concatenate([[0], rem[:-1]]) ^ field.poly_mul([rem[-1]], g)
            # received symbols packed 8 bits a byte for s = 1, one field value each otherwise
            width = 1 if s == 1 else 8 * field.dtype.itemsize
            syndromes = SliceMap(field.power_rows(self.n, width, np.arange(1, 2 * t + 1)))
            self._maps[key] = SliceMap(np.packbits(parity, axis=1)), syndromes
        self._parity, self._syndrome_map = self._maps[key]

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
        the parity is one SliceMap.apply on the packed message."""
        parity = self._parity.apply(np.packbits(msg_bits))
        return np.concatenate([np.unpackbits(parity, count=self.n_bits - self.k_bits), msg_bits])

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
        """S_j = rx(alpha^j) for j = 1..2t, one SliceMap.apply on the packed bits
        (s = 1) or on the field values (s = m) of rx."""
        dtype = self.field.dtype
        data = np.packbits(rx) if self.s == 1 else rx.astype(dtype).view(np.uint8)
        return self._syndrome_map.apply(data)[: 2 * self.t * dtype.itemsize].view(dtype)

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
            lam_deriv = np.where(np.arange(1, len(lam)) % 2, lam[1:], 0)  # odd-degree terms, shifted
            num, den = field.chien(omega)[pos], field.chien(lam_deriv)[pos]
            fixed[pos] ^= field.exp_np[(field.log_np[num] - field.log_np[den]) % self.n]
        return fixed[self.n - self.k :]
