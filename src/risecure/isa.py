"""RV32I interpreter with two custom R-type PUF instructions.

The base machine is deliberately small: XLEN=32, flat little-endian memory,
no CSRs or privilege modes, EBREAK halts. Opcode 0101011 hosts the
extension: funct3=001 is the inner-PUF enrollment instruction and
funct3=010 the outer-challenge instruction. Both take memory addresses in
their source registers because their operands (96-bit parameter block,
256-bit response) do not fit a 32-bit register; rd receives a status code:

    0  success
    1  unknown / uninitialized PUF index
    2  memory fault on a parameter or output block
    3  code or width mismatch during enrollment
    4  reconstruction (decode) failure

Error paths leave the aux table, the output region, and the noise counter
untouched, except that a failed reconstruction consumes its noisy read.

Base-ISA meaning lives in one table per instruction class (branch
predicate, load width and sign, store width, ALU op shared by the register
and immediate forms). decode puts its word's entry, or the custom
instruction's handler, into the Instr it returns, and step executes it.
decode is a pure function of the word, so it is cached by word, which stays
correct when a program writes its own code; step reads each word, and
each load's value, from memory in place after one bounds check.
Every trap leaves step through one exit before anything is written, so a
trapped instruction retires nothing: registers, memory and pc keep their values.

step is the reference semantics; run executes by basic block. A block is
the straight-line run of words from an entry pc up to and including the
first branch or jump, translated once into one Python function over the
registers and memory; the branch predicates and ALU ops are inlined from
the same expression text step's functions are compiled from. A block is a
function of its bytes alone (its code is pc-relative), so translations are
cached by their bytes, and each machine keeps the block last run from each
pc, checked on entry with one slice compare against memory: a program that
writes its own code needs no invalidation. Custom instructions, ebreak and
every word that traps run through step, as does every instruction while
step is wrapped (the benchmark's tracer counts its calls).
"""

import functools
import hashlib
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .buffer import LookasideBuffer, sample_with_buffer
from .extractor import enroll
from .hashing import DIGEST_BITS, OUTER_CHALLENGE_BITS, bits_to_bytes, bytes_to_bits
from .prng import checked_int, derive_seed, is_integer

CUSTOM_OPCODE = 0b0101011
F3_INNER_INIT = 0b001
F3_OUTER_CHAL = 0b010

MASK32 = 0xFFFFFFFF
_WORD = struct.Struct("<I")


class Trap(Exception):
    """An instruction that cannot retire; step turns it into status "trap"."""


class IllegalInstruction(Trap):
    pass


class MemoryFault(Trap):
    pass


def _sext(value, bits):
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


@dataclass(frozen=True, slots=True)
class Instr:
    """One decoded word; decode shares each instance between all its callers."""

    name: str
    opcode: int
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    funct3: int = 0
    funct7: int = 0
    imm: int = 0
    op: object = None  # decode's table entry, which step executes
    expr: str = None  # a branch predicate's or ALU op's expression, which a block inlines


def encode_fields(instr):
    """Reassemble an R-type word from its decoded fields."""
    return asm_r(instr.opcode, instr.funct3, instr.funct7, instr.rd, instr.rs1, instr.rs2)


OP_LUI, OP_AUIPC, OP_JAL, OP_JALR = 0b0110111, 0b0010111, 0b1101111, 0b1100111
OP_BRANCH, OP_LOAD, OP_STORE = 0b1100011, 0b0000011, 0b0100011
OP_IMM, OP_REG, OP_SYSTEM = 0b0010011, 0b0110011, 0b1110011

# Register values are unsigned 32-bit; immediates are sign-extended, and xor with
# 0x80000000 maps signed 32-bit order onto unsigned order. Each branch
# predicate and ALU op is the text of one expression over {a} (rs1) and {b} (rs2 or
# the immediate): _OPS compiles it into the function step calls, and the block
# translator inlines the same text.
_BRANCHES = {  # funct3: (name, taken)
    0b000: ("beq", "{a} == {b}"),
    0b001: ("bne", "{a} != {b}"),
    0b100: ("blt", "{a} ^ 0x80000000 < {b} ^ 0x80000000"),
    0b101: ("bge", "{a} ^ 0x80000000 >= {b} ^ 0x80000000"),
    0b110: ("bltu", "{a} < {b}"),
    0b111: ("bgeu", "{a} >= {b}"),
}
_LOADS = {  # funct3: (name, little-endian format of its width and sign)
    0b000: ("lb", struct.Struct("<b")), 0b001: ("lh", struct.Struct("<h")),
    0b010: ("lw", struct.Struct("<I")), 0b100: ("lbu", struct.Struct("<B")),
    0b101: ("lhu", struct.Struct("<H")),
}
_STORES = {0b000: ("sb", 1), 0b001: ("sh", 2), 0b010: ("sw", 4)}  # funct3: (name, bytes)
_ALU = {  # (funct3, funct7 == 0100000): (register name, immediate name, value)
    (0b000, 0): ("add", "addi", "{a} + {b}"),
    (0b000, 1): ("sub", None, "{a} - {b}"),
    (0b001, 0): ("sll", "slli", "{a} << ({b} & 0x1F)"),
    (0b010, 0): ("slt", "slti", "int({a} ^ 0x80000000 < ({b} & 0xFFFFFFFF) ^ 0x80000000)"),
    (0b011, 0): ("sltu", "sltiu", "int({a} < ({b} & 0xFFFFFFFF))"),
    (0b100, 0): ("xor", "xori", "{a} ^ {b}"),
    (0b101, 0): ("srl", "srli", "{a} >> ({b} & 0x1F)"),
    (0b101, 1): ("sra", "srai", "_sext({a}, 32) >> ({b} & 0x1F)"),
    (0b110, 0): ("or", "ori", "{a} | {b}"),
    (0b111, 0): ("and", "andi", "{a} & {b}"),
}
_OPS = {expr: eval(f"lambda a, b: {expr.format(a='a', b='b')}", {"_sext": _sext})
        for expr in [e for _, e in _BRANCHES.values()] + [e for *_, e in _ALU.values()]}


DECODE_CACHE_SIZE = 4096  # bounded, so decoding arbitrary words cannot grow it without limit


def decode(word):
    """Decode a 32-bit word; raises IllegalInstruction on unknown encodings.

    Decoding is a pure function of the word, so results are cached by word:
    a program that overwrites its own code runs the new word, and an illegal
    word traps every time (lru_cache keeps no exceptions).
    """
    return _decode_word(operator.index(word) & MASK32)


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _decode_word(word):
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F
    fields = (opcode, rd, rs1, rs2, funct3, funct7)

    if opcode == OP_REG or (opcode == OP_IMM and funct3 in (0b001, 0b101)):
        # one lookup for register ops and immediate shifts, whose amount is the rs2 field
        entry = _ALU.get((funct3, funct7 >> 5)) if funct7 in (0, 0b0100000) else None
        if entry is None:
            raise IllegalInstruction(f"bad funct7 {funct7:#x} for register op or shift")
        reg_name, imm_name, expr = entry
        if opcode == OP_REG:
            return Instr(reg_name, *fields, 0, _OPS[expr], expr)
        return Instr(imm_name, *fields, rs2, _OPS[expr], expr)
    if opcode == OP_IMM:
        _, name, expr = _ALU[funct3, 0]
        return Instr(name, *fields, _sext(word >> 20, 12), _OPS[expr], expr)
    if opcode == OP_LOAD:
        if funct3 not in _LOADS:
            raise IllegalInstruction(f"bad load funct3 {funct3:#o}")
        name, load = _LOADS[funct3]
        return Instr(name, *fields, _sext(word >> 20, 12), load)
    if opcode == OP_STORE:
        if funct3 not in _STORES:
            raise IllegalInstruction(f"bad store funct3 {funct3:#o}")
        name, size = _STORES[funct3]
        return Instr(name, *fields, _sext(((word >> 25) << 5) | rd, 12), size)
    if opcode == OP_BRANCH:
        if funct3 not in _BRANCHES:
            raise IllegalInstruction(f"bad branch funct3 {funct3:#o}")
        imm = ((word >> 31) << 12) | (((word >> 7) & 1) << 11) \
            | (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
        name, expr = _BRANCHES[funct3]
        return Instr(name, *fields, _sext(imm, 13), _OPS[expr], expr)
    if opcode == CUSTOM_OPCODE:
        if funct7 != 0:
            raise IllegalInstruction(f"reserved funct7 {funct7:#x} at custom opcode")
        if funct3 == F3_INNER_INIT:
            if rs2 != 0:
                raise IllegalInstruction("inner_puf_init requires rs2=0")
            return Instr("inner_puf_init", *fields, 0, _exec_inner_puf_init)
        if funct3 == F3_OUTER_CHAL:
            return Instr("outer_puf_chal", *fields, 0, _exec_outer_puf_chal)
        raise IllegalInstruction(f"reserved funct3 {funct3:#o} at custom opcode")
    if opcode == OP_LUI:
        return Instr("lui", *fields, word & 0xFFFFF000)
    if opcode == OP_AUIPC:
        return Instr("auipc", *fields, word & 0xFFFFF000)
    if opcode == OP_JAL:
        imm = ((word >> 31) << 20) | (((word >> 12) & 0xFF) << 12) \
            | (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1)
        return Instr("jal", *fields, _sext(imm, 21))
    if opcode == OP_JALR and funct3 == 0:
        return Instr("jalr", *fields, _sext(word >> 20, 12))
    if opcode == OP_SYSTEM and word == 0x00100073:
        return Instr("ebreak", *fields)
    raise IllegalInstruction(f"unknown instruction word {word:#010x}")


class PufDevice:
    """The PUF module seen by the custom instructions.

    Holds registered PUF instances, per-index helper data after enrollment,
    and the lookaside buffer. All enrollment and read randomness derives
    from the device seed, so a device replayed with the same instruction
    stream produces the same bytes.
    """

    def __init__(self, code, seed=0, capacity=16):
        self.code = code
        self.seed = checked_int(seed, "seed")
        self.buffer = LookasideBuffer(capacity)
        self.pufs = {}
        self.aux_table = {}
        self.enrolled_c0 = {}
        self.read_count = 0

    def register(self, idx, puf):
        """Attach puf at idx, an integer in [0, 2^32) as the 32-bit parameter block holds it."""
        self.pufs[checked_int(idx, "idx", 0, MASK32)] = puf

    def enroll_idx(self, idx, c0):
        """Enroll pufs[idx] at inner challenge c0; seeds the buffer."""
        rng_seed = derive_seed("device-enroll", self.seed, idx, c0)
        helper, r2 = enroll(self.pufs[idx], c0, self.code, rng_seed)
        r2.flags.writeable = False  # a buffer hit hands out this array
        self.aux_table[idx] = helper
        self.enrolled_c0[idx] = c0
        self.buffer.insert((idx, c0), (r2, helper))
        return helper

    def sample_r3(self, idx, outer_bits):
        """Hashed response for an enrolled index; None on decode failure.

        Every call consumes one read seed, hit or miss, so replays stay
        aligned with instruction-driven executions.
        """
        noise_seed = derive_seed("device-read", self.seed, self.read_count)
        self.read_count += 1
        c0 = self.enrolled_c0[idx]
        return sample_with_buffer(
            self.buffer, self.pufs[idx], (idx, c0), self.aux_table[idx], self.code,
            mode="hashed", outer_challenge=outer_bits, noise_seed=noise_seed,
        )


class MachineState:
    def __init__(self, memory_size=1 << 20, device=None):
        # addresses wrap at 2^32, so more is unreachable
        if not is_integer(memory_size) or not 0 <= memory_size <= 1 << 32:
            raise ValueError(f"memory_size must be in [0, 2^32], got {memory_size!r}")
        self.regs = [0] * 32
        self.pc = 0
        self.memory = bytearray(memory_size)
        self.device = device
        self.status = "continue"
        self.trap_cause = None
        self._blocks = {}  # pc -> (bytes, words, translated function) of the block run from pc

    # addr and length must be integers (numpy's too) or raise ValueError naming them;
    # the ints of every custom instruction and store pass one type test
    def mem_read(self, addr, length):
        if type(addr) is not int or type(length) is not int or length < 0:
            addr, length = checked_int(addr, "addr"), checked_int(length, "length", 0)
        if addr < 0 or addr + length > len(self.memory):
            raise MemoryFault(f"read [{addr:#x}, +{length}) out of bounds")
        return bytes(self.memory[addr : addr + length])

    def mem_write(self, addr, data):
        if type(addr) is not int:
            addr = checked_int(addr, "addr")
        if addr < 0 or addr + len(data) > len(self.memory):
            raise MemoryFault(f"write [{addr:#x}, +{len(data)}) out of bounds")
        self.memory[addr : addr + len(data)] = data

    def load_words(self, addr, words):
        data = bytearray()
        for i, w in enumerate(words):  # all checked before the one write
            if not is_integer(w) or not 0 <= w <= MASK32:
                raise ValueError(f"word {i}: expected a value in [0, 0xffffffff], got {w!r}")
            data += _WORD.pack(int(w))
        self.mem_write(addr, data)

    def load_hex_program(self, text):
        """Load lines of the form 'ADDR: WORD' (hex); '#' starts a comment.

        A line of another form, or a word outside [0, 2^32), raises
        ValueError naming its line number.
        """
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                addr_s, word_s = line.split(":")
                addr, data = int(addr_s, 16), int(word_s, 16).to_bytes(4, "little")
            except (ValueError, OverflowError):
                raise ValueError(f"program line {lineno}: expected 'ADDR: WORD' in hex with "
                                 f"WORD in [0, 0xffffffff], got {line!r}") from None
            self.mem_write(addr, data)

    def dump(self):
        """JSON-ready snapshot: registers, pc, status, memory digest."""
        return {
            "pc": self.pc,
            "status": self.status,
            "trap_cause": self.trap_cause,
            "regs": list(self.regs),
            "memory_sha256": hashlib.sha256(self.memory).hexdigest(),
        }


def _exec_inner_puf_init(state, instr):
    dev = state.device
    try:
        block = state.mem_read(state.regs[instr.rs1], 12)
    except MemoryFault:
        return 2
    idx = int.from_bytes(block[0:4], "little")
    c0 = int.from_bytes(block[4:12], "little")
    if idx not in dev.pufs:
        return 1
    try:
        dev.enroll_idx(idx, c0)
    except ValueError:
        return 3
    return 0


def _exec_outer_puf_chal(state, instr):
    dev = state.device
    out_addr = state.regs[instr.rs2]
    if not 0 <= out_addr <= len(state.memory) - DIGEST_BITS // 8:  # the output region, up front
        return 2
    try:
        block = state.mem_read(state.regs[instr.rs1], 4 + OUTER_CHALLENGE_BITS // 8)
    except MemoryFault:
        return 2
    idx = int.from_bytes(block[0:4], "little")
    if idx not in dev.aux_table:
        return 1
    r3 = dev.sample_r3(idx, bytes_to_bits(block[4:]))
    if r3 is None:
        return 4
    state.mem_write(out_addr, bits_to_bytes(r3))
    return 0


def step(state):
    """Fetch/decode/execute one instruction; returns the new machine status.

    Every trap leaves through the one `except Trap`, before rd, memory or pc
    is written, so pc keeps pointing at the faulting instruction.
    """
    pc = state.pc
    regs = state.regs
    memory = state.memory
    try:
        if pc % 4:
            raise Trap(f"misaligned fetch at {pc:#x}")
        if not 0 <= pc <= len(memory) - 4:  # unpack_from alone would count a negative pc from the end
            raise MemoryFault(f"read [{pc:#x}, +4) out of bounds")
        instr = _decode_word(_WORD.unpack_from(memory, pc)[0])
        opcode = instr.opcode
        next_pc = (pc + 4) & MASK32
        rd_value = None  # set by the instructions that write rd
        if opcode == OP_IMM:
            rd_value = instr.op(regs[instr.rs1], instr.imm)
        elif opcode == OP_REG:
            rd_value = instr.op(regs[instr.rs1], regs[instr.rs2])
        elif opcode == OP_LOAD:
            load = instr.op
            addr = (regs[instr.rs1] + instr.imm) & MASK32
            if addr + load.size > len(memory):
                raise MemoryFault(f"read [{addr:#x}, +{load.size}) out of bounds")
            rd_value = load.unpack_from(memory, addr)[0]
        elif opcode == OP_STORE:
            size = instr.op
            state.mem_write((regs[instr.rs1] + instr.imm) & MASK32,
                            (regs[instr.rs2] & ((1 << (size * 8)) - 1)).to_bytes(size, "little"))
        elif opcode == OP_BRANCH:
            if instr.op(regs[instr.rs1], regs[instr.rs2]):
                next_pc = (pc + instr.imm) & MASK32
        elif opcode == OP_LUI:
            rd_value = instr.imm
        elif opcode == OP_AUIPC:
            rd_value = pc + instr.imm
        elif opcode == OP_JAL:
            rd_value = pc + 4
            next_pc = (pc + instr.imm) & MASK32
        elif opcode == OP_JALR:
            rd_value = pc + 4
            next_pc = (regs[instr.rs1] + instr.imm) & ~1 & MASK32
        elif opcode == CUSTOM_OPCODE:
            if state.device is None:
                raise IllegalInstruction("custom opcode with no PUF device attached")
            rd_value = instr.op(state, instr)
        else:  # ebreak, the only system instruction decode accepts
            state.status = "halted"
            return state.status
        if next_pc % 4:
            raise Trap(f"misaligned jump target {next_pc:#x}")
    except Trap as exc:
        state.status = "trap"
        state.trap_cause = str(exc)
        return state.status
    if rd_value is not None and instr.rd:  # x0 stays zero
        regs[instr.rd] = rd_value & MASK32
    state.pc = next_pc
    state.status = "continue"
    return state.status


_STEP_CODE = step.__code__  # run compares it, so a wrapped step still sees every instruction


def run(state, max_steps=1_000_000):
    """Run until halt, trap or max_steps retired instructions; returns the final status.

    Straight-line code runs as translated blocks; custom instructions, ebreak
    and every word that traps go through step, and so does every instruction
    while step is replaced by another function (a tracer's wrapper).
    """
    max_steps = left = checked_int(max_steps, "max_steps", 1)
    regs, memory = _checked_entry(state)
    if getattr(step, "__code__", None) is _STEP_CODE:
        blocks, pc = state._blocks, state.pc
        while left:
            entry = blocks.get(pc)
            if entry is None or memory[pc:pc + len(entry[0])] != entry[0]:
                n = _block_words(memory, pc)
                code = bytes(memory[pc:pc + 4 * (n or 1)])
                if len(blocks) >= BLOCK_CACHE_SIZE:
                    blocks.clear()
                entry = blocks[pc] = (code, n, _translate(code) if n else None)
            _, n, block = entry
            if n > left:
                break
            if n:
                pc, done = block(regs, memory, pc)
                left -= done
                if done == n:
                    continue
            state.pc = pc  # step runs the word a block stopped before or could not hold
            left -= 1
            if step(state) != "continue":
                return state.status
            pc = state.pc
        state.pc = pc
    for _ in range(left):
        if step(state) != "continue":
            return state.status
    state.status = "trap"
    state.trap_cause = f"step budget of {max_steps} exhausted"
    return state.status


def _checked_entry(state):
    """state's registers and memory, once pc is an int and each register an int in [0, 2^32).

    Numpy integers become ints in place, so blocks and step see one value
    type; any other value raises ValueError naming it.
    """
    state.pc = checked_int(state.pc, "pc")
    regs = state.regs
    if type(regs) is not list or len(regs) != 32:
        raise ValueError(f"regs must be a list of 32 registers, got {regs!r}")
    for i, v in enumerate(regs):
        if type(v) is not int or not 0 <= v <= MASK32:
            regs[i] = checked_int(v, f"regs[{i}]", 0, MASK32)
    return regs, state.memory


BLOCK_MAX_WORDS = 32  # so a block, and the time to translate it, stays small
BLOCK_CACHE_SIZE = 1024  # translated blocks kept by their bytes, and block entries per machine
_STORE_INTO = {1: "memory[a] = {v} & 0xFF", 2: "_sh(memory, a, {v} & 0xFFFF)", 4: "_sw(memory, a, {v})"}
_BLOCK_GLOBALS = {"_sext": _sext, "_sh": struct.Struct("<H").pack_into, "_sw": _WORD.pack_into,
                  **{f"_{name}": load.unpack_from for name, load in _LOADS.values()}}


def _block_words(memory, pc):
    """How many words from pc one block runs: up to and including the first
    branch or jump, stopping before a custom instruction, ebreak, an
    undecodable word or the end of memory, and after BLOCK_MAX_WORDS."""
    n = 0
    if pc % 4 == 0 and pc >= 0:
        for addr in range(pc, min(len(memory) - 3, pc + 4 * BLOCK_MAX_WORDS), 4):
            try:
                opcode = _decode_word(_WORD.unpack_from(memory, addr)[0]).opcode
            except IllegalInstruction:
                break
            if opcode in (CUSTOM_OPCODE, OP_SYSTEM):
                break
            n += 1
            if opcode in (OP_BRANCH, OP_JAL, OP_JALR):
                break
    return n


@functools.lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _translate(code):
    """A function running the words in `code` as step runs them, at any pc.

    block(regs, memory, pc) returns the next pc and the number of words it
    retired. That is fewer than all of them only when it stops before a word
    that traps, which step then runs, or after a store into one of its own
    later words, whose new text step then runs.
    """
    n = len(code) // 4
    lines = ["def block(regs, memory, pc):", "size = len(memory)"]
    for i in range(n):
        ins = _decode_word(_WORD.unpack_from(code, 4 * i)[0])
        op, after = ins.opcode, f"pc + {4 * i + 4}"
        a = f"regs[{ins.rs1}]"
        b = f"regs[{ins.rs2}]" if op in (OP_REG, OP_BRANCH) else f"({ins.imm})"
        stop = f"return pc + {4 * i}, {i}"  # step runs this word, and traps on it
        jump = f"return (pc + {4 * i + ins.imm}) & 0xFFFFFFFF, {n}" if ins.imm % 4 == 0 else stop
        value = None  # rd's new value
        if op in (OP_IMM, OP_REG):
            value = f"({ins.expr.format(a=a, b=b)}) & 0xFFFFFFFF"
        elif op == OP_LUI:
            value = str(ins.imm)
        elif op == OP_AUIPC:
            value = f"(pc + {4 * i + ins.imm}) & 0xFFFFFFFF"
        elif op == OP_LOAD:
            lines += [f"a = ({a} + {ins.imm}) & 0xFFFFFFFF", f"if a + {ins.op.size} > size: {stop}"]
            value = f"_{ins.name}(memory, a)[0]" + (" & 0xFFFFFFFF" if ins.name in ("lb", "lh") else "")
        elif op == OP_STORE:
            lines += [f"a = ({a} + {ins.imm}) & 0xFFFFFFFF", f"if a + {ins.op} > size: {stop}",
                      _STORE_INTO[ins.op].format(v=f"regs[{ins.rs2}]")]
            if i + 1 < n:  # a store into a later word ends the block before it
                lines.append(f"if a < pc + {4 * n} and {after} < a + {ins.op}: "
                             f"return ({after}) & 0xFFFFFFFF, {i + 1}")
        elif op == OP_BRANCH:
            lines.append(f"if {ins.expr.format(a=a, b=b)}: {jump}")
        elif op == OP_JAL:
            value = None if ins.imm % 4 else f"({after}) & 0xFFFFFFFF"
        else:  # jalr
            value = f"({after}) & 0xFFFFFFFF"
            lines += [f"t = ({a} + {ins.imm}) & 0xFFFFFFFE", f"if t & 2: {stop}"]
            jump = f"return t, {n}"
        if value is not None and ins.rd:  # x0 stays zero
            lines.append(f"regs[{ins.rd}] = {value}")
        if op in (OP_JAL, OP_JALR):
            lines.append(jump)
    lines.append(f"return (pc + {4 * n}) & 0xFFFFFFFF, {n}")
    scope = {}
    exec("\n    ".join(lines), _BLOCK_GLOBALS, scope)
    return scope["block"]


# small assembler, just enough for test programs and demos

def asm_r(opcode, funct3, funct7, rd, rs1, rs2):
    return (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def asm_i(opcode, funct3, rd, rs1, imm):
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode


def asm_lui(rd, imm20):
    return ((imm20 & 0xFFFFF) << 12) | (rd << 7) | OP_LUI


def asm_addi(rd, rs1, imm):
    return asm_i(OP_IMM, 0b000, rd, rs1, imm)


def asm_add(rd, rs1, rs2):
    return asm_r(OP_REG, 0b000, 0, rd, rs1, rs2)


def asm_lw(rd, rs1, imm):
    return asm_i(OP_LOAD, 0b010, rd, rs1, imm)


def asm_sw(rs1, rs2, imm):
    """Store regs[rs2] to memory[regs[rs1] + imm]; imm[11:5] sits in funct7, imm[4:0] in rd."""
    return asm_r(OP_STORE, 0b010, (imm >> 5) & 0x7F, imm & 0x1F, rs1, rs2)


def asm_beq(rs1, rs2, offset):
    """imm[12|10:5] sits in funct7, imm[4:1|11] in rd."""
    return asm_r(OP_BRANCH, 0b000, ((offset >> 6) & 0x40) | ((offset >> 5) & 0x3F),
                 (offset & 0x1E) | ((offset >> 11) & 1), rs1, rs2)


def asm_jal(rd, offset):
    return (((offset >> 20) & 1) << 31) | (((offset >> 1) & 0x3FF) << 21) \
        | (((offset >> 11) & 1) << 20) | (((offset >> 12) & 0xFF) << 12) | (rd << 7) | OP_JAL


def asm_ebreak():
    return 0x00100073


def asm_inner_puf_init(rd, rs1):
    return asm_r(CUSTOM_OPCODE, F3_INNER_INIT, 0, rd, rs1, 0)


def asm_outer_puf_chal(rd, rs1, rs2):
    return asm_r(CUSTOM_OPCODE, F3_OUTER_CHAL, 0, rd, rs1, rs2)


def li32(rd, value):
    """Two-instruction sequence loading an arbitrary 32-bit constant."""
    value &= MASK32
    upper = (value + 0x800) >> 12
    lower = value - (upper << 12)
    return [asm_lui(rd, upper), asm_addi(rd, rd, lower)]
