import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risecure.extractor import enroll, get_code
from risecure.hashing import bits_to_bytes, bytes_to_bits, compose_response
from risecure import isa
from risecure.isa import (CUSTOM_OPCODE, DECODE_CACHE_SIZE, F3_INNER_INIT, F3_OUTER_CHAL,
                          OP_AUIPC, OP_BRANCH, OP_IMM, OP_JAL, OP_JALR, OP_LOAD, OP_LUI,
                          OP_REG, OP_STORE, IllegalInstruction, MachineState,
                          PufDevice, asm_add, asm_addi, asm_beq, asm_ebreak,
                          asm_i, asm_inner_puf_init, asm_jal, asm_lui, asm_lw,
                          asm_outer_puf_chal, asm_r, asm_sw, decode,
                          encode_fields, li32, run, step)
from risecure.prng import derive_seed
from risecure.puf import SramPuf


# --- decoding -------------------------------------------------------------

def test_fixed_custom_instruction_vectors():
    i = decode(0x0002952B)
    assert (i.name, i.rd, i.rs1, i.rs2) == ("inner_puf_init", 10, 5, 0)
    assert i.funct3 == F3_INNER_INIT and i.opcode == CUSTOM_OPCODE
    assert encode_fields(i) == 0x0002952B

    o = decode(0x0062A52B)
    assert (o.name, o.rd, o.rs1, o.rs2) == ("outer_puf_chal", 10, 5, 6)
    assert o.funct3 == F3_OUTER_CHAL
    assert encode_fields(o) == 0x0062A52B


def test_custom_word_roundtrip_randomized():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        rd = int(rng.integers(0, 32))
        rs1 = int(rng.integers(0, 32))
        if rng.integers(0, 2):
            word = asm_inner_puf_init(rd, rs1)
            i = decode(word)
            assert (i.name, i.rd, i.rs1, i.rs2) == ("inner_puf_init", rd, rs1, 0)
        else:
            rs2 = int(rng.integers(0, 32))
            word = asm_outer_puf_chal(rd, rs1, rs2)
            i = decode(word)
            assert (i.name, i.rd, i.rs1, i.rs2) == ("outer_puf_chal", rd, rs1, rs2)
        assert encode_fields(i) == word


def test_reserved_custom_encodings_rejected():
    base = asm_inner_puf_init(1, 2)
    with pytest.raises(IllegalInstruction):
        decode(base | (1 << 25))  # funct7 must be zero
    with pytest.raises(IllegalInstruction):
        decode(base | (3 << 20))  # inner init with rs2 != 0
    for f3 in (0, 3, 4, 5, 6, 7):
        with pytest.raises(IllegalInstruction):
            decode(asm_r(CUSTOM_OPCODE, f3, 0, 1, 2, 0))


def test_known_base_isa_words():
    # canonical encodings, written down independently of the asm helpers
    assert decode(0x00500093).name == "addi"      # addi x1, x0, 5
    assert decode(0x00500093).imm == 5 and decode(0x00500093).rd == 1
    assert decode(0x002081B3).name == "add"       # add x3, x1, x2
    assert decode(0x123452B7).name == "lui"       # lui x5, 0x12345
    assert decode(0x123452B7).imm == 0x12345000
    assert decode(0x00100073).name == "ebreak"
    assert decode(0xFFF00E13).imm == -1           # addi x28, x0, -1


def test_malformed_base_words_rejected():
    for word in (
        0xFFFFFFFF,
        0x00000073,            # ecall unsupported, only ebreak
        0x00001067,            # jalr with funct3 != 0
        0x00003003,            # load funct3=011
        0x00003023,            # store funct3=011
        0x00002063 | (2 << 12),  # branch funct3=010
        asm_r(0b0110011, 0b000, 0b0000001, 1, 2, 3),  # mul (M ext absent)
        asm_i(0b0010011, 0b001, 1, 2, (1 << 10) | 3) | (1 << 30),  # bad slli
    ):
        with pytest.raises(IllegalInstruction):
            decode(word)


def test_decode_cache_is_bounded_and_shares_frozen_instances():
    words = [asm_lui(1, imm20) for imm20 in range(DECODE_CACHE_SIZE + 500)]
    for w in words:
        decode(w)
    info = isa._decode_word.cache_info()
    assert info.maxsize == DECODE_CACHE_SIZE and info.currsize <= DECODE_CACHE_SIZE
    assert decode(words[0]).imm == 0  # evicted, decoded again
    assert decode(words[-1]) is decode(words[-1] | (1 << 32))  # keyed on the masked word
    with pytest.raises(dataclasses.FrozenInstanceError):
        decode(words[-1]).rd = 2
    i = decode(np.uint32(0x00500093))  # a numpy word shares its entry with the int
    assert i is decode(0x00500093) and type(i.imm) is int
    for _ in range(2):  # an illegal word is not cached: it traps every time
        with pytest.raises(IllegalInstruction):
            decode(0xFFFFFFFF)


def test_self_modifying_code_runs_the_new_word():
    # pass 1 runs `addi x1, x1, 1` at 0, then stores `addi x1, x1, 100`
    # (held in x4) over it and jumps back; pass 2 must run the new word
    bne = asm_beq(3, 0, 16) | (0b001 << 12)
    st = _run_words([asm_addi(1, 1, 1), bne, asm_addi(3, 0, 1), asm_sw(0, 4, 0), asm_jal(0, -16)],
                    regs={4: asm_addi(1, 1, 100)})
    assert st.status == "halted" and st.pc == 20
    assert st.regs[1] == 101  # 1 + 100: the stale word would give 2
    assert st.mem_read(0, 4) == asm_addi(1, 1, 100).to_bytes(4, "little")


def _random_word(r, code_bytes, mem):
    """One instruction word of a random kind; illegal and trapping ones included."""
    reg = lambda: r.randrange(32)  # noqa: E731
    kind = r.randrange(13)
    if kind == 0:
        return asm_r(OP_REG, r.randrange(8), r.choice((0, 0x20, 0x20, 1)), reg(), reg(), reg())
    if kind in (1, 2):
        return asm_i(OP_IMM, r.randrange(8), reg(), reg(), r.randrange(-2048, 2048))
    if kind == 3:  # load from an absolute address, sometimes past the end of memory
        return asm_i(OP_LOAD, r.randrange(8), reg(), 0, r.randrange(mem + 8))
    if kind in (4, 5):  # store to an absolute address, often over the code itself
        f3, addr = r.randrange(4), r.randrange(code_bytes if kind == 4 else mem + 8)
        return asm_r(OP_STORE, f3, (addr >> 5) & 0x7F, addr & 0x1F, 0, reg())
    if kind == 6:
        return asm_beq(reg(), reg(), 2 * r.randrange(-12, 13)) | (r.randrange(8) << 12)
    if kind == 7:
        return asm_jal(reg(), 2 * r.randrange(-12, 13))
    if kind == 8:
        return asm_i(OP_JALR, r.randrange(2), reg(), reg(), r.randrange(-64, 64))
    if kind == 9:
        lui = asm_lui(reg(), r.randrange(1 << 20))
        return lui if r.randrange(2) else (lui & ~0x7F) | OP_AUIPC
    if kind == 10:
        return asm_r(CUSTOM_OPCODE, r.randrange(4), 0, reg(), reg(), 0)  # no device: traps
    if kind == 11:
        return asm_ebreak()
    return r.getrandbits(32)


def test_random_programs_reach_the_recorded_final_state():
    """3000 random programs end in the state the uncached interpreter gave.

    Registers x1..x8 hold instruction words, so stores into the code region
    rewrite code that may already have run (in 339 of the programs); x9..x20
    hold addresses. Of the 3000, 395 halt and the rest trap, on every trap
    kind: illegal words, misaligned jumps, out-of-bounds loads, stores and
    fetches, the custom opcode with no device, and the step budget. The
    digest was recorded with the interpreter of commit 26c12e8, which
    decoded every fetched word afresh.
    """
    r = random.Random(7)
    n_words, mem = 24, 512
    digest = hashlib.sha256()
    for _ in range(3000):
        st = MachineState(memory_size=mem)
        st.load_words(0, [_random_word(r, 4 * n_words, mem) for _ in range(n_words)])
        st.regs[1:9] = [_random_word(r, 4 * n_words, mem) for _ in range(8)]
        st.regs[9:21] = [r.randrange(mem) for _ in range(12)]
        st.regs[21:] = [r.getrandbits(32) for _ in range(11)]
        run(st, max_steps=64)
        digest.update(repr((st.status, st.trap_cause, st.pc, st.regs)).encode())
        digest.update(st.memory)
    assert digest.hexdigest() == "19e46c871b26ee9b37847dcd870e9bdbb76fb85227a87295e4b635ee3f4dcdfe"


# --- base machine semantics ----------------------------------------------

def _run_words(words, regs=None, mem=4096):
    st = MachineState(memory_size=mem)
    for r, v in (regs or {}).items():
        st.regs[r] = v & 0xFFFFFFFF
    st.load_words(0, list(words) + [asm_ebreak()])
    run(st, max_steps=10000)
    return st


def test_alu_against_python_oracle():
    rng = np.random.default_rng(1)
    ops = [("add", lambda a, b: a + b), ("sub", lambda a, b: a - b),
           ("xor", lambda a, b: a ^ b), ("or", lambda a, b: a | b),
           ("and", lambda a, b: a & b),
           ("sll", lambda a, b: a << (b & 31)),
           ("srl", lambda a, b: a >> (b & 31)),
           ("sra", lambda a, b: (a - ((a & 0x80000000) << 1)) >> (b & 31)),
           ("slt", lambda a, b: int((a ^ 0x80000000) < (b ^ 0x80000000))),
           ("sltu", lambda a, b: int(a < b))]
    encodings = {"add": (0, 0), "sub": (0, 32), "sll": (1, 0), "slt": (2, 0),
                 "sltu": (3, 0), "xor": (4, 0), "srl": (5, 0), "sra": (5, 32),
                 "or": (6, 0), "and": (7, 0)}
    for name, fn in ops:
        f3, f7 = encodings[name]
        for _ in range(40):
            a = int(rng.integers(0, 1 << 32))
            b = int(rng.integers(0, 1 << 32))
            st = _run_words([asm_r(0b0110011, f3, f7, 3, 1, 2)], {1: a, 2: b})
            assert st.regs[3] == fn(a, b) & 0xFFFFFFFF, name


def test_immediate_ops_and_sign_extension():
    st = _run_words([asm_addi(1, 0, -7)])
    assert st.regs[1] == 0xFFFFFFF9
    st = _run_words([asm_i(0b0010011, 0b011, 2, 1, -1)], {1: 5})  # sltiu, imm -1 = max u32
    assert st.regs[2] == 1
    st = _run_words([asm_i(0b0010011, 0b010, 2, 1, 3)], {1: 0xFFFFFFFE})  # slti: -2 < 3
    assert st.regs[2] == 1
    st = _run_words([asm_i(0b0010011, 0b101, 2, 1, 4 | (0b0100000 << 5))], {1: 0x80000000})
    assert st.regs[2] == 0xF8000000  # srai


def test_x0_is_hardwired_zero():
    st = _run_words([asm_addi(0, 0, 55), asm_add(1, 0, 0)])
    assert st.regs[0] == 0 and st.regs[1] == 0


def test_lui_auipc_jal_link_values():
    st = MachineState(memory_size=4096)
    st.load_words(0, [asm_lui(1, 0x12345),
                      asm_i(0b0010111, 0, 2, 0, 0) | (1 << 12),  # auipc x2, 0x1
                      asm_jal(3, 8),
                      asm_addi(4, 0, 99),  # skipped
                      asm_ebreak()])
    run(st)
    assert st.regs[1] == 0x12345000
    assert st.regs[2] == 4 + 0x1000
    assert st.regs[3] == 12  # link = pc + 4 of the jal at 8
    assert st.regs[4] == 0


def test_branch_loop_with_backward_jump():
    st = MachineState(memory_size=4096)
    st.load_words(0, [asm_addi(1, 0, 5),
                      asm_addi(1, 1, -1),     # 0x04
                      asm_beq(1, 0, 8),       # 0x08 -> 0x10 when x1 == 0
                      asm_jal(0, -8),         # 0x0c -> 0x04
                      asm_ebreak()])          # 0x10
    assert run(st) == "halted"
    assert st.regs[1] == 0 and st.pc == 0x10


def test_conditional_branches_against_python_oracle():
    def signed(v):
        return v - (1 << 32) if v & 0x80000000 else v

    oracle = {0b000: lambda a, b: a == b, 0b001: lambda a, b: a != b,
              0b100: lambda a, b: signed(a) < signed(b),
              0b101: lambda a, b: signed(a) >= signed(b),
              0b110: lambda a, b: a < b, 0b111: lambda a, b: a >= b}
    operands = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
    for f3, taken in oracle.items():
        outcomes = set()
        for a in operands:
            for b in operands:
                # x3 = 1 when the branch falls through, 2 when it jumps to 0x0c
                st = _run_words([asm_beq(1, 2, 12) | (f3 << 12), asm_addi(3, 0, 1),
                                 asm_ebreak(), asm_addi(3, 0, 2)], {1: a, 2: b})
                assert st.status == "halted"
                assert st.regs[3] == (2 if taken(a, b) else 1), (f3, a, b)
                outcomes.add(taken(a, b))
        assert outcomes == {True, False}, f3


def test_jalr_clears_low_bit_and_traps_when_misaligned():
    st = MachineState(memory_size=4096)
    st.regs[1] = 0x101
    st.load_words(0, [asm_i(0b1100111, 0, 2, 1, 0)])  # jalr x2, 0(x1)
    st.load_words(0x100, [asm_ebreak()])
    assert run(st) == "halted"
    assert st.regs[2] == 4 and st.pc == 0x100

    st = MachineState(memory_size=4096)
    st.regs[1] = 0x102
    st.regs[2] = 0x55
    st.load_words(0, [asm_i(0b1100111, 0, 2, 1, 0)])
    assert step(st) == "trap"
    assert "misaligned" in st.trap_cause and st.pc == 0
    assert st.regs[2] == 0x55  # the jump does not retire, so rd keeps its value

    st = MachineState(memory_size=4096)
    st.regs[2] = 0x55
    st.load_words(0, [asm_jal(2, 6)])  # jal x2, +6
    assert step(st) == "trap"
    assert "misaligned" in st.trap_cause and st.pc == 0 and st.regs[2] == 0x55


_FIELD = st.integers(0, 31)
_WORDS = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    # every major opcode with any funct3, funct7 mostly one of the two legal values;
    # the R layout covers every bit of the other instruction formats too
    st.builds(asm_r, st.sampled_from([OP_LUI, OP_AUIPC, OP_JAL, OP_JALR, OP_BRANCH, OP_LOAD,
                                      OP_STORE, OP_IMM, OP_REG, CUSTOM_OPCODE]),
              st.integers(0, 7), st.sampled_from([0, 0b0100000]) | st.integers(0, 127),
              _FIELD, _FIELD, _FIELD),
    st.builds(asm_addi, _FIELD, _FIELD, st.integers(-2048, 2047)),
    st.builds(asm_lw, _FIELD, _FIELD, st.integers(-2048, 2047)),
    st.builds(asm_sw, _FIELD, _FIELD, st.integers(-2048, 2047)),
    st.builds(asm_beq, _FIELD, _FIELD, st.integers(-2048, 2047).map(lambda x: 2 * x)),
    st.builds(asm_jal, _FIELD, st.integers(-(1 << 19), (1 << 19) - 1).map(lambda x: 2 * x)),
    st.builds(asm_lui, _FIELD, st.integers(0, 0xFFFFF)),
    st.builds(asm_inner_puf_init, _FIELD, _FIELD),
    st.builds(asm_outer_puf_chal, _FIELD, _FIELD, _FIELD),
    st.just(asm_ebreak()),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_WORDS, st.integers(0, 2**32 - 1), st.integers(0, 63).map(lambda i: 4 * i) | st.integers(0, 252))
def test_decode_and_step_on_any_word(word, reg_seed, pc):
    try:
        instr = decode(word)
    except IllegalInstruction:
        instr = None
    if instr is not None and instr.opcode in (OP_REG, CUSTOM_OPCODE):
        assert encode_fields(instr) == word

    state = MachineState(memory_size=256)  # no device: the custom opcode traps
    state.memory[:] = bytes(range(256))
    g = np.random.default_rng(reg_seed)  # half the registers small enough to address memory
    regs = np.where(g.random(31) < 0.5, g.integers(0, 256, 31), g.integers(0, 1 << 32, 31))
    state.regs[1:] = [int(v) for v in regs]
    state.pc = pc
    state.mem_write(pc, word.to_bytes(4, "little"))
    before = (list(state.regs), state.pc, bytes(state.memory))
    status = step(state)
    assert status in ("continue", "halted", "trap")
    if instr is None:
        assert status == "trap"
    if status == "trap":  # a trapped instruction retires nothing
        assert (state.regs, state.pc, bytes(state.memory)) == before


def test_memory_ops_widths_and_sign():
    st = _run_words([
        asm_addi(1, 0, 0x7A2),             # scratch base
        *li32(2, 0xDEADBEEF),
        asm_sw(1, 2, 0),
        asm_lw(3, 1, 0),
        asm_i(0b0000011, 0b000, 4, 1, 0),  # lb  -> sign extend 0xEF
        asm_i(0b0000011, 0b100, 5, 1, 0),  # lbu
        asm_i(0b0000011, 0b001, 6, 1, 0),  # lh  -> sign extend 0xBEEF
        asm_i(0b0000011, 0b101, 7, 1, 0),  # lhu
        asm_r(0b0100011, 0b000, 0, 0, 1, 2) | (4 << 7),  # sb x2 -> +4
        asm_i(0b0000011, 0b100, 8, 1, 4),
    ])
    assert st.regs[3] == 0xDEADBEEF
    assert st.regs[4] == 0xFFFFFFEF and st.regs[5] == 0xEF
    assert st.regs[6] == 0xFFFFBEEF and st.regs[7] == 0xBEEF
    assert st.regs[8] == 0xEF


def test_traps_preserve_pc_and_stop_the_machine():
    st = MachineState(memory_size=4096)
    st.load_words(0, [*li32(1, 4094), asm_lw(2, 1, 0)])  # crosses end of memory
    assert run(st) == "trap"
    assert st.pc == 8 and "out of bounds" in st.trap_cause

    st = MachineState(memory_size=4096)
    st.load_words(0, [0xFFFFFFFF])
    assert run(st) == "trap" and st.pc == 0

    st = MachineState(memory_size=64)
    st.load_words(0, [asm_jal(0, 0)])  # spin forever
    assert run(st, max_steps=50) == "trap"
    assert "budget" in st.trap_cause
    with pytest.raises(ValueError, match="max_steps"):
        run(st, max_steps=0)


# integers only, numpy's too; each of these built a truncated machine, ran a
# truncated budget or raised a bare TypeError
@pytest.mark.parametrize("call,name", [
    (lambda: MachineState(memory_size=2.5), "memory_size"),
    (lambda: MachineState(memory_size="64"), "memory_size"),
    (lambda: run(MachineState(memory_size=64), max_steps=1.5), "max_steps"),
    (lambda: run(MachineState(memory_size=64), max_steps=True), "max_steps"),
    (lambda: PufDevice(get_code("bch"), seed=1.5), "seed"),
], ids=["memory-size-float", "memory-size-str", "max-steps-float", "max-steps-bool",
        "device-seed"])
def test_non_integer_machine_parameters_raise_value_error_naming_them(call, name):
    with pytest.raises(ValueError, match=name):
        call()


# each of these raised a bare TypeError from a slice, read address 1 for True, or read
# all but the last byte of memory for a negative length
@pytest.mark.parametrize("call,name", [
    (lambda st: st.mem_read(1.5, 4), "addr"),
    (lambda st: st.mem_read(True, 4), "addr"),
    (lambda st: st.mem_read("0", 4), "addr"),
    (lambda st: st.mem_read(0, 2.0), "length"),
    (lambda st: st.mem_read(0, False), "length"),
    (lambda st: st.mem_read(0, -1), "length"),
    (lambda st: st.mem_write(1.5, b"x"), "addr"),
    (lambda st: st.mem_write(True, b"x"), "addr"),
], ids=["read-addr-float", "read-addr-bool", "read-addr-str", "read-length-float",
        "read-length-bool", "read-length-negative", "write-addr-float", "write-addr-bool"])
def test_non_integer_memory_arguments_raise_value_error_naming_them(call, name):
    st = MachineState(memory_size=64)
    with pytest.raises(ValueError, match=name):
        call(st)
    assert st.memory == bytes(64)


def test_memory_access_takes_numpy_integers():
    st = MachineState(memory_size=64)
    st.mem_write(np.int64(4), b"ab")
    assert st.mem_read(np.uint32(4), np.int8(2)) == b"ab"


# the parameter block holds idx in 32 bits, so no program reaches another index;
# each of these registered a truncated or unreachable index
@pytest.mark.parametrize("idx", [1.5, "3", -1, 1 << 32])
def test_register_takes_a_32_bit_integer_index_only(idx):
    dev = PufDevice(get_code("bch"))
    with pytest.raises(ValueError, match="idx"):
        dev.register(idx, SramPuf(1))
    assert dev.pufs == {}


def test_numpy_integer_machine_parameters_are_accepted():
    st = MachineState(memory_size=np.int64(64))
    st.load_words(0, [asm_jal(0, 0)])
    assert len(st.memory) == 64 and run(st, max_steps=np.uint32(5)) == "trap"
    assert "budget of 5 " in st.trap_cause


@pytest.mark.parametrize("mem, pc", [(4096, -4), (4096, 4096), (4096, 1 << 32), (6, 4)])
def test_fetch_out_of_bounds_traps_like_a_load(mem, pc):
    st = MachineState(memory_size=mem)
    st.pc = pc
    assert run(st) == "trap" and st.pc == pc
    assert st.trap_cause == f"read [{pc:#x}, +4) out of bounds"


def test_load_hex_program_and_dump():
    st = MachineState(memory_size=256)
    st.load_hex_program("""
        # program header comment
        0: 00500093   # addi x1, x0, 5
        4: 00100073
    """)
    assert run(st) == "halted"
    assert st.regs[1] == 5
    d = st.dump()
    assert d["status"] == "halted" and len(d["regs"]) == 32
    assert len(d["memory_sha256"]) == 64


@pytest.mark.parametrize("bad", [-1, 1 << 32, 1.5, True])
def test_load_words_rejects_a_word_outside_32_bits_before_writing(bad):
    st = MachineState(memory_size=64)
    with pytest.raises(ValueError, match=r"word 1: .*0xffffffff"):
        st.load_words(0, [asm_ebreak(), bad, asm_ebreak()])
    assert st.memory == bytearray(64)


@pytest.mark.parametrize("line", ["-4: 00000013", "40: 00000013", "3e: 00000013"],
                         ids=["negative", "past-the-end", "straddling-the-end"])
def test_load_hex_program_checks_every_line_before_writing(line):
    st = MachineState(memory_size=64)
    with pytest.raises(ValueError, match=r"^program does not fit in 64 bytes: line 3 "):
        st.load_hex_program(f"0: 00500093\n# the last line cannot be written\n{line}\n")
    assert st.memory == bytearray(64)


def test_load_hex_program_writes_the_last_word_of_memory():
    st = MachineState(memory_size=64)
    st.load_hex_program("3c: 00100073")
    assert st.memory[60:] == bytes.fromhex("73001000") and not any(st.memory[:60])


# --- custom instructions end to end --------------------------------------

def _machine_with_device(seed=42, puf_seed=99, p=0.02, capacity=16, mem=8192):
    dev = PufDevice(get_code("bch"), seed=seed, capacity=capacity)
    dev.register(3, SramPuf(puf_seed, p=p))
    st = MachineState(memory_size=mem, device=dev)
    return st, dev


def _write_init_block(st, addr, idx, c0):
    st.mem_write(addr, idx.to_bytes(4, "little") + c0.to_bytes(8, "little"))


def _write_chal_block(st, addr, idx, outer16):
    st.mem_write(addr, idx.to_bytes(4, "little") + outer16)


def test_init_and_chal_match_library_path():
    st, dev = _machine_with_device()
    outer = bytes(range(16))
    _write_init_block(st, 0x200, 3, 7)
    _write_chal_block(st, 0x220, 3, outer)
    st.load_words(0, [*li32(5, 0x200),
                      asm_inner_puf_init(10, 5),
                      *li32(6, 0x220),
                      *li32(7, 0x300),
                      asm_outer_puf_chal(11, 6, 7),
                      asm_ebreak()])
    assert run(st) == "halted"
    assert st.regs[10] == 0 and st.regs[11] == 0

    # mirror with direct library calls, re-deriving the device's seeds
    code = get_code("bch")
    rng_seed = derive_seed("device-enroll", 42, 3, 7)
    helper, r2 = enroll(SramPuf(99, p=0.02), 7, code, rng_seed)
    assert np.array_equal(helper.aux, dev.aux_table[3].aux)
    r3 = compose_response(r2, bytes_to_bits(outer), 127)
    assert st.mem_read(0x300, 32) == bits_to_bytes(r3)
    assert dev.read_count == 1


def test_unknown_index_reports_status_1():
    st, _ = _machine_with_device()
    _write_init_block(st, 0x200, 8, 0)  # idx 8 never registered
    st.load_words(0, [*li32(5, 0x200), asm_inner_puf_init(10, 5), asm_ebreak()])
    assert run(st) == "halted" and st.regs[10] == 1

    st, _ = _machine_with_device()
    _write_chal_block(st, 0x220, 3, bytes(16))  # registered but not enrolled
    st.load_words(0, [*li32(6, 0x220), *li32(7, 0x300),
                      asm_outer_puf_chal(11, 6, 7), asm_ebreak()])
    assert run(st) == "halted" and st.regs[11] == 1


def test_memory_fault_reports_status_2_without_side_effects():
    st, dev = _machine_with_device(mem=4096)
    st.load_words(0, [*li32(5, 4090),  # 12-byte block would cross the end
                      asm_inner_puf_init(10, 5), asm_ebreak()])
    assert run(st) == "halted"
    assert st.regs[10] == 2 and dev.aux_table == {}

    st, dev = _machine_with_device(mem=4096)
    dev.enroll_idx(3, 7)
    _write_chal_block(st, 0x220, 3, bytes(16))
    st.load_words(0, [*li32(6, 0x220), *li32(7, 4080),  # output would cross
                      asm_outer_puf_chal(11, 6, 7), asm_ebreak()])
    before = dev.read_count
    assert run(st) == "halted"
    assert st.regs[11] == 2 and dev.read_count == before


def test_chal_block_crossing_memory_end_reports_status_2_without_a_read():
    st, dev = _machine_with_device(mem=4096)
    dev.enroll_idx(3, 7)
    st.load_words(0, [*li32(6, 4090),  # 20-byte block would cross the end
                      *li32(7, 0x300), asm_outer_puf_chal(11, 6, 7), asm_ebreak()])
    assert run(st) == "halted"
    assert st.regs[11] == 2 and dev.read_count == 0
    assert st.mem_read(0x300, 32) == bytes(32)


def test_width_mismatch_reports_status_3():
    dev = PufDevice(get_code("bch"), seed=1)
    dev.register(3, SramPuf(5, block_bits=64))  # 64-bit blocks vs n=127 code
    st = MachineState(memory_size=4096, device=dev)
    _write_init_block(st, 0x200, 3, 0)
    st.load_words(0, [*li32(5, 0x200), asm_inner_puf_init(10, 5), asm_ebreak()])
    assert run(st) == "halted"
    assert st.regs[10] == 3 and 3 not in dev.aux_table


def test_decode_failure_reports_status_4_and_consumes_read():
    # capacity-1 buffer: enrolling a second index evicts the first entry,
    # forcing the later sample to attempt a real (hopeless) reconstruction
    st, dev = _machine_with_device(p=0.45, capacity=1)
    dev.register(4, SramPuf(123, p=0.0))
    dev.enroll_idx(3, 7)
    dev.enroll_idx(4, 1)
    _write_chal_block(st, 0x220, 3, bytes(16))
    st.load_words(0, [*li32(6, 0x220), *li32(7, 0x300),
                      asm_outer_puf_chal(11, 6, 7), asm_ebreak()])
    assert run(st) == "halted"
    assert st.regs[11] == 4
    assert dev.read_count == 1
    assert st.mem_read(0x300, 32) == bytes(32)  # output untouched


def test_buffer_hit_still_consumes_a_read_seed():
    st, dev = _machine_with_device()
    dev.enroll_idx(3, 7)
    out = np.zeros(128, dtype=np.uint8)
    a = dev.sample_r3(3, out)
    b = dev.sample_r3(3, out)
    assert np.array_equal(a, b)
    assert dev.read_count == 2
    assert dev.buffer.hits == 2  # enrollment seeded the entry


def test_device_replay_is_deterministic():
    outs = []
    for _ in range(2):
        dev = PufDevice(get_code("bch"), seed=5, capacity=2)
        dev.register(0, SramPuf(1, p=0.03))
        dev.register(1, SramPuf(2, p=0.03))
        dev.enroll_idx(0, 10)
        dev.enroll_idx(1, 11)
        outer = np.ones(128, dtype=np.uint8)
        outs.append([dev.sample_r3(i % 2, outer) for i in range(6)])
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


def test_custom_opcode_without_device_traps():
    st = MachineState(memory_size=256)
    st.load_words(0, [asm_inner_puf_init(10, 5)])
    assert run(st) == "trap"
    assert "no PUF device" in st.trap_cause
