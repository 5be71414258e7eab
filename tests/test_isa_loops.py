"""Blocks that loop on themselves and blocks that end on a custom instruction.

As in test_isa_blocks.py, every program runs through `run` and through a
plain `step` loop, and the two machines must end equal. Programs with custom
instructions run on two identically built devices, which must end equal too:
read count and buffer counters.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risecure import isa
from risecure.extractor import get_code
from risecure.isa import (OP_LOAD, OP_REG, MachineState, PufDevice, asm_addi, asm_beq,
                          asm_ebreak, asm_i, asm_inner_puf_init, asm_jal, asm_outer_puf_chal,
                          asm_r, run)
from risecure.puf import SramPuf
from test_isa_blocks import _bne, _handler_machine, _load, _outcome, _run_both, _step_loop, _store

MEM = 512
CHAL, OUT = 0x100, 0x180  # a challenge block (index 0, then 16 bytes) and an output region

# x3 counts 4 passes of the self-loop at word 1: x1 += 1, x3 -= 1, bne x3, x0 back to word 1
COUNTED_LOOP = [asm_addi(3, 0, 4), asm_addi(1, 1, 1), asm_addi(3, 3, -1), _bne(3, 0, -8),
                asm_ebreak()]


@pytest.mark.parametrize("first", range(1, 16))
def test_a_budget_that_ends_inside_a_self_loop_then_resumes(first):
    # 14 instructions in all; every first budget below that stops the loop on
    # another word or pass, and the second run resumes from there
    state = _run_both(COUNTED_LOOP, {}, [first, 100])
    assert state.status == "halted" and state.regs[1] == 4


def test_a_budget_that_ends_inside_a_self_loop_stops_on_the_right_word():
    state = MachineState(memory_size=MEM)
    state.load_words(0, COUNTED_LOOP)
    # word 0 then the loop block: 1 + 3 passes of 3 words, and one word into the fourth pass
    assert run(state, 11) == "trap" and "budget of 11" in state.trap_cause
    assert (state.pc, state.regs[1], state.regs[3]) == (8, 4, 1)
    assert run(state, 100) == "halted" and (state.pc, state.regs[1], state.regs[3]) == (16, 4, 0)


def test_a_self_loop_is_entered_once_for_all_its_passes():
    state = MachineState(memory_size=MEM)
    state.load_words(0, COUNTED_LOOP)
    assert run(state) == "halted"
    calls = []
    code, n, block = state._blocks[4]
    state._blocks[4] = (code, n, lambda *args: calls.append(args[3]) or block(*args))
    state.pc, state.regs[1] = 0, 0
    assert run(state) == "halted" and state.regs[1] == 4
    assert calls == [4]  # the first pass runs in word 0's block, the other three in one entry


def test_a_self_loop_that_stores_into_its_own_words_runs_the_new_text():
    # the loop's second word stores x4 over its first, `addi x1, x1, 1`, and
    # the third adds 99 to the immediate x4 holds: pass k stores `addi x1, x1,
    # 1 + 99 * (k - 1)`, which pass k + 1 runs. The first pass runs in word 0's
    # block and the loop block is translated after it, so only a pass that
    # went on with its stale translation would add 1 again.
    words = [asm_addi(3, 0, 4), asm_addi(1, 1, 1), _store(4, 4), asm_r(OP_REG, 0, 0, 4, 4, 6),
             asm_addi(3, 3, -1), _bne(3, 0, -16), asm_ebreak()]
    state = _run_both(words, {4: asm_addi(1, 1, 1), 6: 99 << 20}, [100])
    assert state.status == "halted" and state.regs[1] == 1 + 1 + 100 + 199


def test_a_self_loop_that_stores_into_a_word_before_the_store_ends_its_pass():
    # the store rewrites the loop's branch on the first pass: bne becomes beq, so the loop exits
    words = [asm_addi(3, 0, 4), asm_addi(1, 1, 1), _store(4, 12), _bne(3, 0, -8), asm_ebreak()]
    state = _run_both(words, {4: asm_beq(3, 0, -8)}, [100])
    assert state.status == "halted" and state.regs[1] == 1


def _device():
    dev = PufDevice(get_code("bch"), seed=3, capacity=2)
    for idx in (0, 1):
        dev.register(idx, SramPuf(11 + idx, p=0.02))
    dev.enroll_idx(0, 5)
    return dev


def _device_outcome(state):
    dev = state.device
    return (*_outcome(state), dev.read_count, dev.buffer.counters(), list(dev.buffer.entries),
            dev.enrolled_c0)


def _device_machine(words, regs, device=True):
    state = MachineState(memory_size=MEM, device=_device() if device else None)
    state.mem_write(CHAL, bytes(4) + bytes(range(16)))
    state.load_words(0, words)
    for r, v in regs.items():
        state.regs[r] = v
    return state


def test_outer_puf_chal_mid_block_without_a_device_traps_on_it():
    words = [asm_addi(1, 0, CHAL), asm_addi(2, 0, OUT), asm_outer_puf_chal(5, 1, 2),
             asm_addi(3, 0, 1), asm_ebreak()]
    machines = []
    for execute in (run, _step_loop):
        state = _device_machine(words, {}, device=False)
        execute(state, 100)
        machines.append(state)
    blocks, stepped = machines
    assert _outcome(blocks) == _outcome(stepped)
    assert blocks.status == "trap" and "no PUF device" in blocks.trap_cause
    assert blocks.pc == 8 and blocks.regs[1:6] == [CHAL, OUT, 0, 0, 0]


def test_a_handler_that_raises_leaves_pc_on_its_custom_instruction():
    # helper data enrolled on BCH, read on RS: sample_with_buffer raises ValueError
    words = [asm_addi(1, 0, CHAL), asm_addi(2, 0, OUT), asm_outer_puf_chal(5, 1, 2), asm_ebreak()]
    machines = []
    for execute in (run, _step_loop):
        state = _device_machine(words, {})
        state.device.code = get_code("rs")
        with pytest.raises(ValueError, match="helper data is for code"):
            execute(state, 100)
        machines.append(state)
    blocks, stepped = machines
    assert _outcome(blocks) == _outcome(stepped)
    assert blocks.pc == 8 and blocks.regs[1:3] == [CHAL, OUT]


def test_outer_puf_chal_whose_r3_overwrites_the_words_after_it():
    # the first run writes R3 to OUT and translates the words after the
    # challenge; the second writes R3 over them, so those translations are stale
    words = [asm_addi(1, 0, CHAL), asm_outer_puf_chal(5, 1, 2), asm_addi(3, 3, 1),
             asm_addi(3, 3, 1), asm_ebreak()]
    machines = []
    for execute in (run, _step_loop):
        state = _device_machine(words, {2: OUT})
        assert execute(state, 100) == "halted" and state.regs[3] == 2
        state.pc, state.regs[2] = 0, 8  # R3's 32 bytes over words 2 to 9
        execute(state, 100)
        machines.append(state)
    blocks, stepped = machines
    assert _device_outcome(blocks) == _device_outcome(stepped)
    assert blocks.regs[5] == 0 and blocks.memory[8:40] == blocks.memory[OUT:OUT + 32] != bytes(32)
    assert blocks.pc >= 8  # it ran past the challenge, into R3's bytes


def _word(r, i, n_words):
    """Word i of n_words, drawn from r (a random.Random): loops back to earlier
    words, custom instructions over registers that hold parameter blocks,
    and stores into the code."""
    rd = r.choice((0, 1, 2, 3, 4))  # x20..x28 keep the blocks' addresses
    kind = r.randrange(10)
    if kind < 2:
        return asm_addi(rd, r.randrange(5), r.randrange(-3, 4))
    if kind == 2:
        return asm_r(OP_REG, r.randrange(8), r.choice((0, 0x20)), rd, r.randrange(5),
                     r.randrange(5))
    if kind < 5:  # a backward branch, often to the entry of its own block
        return asm_beq(r.randrange(5), r.randrange(5), -4 * r.randrange(i + 1)) \
            | (r.choice((0, 1, 4, 5, 6, 7)) << 12)
    if kind == 5:
        return asm_outer_puf_chal(rd, r.randrange(20, 24), r.randrange(24, 27))
    if kind == 6:
        return asm_inner_puf_init(rd, r.choice((27, 28)))
    if kind == 7:  # a store into the code or into a parameter block
        return _store(r.randrange(5), r.randrange(r.choice((4 * n_words, MEM))), r.randrange(3))
    if kind == 8:
        return asm_i(OP_LOAD, r.choice((0, 2, 4)), rd, 0, r.randrange(MEM))
    return r.choice((asm_jal(rd, 4 * r.randrange(1, n_words - i + 1)), asm_ebreak()))


@st.composite
def _device_programs(draw):
    """Programs drawn as in test_isa_blocks, with the parameter blocks that their
    custom instructions read."""
    n_words = draw(st.integers(1, 24))
    budgets = draw(st.lists(st.integers(1, 80), min_size=1, max_size=3))
    r = random.Random(draw(st.integers(0, 2**64 - 1)))
    words = [_word(r, i, n_words) for i in range(n_words)]
    regs = {i: r.randrange(-8, 8) & 0xFFFFFFFF for i in range(1, 5)}
    # challenge blocks of index 0, index 1 (enrolled by an init), no index, and out of memory;
    # outputs in memory, out of memory and over the code; init blocks of index 1 and index 0
    regs.update({20: CHAL, 21: 0x120, 22: 0x140, 23: MEM - 8, 24: OUT, 25: MEM - 16,
                 26: 4 * r.randrange(n_words), 27: 0x160, 28: 0x170})
    blocks = {0x120: (1).to_bytes(4, "little") + r.randbytes(16), 0x140: (9).to_bytes(4, "little"),
              0x160: (1).to_bytes(4, "little") + (2).to_bytes(8, "little"),
              0x170: bytes(4) + r.randrange(4).to_bytes(8, "little")}
    return words, regs, blocks, budgets


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_device_programs())
def test_run_matches_the_step_loop_on_generated_programs_with_a_device(program):
    words, regs, blocks, budgets = program
    machines = []
    for execute in (run, _step_loop):
        state = _device_machine(words, regs)
        for addr, data in blocks.items():
            state.mem_write(addr, data)
        for budget in budgets:
            execute(state, budget)
            if state.status == "halted" or "budget" not in state.trap_cause:
                break
        machines.append(state)
    blocks_run, stepped = machines
    assert _device_outcome(blocks_run) == _device_outcome(stepped)


def test_generated_programs_reach_self_loops_and_custom_instructions(monkeypatch):
    # the generator's words must really take the paths the test above is for
    taken = {"loop": 0, "custom": 0}
    translate = isa._translate.__wrapped__

    def counting(code):
        last = isa._decode_word(int.from_bytes(code[-4:], "little"))
        taken["loop"] += last.opcode == isa.OP_BRANCH and last.imm == 4 - len(code)
        taken["custom"] += last.opcode == isa.CUSTOM_OPCODE
        return translate(code)

    monkeypatch.setattr(isa, "_translate", counting)
    r = random.Random(0)
    for _ in range(50):
        n_words = r.randrange(1, 25)
        state = _device_machine([_word(r, i, n_words) for i in range(n_words)],
                                {20: CHAL, 24: OUT, 27: 0x160})
        run(state, 80)
    assert taken["loop"] >= 10 and taken["custom"] >= 10


def test_the_handler_runs_its_loops_and_its_challenge_inside_blocks():
    # li32 + lw + beq; the challenge set-up and the first mix pass; the mix
    # loop; two addis and outer_puf_chal; sw + bne; the fold set-up and first
    # pass; the fold loop; sw; and ebreak, which step runs (no words)
    state = _handler_machine(_load("workloads"), 0)
    assert run(state) == "halted"
    words = {pc: n for pc, (_, n, _) in state._blocks.items()}
    assert words == {0: 4, 52: 15, 72: 10, 112: 3, 124: 2, 132: 7, 140: 5, 160: 1, 164: 0}
