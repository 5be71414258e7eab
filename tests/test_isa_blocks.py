"""`run` executes straight-line code as translated blocks; `step` is the reference.

Every program here runs twice, once through `run` and once through a plain
`step` loop, and the two machines must end equal: registers, memory, pc,
status and trap cause.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risecure import isa
from risecure.extractor import get_code
from risecure.isa import (BLOCK_CACHE_SIZE, OP_AUIPC, OP_IMM, OP_JALR, OP_LOAD, OP_REG, OP_STORE,
                          MachineState, PufDevice, asm_addi, asm_beq, asm_ebreak, asm_i, asm_jal,
                          asm_lui, asm_lw, asm_r, run, step)
from risecure.puf import SramPuf

ROOT = Path(__file__).resolve().parent.parent
MEM = 512


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _step_loop(state, max_steps):
    """The reference: one `step` per instruction, with run's budget rule."""
    for _ in range(max_steps):
        if step(state) != "continue":
            return state.status
    state.status = "trap"
    state.trap_cause = f"step budget of {max_steps} exhausted"
    return state.status


def _machine(words, regs):
    state = MachineState(memory_size=MEM)
    state.load_words(0, words)
    for r, v in regs.items():
        state.regs[r] = v
    return state


def _outcome(state):
    return state.regs, bytes(state.memory), state.pc, state.status, state.trap_cause


def _run_both(words, regs, budgets):
    """Run `words` through run and through the step loop, each budget in turn
    while the machine is still running or stopped only by its budget, so later
    runs meet blocks translated earlier, some of them since overwritten."""
    machines = []
    for execute in (run, _step_loop):
        state = _machine(words, regs)
        for budget in budgets:
            execute(state, budget)
            if state.status == "halted" or "budget" not in state.trap_cause:
                break
        machines.append(state)
    blocks, stepped = machines
    assert _outcome(blocks) == _outcome(stepped)
    return blocks


def _store(rs2, addr, funct3=0b010):
    return asm_r(OP_STORE, funct3, (addr >> 5) & 0x7F, addr & 0x1F, 0, rs2)


def _bne(rs1, rs2, offset):
    return asm_beq(rs1, rs2, offset) | (0b001 << 12)


_STRADDLE = _store(4, 6)  # sw x4 over bytes 6..9: its own upper half and the low half of word 2
_STRADDLE_VALUE = int.from_bytes(_STRADDLE.to_bytes(4, "little")[2:]
                                 + asm_addi(2, 1, 1).to_bytes(4, "little")[:2], "little")

# each case names a way out of a block; the assertion after the comparison
# checks that the program really took it
EDGES = {
    # a budget of 5 ends inside the 8-word block
    "budget-inside-block": ([asm_addi(1, 1, 1)] * 8 + [asm_ebreak()], {}, [5],
                            lambda s: s.pc == 20 and s.regs[1] == 5),
    # the third word loads past the end of memory: pc stops there, the first two retired
    "load-faults-mid-block": ([asm_addi(1, 0, 7), asm_addi(2, 0, 9), asm_lw(3, 0, MEM - 3),
                               asm_addi(4, 0, 1), asm_ebreak()], {}, [100],
                              lambda s: s.pc == 8 and s.regs[1:5] == [7, 9, 0, 0]
                              and "read [0x1fd, +4)" in s.trap_cause),
    "store-faults-mid-block": ([asm_addi(1, 0, 7), _store(1, MEM - 1, 0b001), asm_addi(2, 0, 1),
                                asm_ebreak()], {}, [100],
                               lambda s: s.pc == 4 and s.regs[1:3] == [7, 0]
                               and "write [0x1ff, +2)" in s.trap_cause),
    # the store rewrites word 3 of its own block; the new word must run
    "store-rewrites-a-later-word": ([asm_addi(1, 1, 1), _store(4, 12), asm_addi(1, 1, 1),
                                     asm_addi(1, 1, 1), asm_ebreak()],
                                    {4: asm_addi(1, 1, 100)}, [100],
                                    lambda s: s.status == "halted" and s.regs[1] == 102),
    # the store at byte 6 rewrites the low half of word 2: `addi x1, x1, 1` becomes `addi x2, x1, 1`
    "store-straddles-into-a-later-word": ([asm_addi(1, 1, 1), _STRADDLE, asm_addi(1, 1, 1),
                                           asm_addi(1, 1, 1), asm_ebreak()],
                                          {4: _STRADDLE_VALUE}, [100],
                                          lambda s: s.status == "halted" and s.regs[1:3] == [2, 2]),
    # the loop branches back to word 1 of the block that starts at 0
    "jump-into-a-translated-block": ([asm_addi(3, 0, 3), asm_addi(1, 1, 1), asm_addi(3, 3, -1),
                                      _bne(3, 0, -8), asm_ebreak()], {}, [100],
                                     lambda s: s.status == "halted" and s.regs[1] == 3),
    "writes-to-x0": ([asm_addi(0, 0, 5), asm_lui(0, 1), asm_lw(0, 0, 0), asm_r(OP_REG, 0, 0, 0, 1, 1),
                      asm_jal(0, 4), asm_ebreak()], {1: 3}, [100],
                     lambda s: s.status == "halted" and s.regs[0] == 0),
    "misaligned-branch-target": ([asm_addi(1, 0, 1), asm_beq(0, 0, 6), asm_ebreak()], {}, [100],
                                 lambda s: s.pc == 4 and "misaligned jump target 0xa" in s.trap_cause),
    "misaligned-jal-target": ([asm_addi(1, 0, 1), asm_jal(2, 6), asm_ebreak()], {}, [100],
                              lambda s: s.pc == 4 and s.regs[2] == 0 and "misaligned" in s.trap_cause),
    "misaligned-jalr-target": ([asm_addi(1, 0, 1), asm_i(OP_JALR, 0, 2, 5, 3), asm_ebreak()], {5: 7},
                               [100], lambda s: s.pc == 4 and s.regs[2] == 0
                               and "misaligned jump target 0xa" in s.trap_cause),
    # the second run starts from the budget stop, mid-block, on the same machine
    "budget-then-resume": ([asm_addi(1, 1, 1)] * 6 + [_bne(1, 0, 4), asm_ebreak()], {}, [3, 100],
                           lambda s: s.status == "halted" and s.regs[1] == 6),
}


@pytest.mark.parametrize("words,regs,budgets,took_edge", EDGES.values(), ids=EDGES.keys())
def test_block_exits_match_the_step_loop(words, regs, budgets, took_edge):
    assert took_edge(_run_both(words, regs, budgets))


def _word(r, n_words):
    """One word of a kind drawn from r (a random.Random), for a program of n_words."""
    reg = lambda: r.randrange(32)  # noqa: E731
    rd = lambda: r.choice((0, 0, 1, 2, 3, reg()))  # noqa: E731  x0 often, so its writes are dropped
    offset = 2 * r.randrange(-n_words, n_words + 1)  # every other target misaligned
    kind = r.randrange(11)
    if kind == 0:
        return asm_r(OP_REG, r.randrange(8), r.choice((0, 0x20)), rd(), reg(), reg())
    if kind == 1:
        return asm_i(OP_IMM, r.randrange(8), rd(), reg(), r.randrange(-2048, 2048))
    # loads and stores at absolute addresses, often in the code itself, sometimes past the end of memory
    if kind == 2:
        addr = r.randrange(r.choice((4 * n_words, MEM + 5)))
        return asm_i(OP_LOAD, r.choice((0, 1, 2, 4, 5)), rd(), 0, addr)
    if kind in (3, 4):
        return _store(reg(), r.randrange(4 * n_words if kind == 3 else MEM + 5), r.randrange(3))
    if kind == 5:
        return asm_beq(reg(), reg(), offset) | (r.choice((0, 1, 4, 5, 6, 7)) << 12)
    if kind == 6:
        return asm_jal(rd(), offset)
    if kind == 7:  # x9..x12 hold addresses in the code
        return asm_i(OP_JALR, 0, rd(), r.randrange(9, 13), r.randrange(-8, 9))
    if kind == 8:
        lui = asm_lui(rd(), r.randrange(1 << 20))
        return lui if r.randrange(2) else (lui & ~0x7F) | OP_AUIPC
    if kind == 9:
        return asm_ebreak()
    return r.getrandbits(32)  # mostly undecodable


@st.composite
def _programs(draw):
    """Hypothesis draws the size, the budgets and a seed; the seed draws the words."""
    n_words = draw(st.integers(1, 24))
    budgets = draw(st.lists(st.integers(1, 80), min_size=1, max_size=3))
    r = random.Random(draw(st.integers(0, 2**64 - 1)))
    words = [_word(r, n_words) for _ in range(n_words)]
    regs = {i: _word(r, n_words) for i in range(1, 9)}  # stored over code, they become code
    regs.update({i: r.randrange(4 * n_words + 1) for i in range(9, 13)})  # jalr bases
    regs.update({i: r.getrandbits(32) for i in range(13, 32)})
    return words, regs, budgets


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(_programs())
def test_run_matches_the_step_loop_on_generated_programs(program):
    _run_both(*program)


# run checks pc and the registers once on entry; each of these raised numpy's
# OverflowError, a format error from a trap message, or a bare TypeError
@pytest.mark.parametrize("prepare,name", [
    (lambda s: setattr(s, "pc", 1.5), "pc"),
    (lambda s: setattr(s, "pc", "0"), "pc"),
    (lambda s: s.regs.__setitem__(3, 2.0), r"regs\[3\]"),
    (lambda s: s.regs.__setitem__(5, True), r"regs\[5\]"),
    (lambda s: s.regs.__setitem__(31, -1), r"regs\[31\]"),
    (lambda s: s.regs.__setitem__(1, 1 << 32), r"regs\[1\]"),
    (lambda s: s.regs.__setitem__(1, np.int64(-1)), r"regs\[1\]"),
    (lambda s: s.regs.pop(), "regs"),
    (lambda s: s.load_words(1.5, [1]), "addr"),
], ids=["pc-float", "pc-str", "reg-float", "reg-bool", "reg-negative", "reg-wide", "reg-numpy-negative",
        "regs-31", "load-words-addr-float"])
def test_non_integer_entry_state_raises_value_error_naming_it(prepare, name):
    state = _machine([asm_addi(2, 1, -1), asm_ebreak()], {})
    with pytest.raises(ValueError, match=name):
        prepare(state)
        run(state)


def test_numpy_integer_entry_state_is_accepted_as_int():
    state = _machine([asm_addi(2, 1, -1), asm_ebreak()], {1: np.uint32(0), 4: np.int64(5)})
    state.pc = np.int64(0)
    assert run(state) == "halted"
    assert state.regs[2] == 0xFFFFFFFF and state.regs[4] == 5
    assert all(type(v) is int for v in state.regs) and type(state.pc) is int


def _handler_machine(workloads, rotate):
    dev = PufDevice(get_code("bch"), seed=3)
    dev.register(0, SramPuf(11, p=0.02))
    dev.enroll_idx(0, 5)
    state = MachineState(memory_size=1 << 16, device=dev)
    state.load_words(0, workloads.assemble_handler())
    state.load_words(workloads.BASE, [0, 12345, rotate, 6, 0])
    return state


@pytest.mark.parametrize("rotate", [0, 1])
def test_a_wrapped_step_sees_every_retired_instruction(rotate, monkeypatch):
    # the benchmark's tracer wraps every name bound to isa.step, so a private
    # alias of step is wrapped as well; run must still call the wrapper once
    # per instruction, as the benchmark's retired-instruction count assumes
    spans, workloads = _load("spans"), _load("workloads")
    reference = _handler_machine(workloads, rotate)
    stepped = 1  # the ebreak that halts it
    while step(reference) == "continue":
        stepped += 1

    monkeypatch.setattr(isa, "_step_alias", isa.step, raising=False)
    calls = []

    def wrapper(state, _step=isa.step):
        calls.append(state.pc)
        return _step(state)

    found = spans.bindings(isa.step)
    assert (isa, "step") in found and (isa, "_step_alias") in found
    for namespace, attr in found:
        monkeypatch.setattr(namespace, attr, wrapper)
    traced = _handler_machine(workloads, rotate)
    assert run(traced) == "halted"
    assert len(calls) == stepped == 98 + 9 * rotate
    assert _outcome(traced) == _outcome(reference)


def test_block_caches_are_bounded_and_share_translations():
    # each program is one lui block and an ebreak, at its own pc, so every
    # run translates new bytes and enters the machine's block map twice
    state = MachineState(memory_size=8 * (BLOCK_CACHE_SIZE + 100))
    for k in range(BLOCK_CACHE_SIZE + 100):
        state.load_words(8 * k, [asm_lui(1, k), asm_ebreak()])
        state.pc = 8 * k
        assert run(state) == "halted" and state.regs[1] == k << 12
        assert len(state._blocks) <= BLOCK_CACHE_SIZE
    info = isa._translate.cache_info()
    assert info.maxsize == BLOCK_CACHE_SIZE and info.currsize <= BLOCK_CACHE_SIZE

    # a block is a function of its bytes alone, so the same words at another
    # pc, on another machine, run the same translation
    words = [asm_addi(1, 1, 1), asm_jal(2, 8), asm_ebreak(), asm_ebreak()]
    first, second = MachineState(memory_size=64), MachineState(memory_size=64)
    first.load_words(0, words)
    second.load_words(32, words)
    second.pc = 32
    assert run(first) == run(second) == "halted"
    assert (first.pc, first.regs[2]) == (12, 8) and (second.pc, second.regs[2]) == (44, 40)
    assert first._blocks[0][2] is second._blocks[32][2]
