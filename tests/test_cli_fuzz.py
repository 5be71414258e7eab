"""Property test of the CLI boundary: no argv makes `risecure` raise a traceback.

Every subcommand runs on generated argv over valid, corrupted and missing
system, helper and program files. A run must return 0 or 1, or leave
through argparse with `SystemExit` 0 (--help) or 2 (usage error); any other
exception fails the test. Sizes are bounded as in test_json_fuzz.py, and
the costly commands get small counts, stages, epochs and step budgets.
`--mem-size` is drawn at 2^16 or less, or above 2^32, where it is rejected
before anything is allocated.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risecure.cli import main
from risecure.extractor import enroll, get_code
from risecure.isa import asm_ebreak, asm_inner_puf_init, asm_outer_puf_chal, li32
from risecure.puf import new_puf, puf_to_config
from test_cli import _hex_words

_SYSTEMS = {
    "@sram": ("sram", {"num_blocks": 4, "block_bits": 127, "p": 0.02}, "bch"),
    "@arbiter": ("arbiter", {"stages": 64, "sigma": 0.05}, "rs"),
    "@xor": ("xor", {"stages": 32, "chains": 2, "sigma": 0.05}, "bch"),
}
_BAD_FILES = {
    "@not-json": "{",
    "@list": "[]",
    "@kind-only": '{"kind": "sram"}',
    "@zero-capacity": '{"version": 1, "kind": "sram", "seed": 1, "buffer_capacity": 0, '
                      '"params": {"num_blocks": 1, "block_bits": 127, "p": 0.0}}',
    "@bad-helper": '{"aux": [1, 2], "code": "bch"}',
}


_PROGRAMS = {
    "@halt": _hex_words(0, [0x00500093, 0x00100073]),  # addi x1, x0, 5; ebreak
    "@spin": _hex_words(0, [0x0000006F]),  # jal x0, 0
    "@puf": _hex_words(0, [*li32(5, 0x200), asm_inner_puf_init(10, 5), *li32(6, 0x220),
                           *li32(7, 0x300), asm_outer_puf_chal(11, 6, 7), asm_ebreak()])
            + _hex_words(0x200, [0, 1, 0]) + _hex_words(0x220, [0, 1, 2, 3, 4]),
    "@malformed": "0: 00100073\n4: zz\n",
    "@high": "fff00: 00100073\n",
    "@empty": "",
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Placeholder -> path for every file a generated argv can name."""
    tmp = tmp_path_factory.mktemp("cli-fuzz")
    paths = {"@missing": str(tmp / "missing.json"), "@dir": str(tmp),
             "@out": str(tmp / "out.json"), "@no-dir-out": str(tmp / "no" / "out.json"),
             "@crps": str(tmp / "crps")}
    texts = dict(_BAD_FILES)
    texts.update(_PROGRAMS)
    for name, (kind, params, code) in _SYSTEMS.items():
        puf = new_puf(kind, 9, params)
        texts[name] = json.dumps({**puf_to_config(puf), "code": code,
                                  "buffer_capacity": 16, "hash": "sha3-256"})
        helper, _ = enroll(puf, 1, get_code(code), rng_seed=0)
        texts[name + "-helper"] = json.dumps(helper.to_json())
    for name, text in texts.items():
        path = tmp / name[1:]
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _mostly(common, rare):
    """`common` nine times in ten, else `rare`, so most runs get past argparse."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda c: common if c else rare)


def _flag(flag, values):
    return st.tuples(st.just(flag), values).map(list)


def _opt(flag, values):
    """[] or [flag, value]."""
    return st.just([]) | _flag(flag, values)


def _req(flag, values):
    """[flag, value], but now and then left out."""
    return _mostly(_flag(flag, values), st.just([]))


def _ints(lo, hi, extremes=(-1, 0)):
    """Integers in [lo, hi], now and then one of `extremes` or text argparse refuses."""
    return _mostly(st.integers(lo, hi).map(str),
                   st.sampled_from([*map(str, extremes), "x", "", "1.5", "0x10"]))


def _floats(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr), st.sampled_from(["nan", "inf", "-inf", "-1", "x"]))


def _one(*names):
    return st.sampled_from(names)


_SEED = _opt("--seed", _ints(0, 50, (-1, -(1 << 70), 1 << 64, 1 << 70)))
_SYSTEM = _mostly(_one(*_SYSTEMS), _one("@missing", "@dir", *_BAD_FILES))
_HELPER = _mostly(_one(*(name + "-helper" for name in _SYSTEMS)), _one("@missing", *_BAD_FILES))
_OUT = _mostly(st.just("@out"), _one("@no-dir-out", "@dir"))
_C0 = _ints(0, 3, (-1, -(1 << 64), (1 << 64) - 1, 1 << 64))


def _argv(command, *groups):
    """argv of `command` followed by each group's tokens, now and then with --help."""
    return st.tuples(*groups, _mostly(st.just([]), st.just(["--help"]))).map(
        lambda parts: [*command, *(tok for part in parts for tok in part)])


# Flags whose defaults run long (200 throughput samples, 10^4 attack records,
# 400 epochs, 10^6 steps) are always given a small value.
_COMMANDS = {
    "puf new": (60, _argv(
        ["puf", "new"], _SEED, _req("--kind", _mostly(_one("sram", "arbiter", "xor"), _one("x"))),
        _opt("--code", _mostly(_one("bch", "rs"), _one("x"))), _opt("--p", _floats(0, 0.5)),
        _opt("--blocks", _ints(1, 64)), _opt("--stages", _ints(1, 1024, (0, 1025))),
        _opt("--chains", _ints(1, 64, (0, 65))), _opt("--sigma", _floats(0, 4096)),
        _opt("--capacity", _ints(1, 64)), _req("-o", _OUT))),
    "enroll": (50, _argv(
        ["enroll"], _SEED, _req("--system", _SYSTEM), _req("--c0", _C0), _req("-o", _OUT))),
    "sample": (80, _argv(
        ["sample"], _SEED, _req("--system", _SYSTEM), _req("--c0", _C0),
        _opt("--helper", _HELPER),
        _req("--mode", _mostly(_one("raw", "corrected", "hashed"), _one("x"))),
        _opt("--outer-challenge", _mostly(st.just("00" * 16),
                                          st.text("0123456789abcdefg ", max_size=34))),
        _opt("--noise-seed", _ints(0, 50, (-1, -(1 << 70), 1 << 70))))),
    "bench": (15, _argv(
        ["bench"], _SEED, _opt("--code", _mostly(_one("bch", "rs"), _one("x"))),
        _flag("--batch-sizes", _mostly(_one("1", "1,2", "2,1"), _one("0", "2,,1", "a", "", "-1"))),
        _opt("--repeats", _ints(1, 2)), _one([], ["--distinct-keys"]),
        _flag("--throughput-samples", _ints(1, 3)), _opt("-o", _OUT))),
    "attack": (20, _argv(
        ["attack"], _SEED, _flag("--train", _ints(200, 300, (-1, 0, 100))),
        _flag("--test", _ints(1, 100)),
        _flag("--epochs", _ints(1, 3)), _opt("--lr", _floats(0.01, 4)),
        _opt("--stages", _ints(1, 64, (0, 1025))), _opt("-o", _OUT),
        _opt("--crps-out", _mostly(st.just("@crps"), _one("@out", "@no-dir-out"))))),
    "selftest": (3, _argv(["selftest"], _SEED)),
    "exec": (60, _argv(
        ["exec"], _SEED,
        _req("--program", _mostly(_one(*_PROGRAMS), _one("@missing", "@dir", "@not-json"))),
        _opt("--system", _SYSTEM), _opt("--idx", _ints(0, 3, (-1, 1 << 40))),
        _opt("--entry", _ints(0, 8, (-4, 1 << 40))),
        _opt("--mem-size", _ints(1024, 1 << 16, (-1, 0, 2, (1 << 32) + 1, 1 << 62))),
        _flag("--max-steps", _ints(1, 1000)))),
}


def _exits_cleanly(cli_files, argv):
    argv = [cli_files.get(tok, tok) for tok in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            return
    assert rc in (0, 1), argv


def _property(command):
    examples, argv = _COMMANDS[command]

    @settings(derandomize=True, database=None, max_examples=examples, deadline=None)
    @given(argv=argv)
    def test(cli_files, argv):
        _exits_cleanly(cli_files, argv)

    test.__name__ = f"test_{command.replace(' ', '_')}_never_raises"
    return test


test_puf_new_never_raises = _property("puf new")
test_enroll_never_raises = _property("enroll")
test_sample_never_raises = _property("sample")
test_bench_never_raises = _property("bench")
test_attack_never_raises = _property("attack")
test_selftest_never_raises = _property("selftest")
test_exec_never_raises = _property("exec")
