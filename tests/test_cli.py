import json
import subprocess
import sys

import numpy as np
import pytest

from risecure.cli import main
from risecure.extractor import HelperData, enroll, get_code
from risecure.hashing import bits_to_bytes, bytes_to_bits, compose_response
from risecure.isa import (MachineState, PufDevice, asm_ebreak, asm_inner_puf_init,
                          asm_outer_puf_chal, li32, run)
from risecure.prng import derive_seed
from risecure.puf import eval_raw, puf_from_config


def _new_system(tmp_path, *extra, name="sys.json"):
    path = tmp_path / name
    rc = main(["puf", "new", "--kind", "sram", "--code", "bch", "--seed", "9",
               "-o", str(path), *extra])
    assert rc == 0
    return path


def _load_puf(path):
    cfg = json.loads(path.read_text())
    puf = puf_from_config({"version": 1, "kind": cfg["kind"], "seed": cfg["seed"],
                           "params": cfg["params"]})
    return cfg, puf


def test_puf_new_writes_complete_config(tmp_path):
    path = _new_system(tmp_path, "--p", "0.02", "--capacity", "8")
    cfg = json.loads(path.read_text())
    assert cfg["version"] == 1 and cfg["kind"] == "sram"
    assert cfg["code"] == "bch" and cfg["buffer_capacity"] == 8
    assert cfg["params"]["p"] == 0.02 and cfg["params"]["block_bits"] == 127
    assert cfg["hash"] == "sha3-256"


def test_enroll_output_matches_library_path(tmp_path):
    sys_path = _new_system(tmp_path)
    helper_path = tmp_path / "helper.json"
    rc = main(["enroll", "--system", str(sys_path), "--c0", "2", "--seed", "9",
               "-o", str(helper_path)])
    assert rc == 0
    _, puf = _load_puf(sys_path)
    want, _ = enroll(puf, 2, get_code("bch"), derive_seed("cli-enroll", 9, 2))
    assert json.loads(helper_path.read_text()) == want.to_json()


def test_sample_raw_matches_library_path(tmp_path, capsys):
    sys_path = _new_system(tmp_path)
    capsys.readouterr()  # drop the "wrote ..." line
    rc = main(["sample", "--system", str(sys_path), "--c0", "1", "--mode", "raw",
               "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    _, puf = _load_puf(sys_path)
    want = eval_raw(puf, 1, derive_seed("cli-read", 4), 127)
    assert out == bits_to_bytes(want).hex()


def test_sample_corrected_and_hashed_modes(tmp_path, capsys):
    sys_path = _new_system(tmp_path, "--p", "0.02")
    helper_path = tmp_path / "helper.json"
    main(["enroll", "--system", str(sys_path), "--c0", "0", "--seed", "9",
          "-o", str(helper_path)])
    capsys.readouterr()

    rc = main(["sample", "--system", str(sys_path), "--c0", "0", "--mode",
               "corrected", "--helper", str(helper_path), "--seed", "3"])
    assert rc == 0
    corrected_hex = capsys.readouterr().out.strip()
    _, puf = _load_puf(sys_path)
    helper = HelperData.from_json(json.loads(helper_path.read_text()))
    want, _ = enroll(puf, 0, get_code("bch"), derive_seed("cli-enroll", 9, 0))

    outer_hex = "00112233445566778899aabbccddeeff"
    rc = main(["sample", "--system", str(sys_path), "--c0", "0", "--mode", "hashed",
               "--helper", str(helper_path), "--outer-challenge", outer_hex,
               "--seed", "3"])
    assert rc == 0
    hashed_hex = capsys.readouterr().out.strip()

    r2 = np.frombuffer(bytes.fromhex(corrected_hex), dtype=np.uint8)
    r2 = np.unpackbits(r2)[:127]
    r3 = compose_response(r2, bytes_to_bits(bytes.fromhex(outer_hex)), 127)
    assert hashed_hex == bits_to_bytes(r3).hex()
    assert len(hashed_hex) == 64
    assert helper.code.code_id == "bch-127-36-15"
    del want  # reconstruction correctness is covered elsewhere


def test_sample_is_deterministic_per_seed(tmp_path, capsys):
    sys_path = _new_system(tmp_path)
    capsys.readouterr()
    argv = ["sample", "--system", str(sys_path), "--c0", "5", "--mode", "raw",
            "--seed", "11"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first
    main(argv[:-1] + ["12"])
    assert capsys.readouterr().out != first


def test_env_var_provides_default_seed(tmp_path, capsys, monkeypatch):
    sys_path = _new_system(tmp_path)
    capsys.readouterr()
    monkeypatch.setenv("RISECURE_SEED", "11")
    main(["sample", "--system", str(sys_path), "--c0", "5", "--mode", "raw"])
    from_env = capsys.readouterr().out
    monkeypatch.delenv("RISECURE_SEED")
    main(["sample", "--system", str(sys_path), "--c0", "5", "--mode", "raw",
          "--seed", "11"])
    assert capsys.readouterr().out == from_env


def test_domain_errors_exit_1(tmp_path, capsys):
    sys_path = _new_system(tmp_path)
    # hashed mode without helper data
    rc = main(["sample", "--system", str(sys_path), "--c0", "0", "--mode", "hashed"])
    assert rc == 1 and "error:" in capsys.readouterr().err
    # missing system file
    rc = main(["sample", "--system", str(tmp_path / "nope.json"), "--c0", "0",
               "--mode", "raw"])
    assert rc == 1
    # malformed outer challenge
    helper_path = tmp_path / "h.json"
    main(["enroll", "--system", str(sys_path), "--c0", "0", "--seed", "9",
          "-o", str(helper_path)])
    capsys.readouterr()
    rc = main(["sample", "--system", str(sys_path), "--c0", "0", "--mode", "hashed",
               "--helper", str(helper_path), "--outer-challenge", "abcd"])
    assert rc == 1 and "32 hex" in capsys.readouterr().err


@pytest.mark.parametrize("c0", ["-1", str(1 << 64)])
def test_out_of_range_inner_challenge_exits_1(tmp_path, capsys, c0):
    sys_path = tmp_path / "arb.json"
    assert main(["puf", "new", "--kind", "arbiter", "--seed", "9", "-o", str(sys_path)]) == 0
    capsys.readouterr()
    rc = main(["enroll", "--system", str(sys_path), "--c0", c0, "--seed", "9",
               "-o", str(tmp_path / "h.json")])
    assert rc == 1 and "error: inner challenge c0" in capsys.readouterr().err
    rc = main(["sample", "--system", str(sys_path), "--c0", c0, "--mode", "raw"])
    assert rc == 1 and "error: inner challenge c0" in capsys.readouterr().err


_MALFORMED = {  # case: (file to corrupt, corruption)
    "params-unknown-key": ("system", lambda d: {**d, "params": {**d["params"], "bogus": 1}}),
    "params-list": ("system", lambda d: {**d, "params": [1, 2]}),
    "seed-list": ("system", lambda d: {**d, "seed": [9]}),
    "seed-infinity": ("system", lambda d: {**d, "seed": float("inf")}),
    "seed-float": ("system", lambda d: {**d, "seed": 1.5}),
    "params-num-blocks-float": ("system", lambda d: {**d, "params": {**d["params"],
                                                                     "num_blocks": 2.5}}),
    "capacity-string": ("system", lambda d: {**d, "buffer_capacity": "8"}),
    "capacity-zero": ("system", lambda d: {**d, "buffer_capacity": 0}),
    "hash-sha2": ("system", lambda d: {**d, "hash": "sha2-256"}),
    "system-list": ("system", lambda d: [d]),
    "arbiter-stages-5000": ("system", lambda d: {**d, "kind": "arbiter",
                                                  "params": {"stages": 5000, "sigma": 0.0}}),
    "xor-chains-100": ("system", lambda d: {**d, "kind": "xor",
                                            "params": {"stages": 64, "chains": 100, "sigma": 0.0}}),
    "aux-number": ("helper", lambda d: {**d, "aux": 5}),
    "n-infinity": ("helper", lambda d: {**d, "n": float("inf")}),
    "helper-list": ("helper", lambda d: [d]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_json_files_exit_1(tmp_path, capsys, case):
    which, corrupt = _MALFORMED[case]
    sys_path = _new_system(tmp_path)
    helper_path = tmp_path / "h.json"
    assert main(["enroll", "--system", str(sys_path), "--c0", "0", "-o", str(helper_path)]) == 0
    path = sys_path if which == "system" else helper_path
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    capsys.readouterr()
    rc = main(["sample", "--system", str(sys_path), "--c0", "0", "--mode", "corrected",
               "--helper", str(helper_path)])
    assert rc == 1 and "error:" in capsys.readouterr().err
    if which == "system":
        rc = main(["enroll", "--system", str(sys_path), "--c0", "0",
                   "-o", str(tmp_path / "h2.json")])
        assert rc == 1 and "error:" in capsys.readouterr().err
        prog = tmp_path / "prog.hex"
        prog.write_text("0: 00100073\n")  # ebreak
        rc = main(["exec", "--system", str(sys_path), "--program", str(prog)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("mode", ["corrected", "hashed"])
def test_helper_enrolled_on_another_code_exits_1(tmp_path, capsys, mode):
    paths = {}
    for code in ("bch", "rs"):
        paths[code] = tmp_path / f"{code}.json"
        assert main(["puf", "new", "--kind", "arbiter", "--code", code, "--seed", "9",
                     "-o", str(paths[code])]) == 0
    rs_helper = tmp_path / "rs-helper.json"
    assert main(["enroll", "--system", str(paths["rs"]), "--c0", "3", "-o", str(rs_helper)]) == 0
    capsys.readouterr()
    rc = main(["sample", "--system", str(paths["bch"]), "--c0", "3", "--mode", mode,
               "--helper", str(rs_helper)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "error: helper data is for code rs-255-223-16" in captured.err


def test_zero_buffer_capacity_rejected_at_puf_new(tmp_path, capsys):
    path = tmp_path / "sys.json"
    rc = main(["puf", "new", "--kind", "sram", "--capacity", "0", "-o", str(path)])
    assert rc == 1 and "error: buffer capacity" in capsys.readouterr().err
    assert not path.exists()


def test_oversized_arbiter_rejected_at_puf_new(tmp_path, capsys):
    path = tmp_path / "sys.json"
    rc = main(["puf", "new", "--kind", "arbiter", "--stages", "5000", "-o", str(path)])
    assert rc == 1 and "error: stage count" in capsys.readouterr().err
    assert not path.exists()


def test_sram_system_its_code_cannot_correct_rejected_at_puf_new(tmp_path, capsys):
    path = tmp_path / "rs.json"
    rc = main(["puf", "new", "--kind", "sram", "--code", "rs", "-o", str(path)])
    assert rc == 1 and "more than rs corrects (t=16)" in capsys.readouterr().err
    assert not path.exists()


def test_low_noise_rs_sram_system_reconstructs(tmp_path, capsys):
    sys_path = tmp_path / "rs.json"
    helper_path = tmp_path / "h.json"
    assert main(["puf", "new", "--kind", "sram", "--code", "rs", "--p", "0.002", "--seed", "9",
                 "-o", str(sys_path)]) == 0
    assert main(["enroll", "--system", str(sys_path), "--c0", "1", "--seed", "9",
                 "-o", str(helper_path)]) == 0
    capsys.readouterr()
    rc = main(["sample", "--system", str(sys_path), "--c0", "1", "--mode", "corrected",
               "--helper", str(helper_path), "--seed", "9"])
    assert rc == 0
    _, puf = _load_puf(sys_path)
    _, r2 = enroll(puf, 1, get_code("rs"), derive_seed("cli-enroll", 9, 1))
    assert capsys.readouterr().out.strip() == bits_to_bytes(r2).hex()


def test_default_bch_sram_system_file_is_unchanged(tmp_path):
    path = _new_system(tmp_path)
    assert path.read_text() == json.dumps({
        "version": 1, "kind": "sram", "seed": 9,
        "params": {"num_blocks": 16, "block_bits": 127, "p": 0.05},
        "code": "bch", "buffer_capacity": 16, "hash": "sha3-256"}, indent=2) + "\n"


def test_exec_program_larger_than_memory_exits_1(tmp_path, capsys):
    prog = tmp_path / "prog.hex"
    prog.write_text("0: 00100073\n")
    rc = main(["exec", "--program", str(prog), "--mem-size", "2"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and "error: program does not fit" in captured.err


@pytest.mark.parametrize("size", [str((1 << 32) + 1), "-1"])
def test_exec_memory_beyond_the_address_space_exits_1(tmp_path, capsys, size):
    prog = tmp_path / "prog.hex"
    prog.write_text("0: 00100073\n")
    rc = main(["exec", "--program", str(prog), "--mem-size", size])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: memory_size must be in [0, 2^32], got {size}\n"


def _hex_words(base, words):
    return "".join(f"{base + 4 * i:x}: {w:08x}\n" for i, w in enumerate(words))


def test_exec_with_an_index_outside_32_bits_exits_1(tmp_path, capsys):
    system = _new_system(tmp_path)
    prog = tmp_path / "halt.hex"
    prog.write_text("0: 00100073\n")  # ebreak
    capsys.readouterr()
    rc = main(["exec", "--program", str(prog), "--system", str(system), "--idx", "-1"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and "error: idx must be in [0, 4294967295]" in captured.err


def test_exec_with_a_system_runs_both_custom_instructions(tmp_path, capsys):
    system = _new_system(tmp_path)
    capsys.readouterr()
    init_block = (3).to_bytes(4, "little") + (7).to_bytes(8, "little")
    chal_block = (3).to_bytes(4, "little") + bytes(range(16))
    text = (_hex_words(0, [*li32(5, 0x200), asm_inner_puf_init(10, 5),
                           *li32(6, 0x220), *li32(7, 0x300),
                           asm_outer_puf_chal(11, 6, 7), asm_ebreak()])
            + _hex_words(0x200, np.frombuffer(init_block, "<u4"))
            + _hex_words(0x220, np.frombuffer(chal_block, "<u4")))
    prog = tmp_path / "puf.hex"
    prog.write_text(text)
    rc = main(["exec", "--program", str(prog), "--system", str(system), "--idx", "3",
               "--seed", "4", "--mem-size", "4096"])
    dump = json.loads(capsys.readouterr().out)
    assert rc == 0 and dump["status"] == "halted"
    assert dump["regs"][10] == 0 and dump["regs"][11] == 0

    _, puf = _load_puf(system)
    dev = PufDevice(get_code("bch"), seed=4, capacity=16)
    dev.register(3, puf)
    replay = MachineState(memory_size=4096, device=dev)
    replay.load_hex_program(text)
    assert run(replay) == "halted"
    assert dump == replay.dump()


def test_sample_reconstruction_failure_exits_1(tmp_path, capsys):
    system = tmp_path / "noisy.json"
    cfg = json.loads(_new_system(tmp_path).read_text())
    cfg["params"]["p"] = 0.45  # puf new refuses a p this high
    system.write_text(json.dumps(cfg))
    helper = tmp_path / "helper.json"
    assert main(["enroll", "--system", str(system), "--c0", "1", "-o", str(helper)]) == 0
    capsys.readouterr()
    rc = main(["sample", "--system", str(system), "--c0", "1", "--helper", str(helper),
               "--mode", "corrected"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "reconstruction failed" in captured.err


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--system", "x", "--c0", "0", "--mode", "psychic"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["puf", "new", "--kind", "sram"])  # no -o
    assert exc.value.code == 2


def test_attack_command_writes_report_and_csvs(tmp_path, capsys):
    report = tmp_path / "attack.json"
    crps = tmp_path / "crps"
    rc = main(["attack", "--train", "1500", "--test", "500", "--epochs", "60",
               "--seed", "1", "-o", str(report), "--crps-out", str(crps)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert set(doc) == {"raw_arbiter", "hashed_bit", "accuracy_gap"}
    assert (crps / "raw_arbiter.csv").exists()
    assert (crps / "hashed_bit.csv").exists()
    out = capsys.readouterr().out
    assert "accuracy gap" in out


def test_bench_command_writes_report(tmp_path, capsys):
    report = tmp_path / "bench.json"
    rc = main(["bench", "--code", "bch", "--batch-sizes", "1,4", "--repeats", "1",
               "--throughput-samples", "20", "--seed", "0", "-o", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert {"batch", "throughput"} <= set(doc)
    assert [r["batch"] for r in doc["batch"]["rows"]] == [1, 4]
    assert "speedup" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bench", "--code", "bch", "--batch-sizes", "1", "--repeats", "0"],
    ["bench", "--code", "bch", "--batch-sizes", "1,0", "--repeats", "1"],
    ["bench", "--code", "bch", "--batch-sizes", "1", "--throughput-samples", "0"],
    ["attack", "--train", "200", "--test", "100", "--epochs", "0"],
    ["attack", "--train", "200", "--test", "0", "--epochs", "1"],
    ["attack", "--train", "300", "--test", "-50", "--epochs", "1"],
], ids=["bench-repeats", "bench-batch-size", "bench-throughput-samples", "attack-epochs",
        "attack-test", "attack-negative-test"])
def test_zero_counts_exit_1_without_traceback(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_non_integer_seed_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RISECURE_SEED", "abc")
    with pytest.raises(SystemExit) as exc:  # raised while parsing, before any file is read
        main(["enroll", "--system", "missing.json", "--c0", "1", "-o", "helper.json"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "risecure: error: RISECURE_SEED must be an integer, got 'abc'"]


@pytest.mark.parametrize("argv", [
    ["puf", "new", "--kind", "xor", "--sigma", "inf"],
    ["puf", "new", "--kind", "arbiter", "--sigma", "nan"],
    ["attack", "--train", "200", "--test", "100", "--epochs", "1", "--lr", "inf"],
    ["attack", "--train", "200", "--test", "100", "--epochs", "1", "--lr", "nan"],
    ["attack", "--train", "200", "--test", "100", "--epochs", "1", "--lr", "0"],
], ids=["xor-sigma-inf", "arbiter-sigma-nan", "attack-lr-inf",
        "attack-lr-nan", "attack-lr-zero"])
def test_non_finite_or_non_positive_floats_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_system_file_with_infinite_sigma_exits_1(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text('{"version": 1, "kind": "xor", "seed": 3, "code": "bch", '
                    '"params": {"stages": 64, "chains": 4, "sigma": Infinity}}')
    rc = main(["sample", "--system", str(path), "--c0", "1", "--mode", "raw"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and "Traceback" not in captured.err
    assert "error: noise sigma must be finite" in captured.err


def test_selftest_command(capsys, request):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: ok" in out and "FAIL" not in out

    request.getfixturevalue("corrupted_decoder")
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "selftest: FAILED" in out


def test_exec_command_runs_hex_programs(tmp_path, capsys):
    prog = tmp_path / "prog.hex"
    prog.write_text("0: 00500093  # addi x1, x0, 5\n4: 00100073\n")
    rc = main(["exec", "--program", str(prog), "--mem-size", "4096"])
    assert rc == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["status"] == "halted" and dump["regs"][1] == 5

    spin = tmp_path / "spin.hex"
    spin.write_text("0: 0000006f\n")  # jal x0, 0
    rc = main(["exec", "--program", str(spin), "--mem-size", "256",
               "--max-steps", "50"])
    assert rc == 1


@pytest.mark.parametrize("line", ["0: 1FFFFFFFF", "0: -1", "00100073"],
                         ids=["word-too-wide", "word-negative", "no-colon"])
def test_exec_malformed_hex_line_exits_1(tmp_path, capsys, line):
    prog = tmp_path / "prog.hex"
    prog.write_text(f"0: 00100073\n{line}\n")
    rc = main(["exec", "--program", str(prog), "--mem-size", "256"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: program line 2:") and "'ADDR: WORD'" in captured.err


@pytest.mark.parametrize("max_steps", ["0", "-1"])
def test_exec_max_steps_below_1_exits_1(tmp_path, capsys, max_steps):
    prog = tmp_path / "prog.hex"
    prog.write_text("0: 00100073\n")
    rc = main(["exec", "--program", str(prog), "--mem-size", "256", "--max-steps", max_steps])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: max_steps must be >= 1, got {max_steps}\n"


def test_exec_negative_entry_traps_at_fetch(tmp_path, capsys):
    prog = tmp_path / "prog.hex"
    prog.write_text("0: 00100073\n")
    rc = main(["exec", "--program", str(prog), "--mem-size", "256", "--entry", "-4"])
    dump = json.loads(capsys.readouterr().out)
    assert rc == 1 and dump["pc"] == -4
    assert dump["status"] == "trap" and dump["trap_cause"] == "read [-0x4, +4) out of bounds"


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "risecure.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "selftest" in proc.stdout
