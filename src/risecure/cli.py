"""Command-line front end.

Subcommands: puf new, enroll, sample, bench, attack, selftest, exec. Every
command but selftest, whose inputs are fixed, takes --seed (or the
RISECURE_SEED environment variable) and is deterministic given it, except
wall-clock fields in benchmark reports. Exit codes:
0 success, 1 domain error (failed reconstruction, failing selftest, bad
file contents), 2 usage error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .attack import attack_datasets, run_attack, write_csv
from .bench import PASSES, run_batch_bench, run_throughput_bench
from .buffer import select_output
from .extractor import HelperData, enroll, get_code
from .hashing import OUTER_CHALLENGE_BITS, bits_to_bytes, bytes_to_bits
from .isa import MachineState, PufDevice, run
from .prng import checked_int, derive_seed, stream
from .puf import new_puf, puf_from_config, puf_to_config

HASH = "sha3-256"  # the output hash every system file names; there is no other


def _default_seed(parser):
    """$RISECURE_SEED, or 0 when it is unset; a value that is not an integer is a usage error."""
    text = os.environ.get("RISECURE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        parser.error(f"RISECURE_SEED must be an integer, got {text!r}")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_system(path):
    """Read a system file into (puf, code, buffer capacity); a bad field raises ValueError."""
    cfg = _read_json(path)
    puf = puf_from_config(cfg)
    capacity = checked_int(cfg.get("buffer_capacity", 16), "buffer_capacity", 1)
    if cfg.get("hash", HASH) != HASH:
        raise ValueError(f"hash must be {HASH!r}, got {cfg['hash']!r}")
    return puf, get_code(cfg.get("code")), capacity


def cmd_puf_new(args):
    if args.capacity < 1:
        raise ValueError(f"buffer capacity must be >= 1, got {args.capacity}")
    if args.kind == "sram":
        code = get_code(args.code)
        mean_errors = code.n * (1 - (1 - args.p) ** code.s)  # symbols with a flipped bit
        if mean_errors > code.t:
            raise ValueError(f"--p {args.p} gives {mean_errors:.1f} symbol errors per read "
                             f"on average, more than {args.code} corrects (t={code.t})")
        params = {"num_blocks": args.blocks, "block_bits": code.n_bits, "p": args.p}
    elif args.kind == "arbiter":
        params = {"stages": args.stages, "sigma": args.sigma}
    else:
        params = {"stages": args.stages, "chains": args.chains, "sigma": args.sigma}
    puf = new_puf(args.kind, args.seed, params)
    cfg = puf_to_config(puf)
    cfg.update({"code": args.code, "buffer_capacity": args.capacity, "hash": HASH})
    _write_json(args.output, cfg)
    print(f"wrote {args.output}")
    return 0


def cmd_enroll(args):
    puf, code, _ = _load_system(args.system)
    helper, _ = enroll(puf, args.c0, code, derive_seed("cli-enroll", args.seed, args.c0))
    _write_json(args.output, helper.to_json())
    print(f"wrote {args.output}")
    return 0


def cmd_sample(args):
    puf, code, _ = _load_system(args.system)
    helper = None
    if args.helper is not None:
        helper = HelperData.from_json(_read_json(args.helper))
    mode = {"raw": 0, "corrected": 1, "hashed": 2}[args.mode]
    outer = None
    if mode == 2:
        if args.outer_challenge is not None:
            raw = bytes.fromhex(args.outer_challenge)
            if 8 * len(raw) != OUTER_CHALLENGE_BITS:
                raise ValueError(f"outer challenge must be {OUTER_CHALLENGE_BITS // 4} hex digits")
            outer = bytes_to_bits(raw)
        else:
            outer = stream("cli-outer", args.seed).integers(0, 2, OUTER_CHALLENGE_BITS, dtype=np.uint8)
    noise_seed = args.noise_seed
    if noise_seed is None:
        noise_seed = derive_seed("cli-read", args.seed)
    out = select_output(mode, puf, args.c0, code, helper=helper,
                        outer_challenge=outer, noise_seed=noise_seed)
    if out is None:
        print("reconstruction failed (decode error)", file=sys.stderr)
        return 1
    print(bits_to_bytes(out).hex())
    return 0


def cmd_bench(args):
    batch_sizes = tuple(int(b) for b in args.batch_sizes.split(","))
    report = {
        "batch": run_batch_bench(args.code, batch_sizes, repeats=args.repeats,
                                 seed=args.seed, distinct_keys=args.distinct_keys),
        "throughput": run_throughput_bench(args.code, samples=args.throughput_samples,
                                           seed=args.seed),
    }
    for row in report["batch"]["rows"]:
        print("batch %3d: unbuffered %8.3f ms (%2d decodes)   buffered %8.3f ms "
              "(%2d decodes, %2d hits)   speedup %5.2fx" % (
                  row["batch"], 1e3 * row["unbuffered"]["seconds"],
                  row["unbuffered"]["decode_calls"], 1e3 * row["buffered"]["seconds"],
                  row["buffered"]["decode_calls"], row["buffered"]["hits"],
                  row["speedup"]))
    thr = report["throughput"]
    print("throughput: corrected %.2f CRPs/ms, hashed %.2f CRPs/ms (%+.2f%%); "
          "hardware reference %+.2f%%" % (
              thr["crps_per_ms"]["corrected"], thr["crps_per_ms"]["hashed"],
              thr["hash_overhead_pct"], thr["fpga_reference"]["hash_overhead_pct"]))
    if args.output:
        _write_json(args.output, report)
        print(f"wrote {args.output}")
    return 0


def cmd_attack(args):
    report = run_attack(seed=args.seed, train_count=args.train, test_count=args.test,
                        epochs=args.epochs, learning_rate=args.lr, stages=args.stages)
    for mode in ("raw_arbiter", "hashed_bit"):
        row = report[mode]
        print("%-12s train %.4f   test %.4f" % (mode, row["train_accuracy"],
                                                row["test_accuracy"]))
    print("accuracy gap: %.4f" % report["accuracy_gap"])
    if args.output:
        _write_json(args.output, report)
        print(f"wrote {args.output}")
    if args.crps_out:
        os.makedirs(args.crps_out, exist_ok=True)
        datasets = attack_datasets(args.seed, args.train + args.test, args.stages)
        for mode, ds in datasets.items():
            write_csv(ds, os.path.join(args.crps_out, f"{mode}.csv"))
        print(f"wrote CRP datasets under {args.crps_out}")
    return 0


def cmd_selftest(args):
    from .selftest import run_selftest
    ok, results = run_selftest()
    for name, passed, detail in results:
        line = f"{'PASS' if passed else 'FAIL'}  {name}"
        print(line if passed else f"{line}  ({detail})")
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def cmd_exec(args):
    device = None
    if args.system:
        puf, code, capacity = _load_system(args.system)
        device = PufDevice(code, seed=args.seed, capacity=capacity)
        device.register(args.idx, puf)
    state = MachineState(memory_size=args.mem_size, device=device)
    with open(args.program) as fh:
        state.load_hex_program(fh.read())
    state.pc = args.entry
    status = run(state, max_steps=args.max_steps)
    print(json.dumps(state.dump(), indent=2))
    return 0 if status == "halted" else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="risecure",
                                     description="PUF security-extension simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int,
                        help="global seed (default: $RISECURE_SEED or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_puf = sub.add_parser("puf", help="PUF system management")
    puf_sub = p_puf.add_subparsers(dest="puf_command", required=True)
    p_new = puf_sub.add_parser("new", parents=[common], help="create a system config")
    p_new.add_argument("--kind", choices=("sram", "arbiter", "xor"), required=True)
    p_new.add_argument("--code", choices=("bch", "rs"), default="bch")
    p_new.add_argument("--p", type=float, default=0.05, help="SRAM per-bit flip probability")
    p_new.add_argument("--blocks", type=int, default=16, help="SRAM block count")
    p_new.add_argument("--stages", type=int, default=64)
    p_new.add_argument("--chains", type=int, default=4)
    p_new.add_argument("--sigma", type=float, default=0.0)
    p_new.add_argument("--capacity", type=int, default=16, help="lookaside buffer capacity")
    p_new.add_argument("-o", "--output", required=True)
    p_new.set_defaults(func=cmd_puf_new)

    p_enroll = sub.add_parser("enroll", parents=[common], help="enroll a PUF challenge")
    p_enroll.add_argument("--system", required=True)
    p_enroll.add_argument("--c0", type=int, required=True, help="inner challenge")
    p_enroll.add_argument("-o", "--output", required=True)
    p_enroll.set_defaults(func=cmd_enroll)

    p_sample = sub.add_parser("sample", parents=[common], help="sample a response")
    p_sample.add_argument("--system", required=True)
    p_sample.add_argument("--c0", type=int, required=True)
    p_sample.add_argument("--helper", help="helper JSON (corrected/hashed modes)")
    p_sample.add_argument("--mode", choices=("raw", "corrected", "hashed"), required=True)
    p_sample.add_argument("--outer-challenge", help=f"{OUTER_CHALLENGE_BITS}-bit outer challenge "
                          f"as {OUTER_CHALLENGE_BITS // 4} hex digits")
    p_sample.add_argument("--noise-seed", type=int)
    p_sample.set_defaults(func=cmd_sample)

    p_bench = sub.add_parser("bench", parents=[common], help="batch and throughput benchmarks")
    p_bench.add_argument("--code", choices=("bch", "rs"), default="rs")
    p_bench.add_argument("--batch-sizes", default="1,2,4,8,16")
    p_bench.add_argument("--repeats", type=int, default=PASSES)
    p_bench.add_argument("--distinct-keys", action="store_true")
    p_bench.add_argument("--throughput-samples", type=int, default=200)
    p_bench.add_argument("-o", "--output")
    p_bench.set_defaults(func=cmd_bench)

    p_attack = sub.add_parser("attack", parents=[common], help="modeling-attack report")
    p_attack.add_argument("--train", type=int, default=10000)
    p_attack.add_argument("--test", type=int, default=2000)
    p_attack.add_argument("--epochs", type=int, default=400)
    p_attack.add_argument("--lr", type=float, default=1.0)
    p_attack.add_argument("--stages", type=int, default=64)
    p_attack.add_argument("-o", "--output")
    p_attack.add_argument("--crps-out", help="directory for CRP CSV dumps")
    p_attack.set_defaults(func=cmd_attack)

    p_self = sub.add_parser("selftest", help="known-answer tests: recorded digests of the PRNG "
                            "draws, the mixers, the hash, each PUF/code route, the buffer and "
                            "an ISA program; a FAIL means the package's or numpy's bits changed")
    p_self.set_defaults(func=cmd_selftest)

    p_exec = sub.add_parser("exec", parents=[common], help="run a program on the simulator")
    p_exec.add_argument("--program", required=True, help="hex program, 'ADDR: WORD' lines")
    p_exec.add_argument("--system", help="system JSON providing the PUF device")
    p_exec.add_argument("--idx", type=int, default=0, help="device index for the PUF")
    p_exec.add_argument("--entry", type=int, default=0)
    p_exec.add_argument("--mem-size", type=int, default=1 << 20)
    p_exec.add_argument("--max-steps", type=int, default=1_000_000)
    p_exec.set_defaults(func=cmd_exec)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if "seed" in args and args.seed is None:  # selftest takes no seed
        args.seed = _default_seed(parser)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
