"""Record one point of the benchmark trajectory as BENCH_<N>.json in the repo root.

    python3 tools/bench_record.py N

Runs `perfbench/run.py --workload all` from this checkout twice, at seed 1
and the run length BENCHMARK.json fixes: `--trace 0` for the end-to-end
metrics and `--trace 1` for the per-layer metrics. It then gathers the
result files those runs wrote under .perfbench/ into one schema-versioned
file with the host (Python, numpy, cores) and the git commit. A commit's
file is comparable with another's only when both were made on the same host.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1
SEED = 1


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="trajectory index: writes BENCH_<n>.json")
    args = ap.parse_args(argv)
    if args.n < 0:
        ap.error("n must be >= 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    files = {(name, trace): ROOT / ".perfbench" / f"{name}-seed{SEED}-trace{trace}.json"
             for name in names for trace in (0, 1)}
    for path in files.values():  # a stale file must not stand in for a failed run
        path.unlink(missing_ok=True)

    for trace in (0, 1):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
               "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
        if subprocess.run(cmd, cwd=ROOT, check=False).returncode != 0:
            raise SystemExit(f"error: {' '.join(cmd[1:])} failed; no BENCH file written")

    workloads = {}
    for name in names:
        e2e, layers = (json.loads(files[name, trace].read_text()) for trace in (0, 1))
        workloads[name] = {
            "correct": e2e["correct"] and layers["correct"],
            "attempted": e2e["attempted"],
            "failed": e2e["failed"],
            "output_digest": e2e["output_digest"],
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
            "missing_spans": layers["missing_spans"],
        }
    # Python, numpy, BLAS, cores (nproc) and machine, as the benchmark read them
    host = json.loads(files[names[0], 0].read_text())["host"]
    del host["git_commit"]  # read from .git by the benchmark; recorded below through git
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "git_commit": git("rev-parse", "HEAD"),
        # tracked files that differ from the commit: nonempty when measured before committing
        "git_changes": git("status", "--porcelain", "--untracked-files=no").splitlines(),
        "host": host,
        "seed": SEED,
        "seconds": seconds,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
