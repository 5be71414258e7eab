"""Record one point of the benchmark trajectory as BENCH_<N>.json in the repo root.

    python3 tools/bench_record.py N

Runs `perfbench/run.py --workload all` from this checkout at seed 1 and the
run length BENCHMARK.json fixes: RUNS times with `--trace 0` for the
end-to-end metrics and RUNS times with `--trace 1` for the per-layer
metrics, each metric recorded as the median of its runs with their min
and max, so a pair of files shows where time moved, and whether the move is
wider than the spread. It then writes one schema-versioned file with the
host (Python, numpy, cores) and the git commit. A commit's file is
comparable with another's only when both were made on the same host.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 3
SEED = 1
RUNS = 3  # untraced and traced runs per workload; one run moves with the host's state


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_pass(names, seconds, trace):
    """One `--workload all` run; returns each workload's result file."""
    files = {name: ROOT / ".perfbench" / f"{name}-seed{SEED}-trace{trace}.json" for name in names}
    for path in files.values():  # a stale file must not stand in for a failed run
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    if subprocess.run(cmd, cwd=ROOT, check=False).returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd[1:])} failed; no BENCH file written")
    return {name: json.loads(path.read_text()) for name, path in files.items()}


def spread(runs):
    """Each metric of the runs as its median, min and max."""
    out = {}
    for key, metric in runs[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in runs]
        out[key] = {"value": statistics.median(values), "min": min(values), "max": max(values),
                    "unit": metric["unit"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="trajectory index: writes BENCH_<n>.json")
    args = ap.parse_args(argv)
    if args.n < 0:
        ap.error("n must be >= 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    untraced = [run_pass(names, seconds, 0) for _ in range(RUNS)]
    traced = [run_pass(names, seconds, 1) for _ in range(RUNS)]

    workloads = {}
    for name in names:
        runs, layers = [u[name] for u in untraced], [t[name] for t in traced]
        same_bits = len({r["output_digest"] for r in runs + layers}) == 1  # one seed, one digest
        workloads[name] = {
            "correct": all(r["correct"] for r in runs + layers) and same_bits,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "output_digest": runs[0]["output_digest"],
            "end_to_end": spread(runs),
            "per_layer": spread(layers),
            "missing_spans": sorted({s for r in layers for s in r["missing_spans"]}),
        }
    # Python, numpy, BLAS, cores (nproc) and machine, as the benchmark read them
    host = untraced[0][names[0]]["host"]
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
        "runs": RUNS,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
