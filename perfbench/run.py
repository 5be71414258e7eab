"""risecure benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --compare A.json B.json

With --trace 0 the run sets up the workload several times (median is
setup_s), then times ops for S seconds with no tracing and reports the
end-to-end metrics. With --trace 1 it runs the first check window twice on
fresh set-ups, untraced then traced, and reports per-layer metrics from the
traced pass plus how much tracing slowed it. Every output is checked; the
last stdout line is one JSON object {correct, attempted, failed, metrics}.
A full result file (counters, output digest, host) goes to .perfbench/.
All times are host time: the simulator has no cycle model.
"""

import os

# one thread: the closed loop has one client, and BLAS must not add workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns, process_time_ns  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench"
SCHEMA_VERSION = 1
SETUP_REPEATS = 10
SEGMENTS = 5

END_TO_END = {  # name -> unit
    "samples_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# reported in the result file and summary, not gated: fail_frac and
# instr_per_s are zero on some workloads, and op_wall_p99_us, the wall-clock
# tail, measures preemption by other processes more than the program
EXTRA_END_TO_END = {"fail_frac": "ratio", "instr_per_s": "1/s", "op_wall_p99_us": "us"}

PER_LAYER = {
    "reed_solomon.encode.calls": "count", "reed_solomon.encode.self_s": "s",
    "reed_solomon.syndromes.calls": "count", "reed_solomon.syndromes.self_s": "s",
    "reed_solomon.decode.self_s": "s",
    "galois.berlekamp_massey.calls": "count", "galois.berlekamp_massey.self_s": "s",
    "galois.berlekamp_massey.p50_us": "us",
    "galois.locator_roots.calls": "count", "galois.locator_roots.self_s": "s",
    "galois.locator_roots.p50_us": "us",
    "bch.syndromes.calls": "count", "bch.syndromes.self_s": "s",
    "bch.decode.self_s": "s", "bch.encode.calls": "count", "bch.encode.self_s": "s",
    "puf.eval_raw.calls": "count", "puf.eval_raw.self_s": "s", "puf.eval_raw.p50_us": "us",
    "puf.reference_response.calls": "count", "puf.reference_response.self_s": "s",
    "prng.stream.calls": "count", "prng.stream.self_s": "s", "prng.derive_seed.calls": "count",
    "extractor.reconstruct.calls": "count", "extractor.reconstruct.self_s": "s",
    "extractor.reconstruct.p50_us": "us",
    "extractor.enroll.calls": "count", "extractor.enroll.self_s": "s",
    "extractor.decode_ok_ratio": "ratio", "extractor.error_weight_mean": "errors",
    "extractor.headroom_min": "errors",
    "buffer.lookup.calls": "count", "buffer.insert.calls": "count",
    "buffer.hit_ratio": "ratio", "buffer.evictions": "count",
    "buffer.sample_with_buffer.self_s": "s",
    "hashing.compose_response.calls": "count", "hashing.compose_response.self_s": "s",
    "hashing.compose_response.p50_us": "us",
    "isa.run.calls": "count", "isa.run.self_s": "s",
    "isa.retired_instr": "count", "isa.custom_instr": "count",
    "isa.PufDevice.sample_r3.calls": "count", "isa.PufDevice.sample_r3.self_s": "s",
    "isa.status_nonzero": "count", "isa.instr_per_s": "1/s",
    "fail_frac": "ratio", "trace.overhead_frac": "ratio",
}


def load_package():
    """Import risecure from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "risecure" / "__init__.py").is_file():
        raise SystemExit(f"error: no risecure sources under {src}")
    sys.path.insert(0, str(src))
    import risecure

    if Path(risecure.__file__).resolve().parent != (src / "risecure").resolve():
        raise SystemExit(f"error: risecure imported from {risecure.__file__}, not {src}")


def host_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout if it is a git work tree; read, not run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_phase(w, seconds, tracer=None, between=()):
    """Closed loop for `seconds` and at least the check window.

    Each callable in `between` runs once, between two ops, at evenly spaced
    times across the phase.
    """
    w.begin_checks()
    lat = []
    cpu = []
    ok_samples = []
    failed = 0
    snapshot = None
    pending = list(between)
    gap = seconds / (len(pending) + 1)
    start = perf_counter()
    deadline = start + seconds
    next_at = start + gap
    i = 0
    while i < w.check_ops or perf_counter() < deadline:
        w.prepare(i)
        if tracer:
            tracer.start_op(i)
        c0 = process_time_ns()
        t0 = perf_counter_ns()
        log = w.op(i)
        t1 = perf_counter_ns()
        c1 = process_time_ns()
        if tracer:
            tracer.end_op(t0, t1)
        lat.append(t1 - t0)
        cpu.append(c1 - c0)
        d, f = w.check(i, log)
        ok_samples.append(d)
        failed += f
        i += 1
        if i == w.check_ops:
            w.close_window()
            window_busy_ns = sum(lat)
            if tracer:
                snapshot = tracer.snapshot()
        if pending and perf_counter() >= next_at:
            pending.pop()()
            next_at += gap
    for task in pending:
        task()
    w.finish()
    return {
        "ops": i,
        "failed": failed,
        "delivered": sum(ok_samples),
        "ok_samples": ok_samples,
        "lat_ns": lat,
        "cpu_ns": cpu,
        "busy_s": sum(lat) / 1e9,
        "window_busy_s": window_busy_ns / 1e9,
        "snapshot": snapshot,
        "digest": w.digest.hexdigest(),
        "counters": w.counters(),
    }


def timed_setup(w):
    t0 = perf_counter()
    w.setup()
    return perf_counter() - t0


def end_to_end(w, phase, setup_times):
    """samples_per_s is the median over SEGMENTS consecutive slices of the
    run's ops; op_p50_us and op_p99_us are percentiles of every op's CPU time.

    On a shared host, speed drops in bursts of a fraction of a second; a
    median over slices keeps one burst from setting a whole run's
    throughput. An op is one thread of pure computation with no I/O or
    waiting, so its process CPU time is its latency on a core of its own;
    wall time would add the time the OS gave other processes, which set
    the tail on a shared host.
    """
    lat, ok = phase["lat_ns"], phase["ok_samples"]
    n = len(lat)
    k = min(SEGMENTS, n)
    cuts = [n * j // k for j in range(k + 1)]
    sps = [sum(ok[a:b]) / (sum(lat[a:b]) / 1e9) for a, b in zip(cuts, cuts[1:])]
    cpu = sorted(phase["cpu_ns"])
    wall = sorted(lat)
    return {
        "samples_per_s": statistics.median(sps),
        "op_p50_us": statistics.median(cpu) / 1e3,
        "op_p99_us": percentile(cpu, 0.99) / 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": w.layer_ratios()["fail_frac"],
        "instr_per_s": phase["counters"].get("retired_instr", 0) / phase["window_busy_s"],
        "op_wall_p99_us": percentile(wall, 0.99) / 1e3,
    }


def percentile(ordered, q):
    """Nearest-rank percentile of a sorted list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(w, untraced, traced):
    snap = traced["snapshot"]
    metrics = {}
    for name, unit in PER_LAYER.items():
        span, _, stat = name.rpartition(".")
        if span in snap["calls"]:
            if stat == "calls":
                metrics[name] = snap["calls"][span]
            elif stat == "self_s":
                metrics[name] = snap["self_ns"][span] / 1e9
            elif stat == "p50_us":
                d = snap["durations"][span]
                metrics[name] = statistics.median(d) / 1e3 if d else 0.0
    c = traced["counters"]
    lookups = c["hits"] + c["misses"]
    metrics.update(w.layer_ratios())
    metrics.update({
        "buffer.hit_ratio": c["hits"] / lookups if lookups else 0.0,
        "buffer.evictions": c["evictions"],
        "isa.retired_instr": snap["retired"],
        "isa.custom_instr": snap["custom"],
        "isa.status_nonzero": c.get("status_nonzero", 0),
        "isa.instr_per_s": c.get("retired_instr", 0) / untraced["window_busy_s"],
        "trace.overhead_frac": 1.0 - (traced["delivered"] / traced["busy_s"])
                               / (untraced["delivered"] / untraced["busy_s"]),
    })
    if "retired_instr" in c and (c["retired_instr"], c["custom_instr"]) != (snap["retired"], snap["custom"]):
        w.fail(f"traced step count {snap['retired']}/{snap['custom']} differs from the "
               f"handler path model {c['retired_instr']}/{c['custom_instr']}")
    return {name: metrics[name] for name in PER_LAYER}


def run_workload(name, seed, seconds, trace, check_ops=None, setup_repeats=SETUP_REPEATS,
                 write=True):
    """Run one workload in this process; returns the result document."""
    import spans
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed, check_ops)
    result = {
        "schema_version": SCHEMA_VERSION, "workload": name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "check_ops": w.check_ops,
        "samples_per_op": w.samples_per_op, "host": host_info(),
    }
    if not trace:
        # set-up is short, so its repeats are spread over the run: a median
        # of one moment of host speed would swing more than the op metrics
        setup_times = [timed_setup(w)]
        spare = [lambda: setup_times.append(timed_setup(WORKLOADS[name](seed)))] * (setup_repeats - 1)
        phase = run_phase(w, seconds, between=spare)
        metrics = end_to_end(w, phase, setup_times)
        units, shown = {**END_TO_END, **EXTRA_END_TO_END}, END_TO_END
        result.update(setup_s_samples=setup_times, op_samples=phase["ops"])
        attempted, failed = phase["ops"], phase["failed"]
    else:
        timed_setup(w)
        untraced = run_phase(w, seconds / 2)
        timed_setup(w)
        tracer = spans.Tracer(record_ops=min(w.check_ops, 64))
        tracer.install()
        try:
            phase = run_phase(w, seconds / 2, tracer)
        finally:
            tracer.remove()
        if (untraced["digest"], untraced["counters"]) != (phase["digest"], phase["counters"]):
            w.fail("traced pass's digest or counters differ from the untraced pass's")
        metrics = per_layer(w, untraced, phase)
        units = shown = PER_LAYER
        result["spans"] = tracer.span_rows()
        result["missing_spans"] = tracer.missing
        attempted = untraced["ops"] + phase["ops"]
        failed = untraced["failed"] + phase["failed"]
    result.update({
        "output_digest": phase["digest"],
        "counters": phase["counters"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "correct": not w.errors,
        "errors": w.errors,
    })
    result["line"] = {k: result[k] for k in ("correct", "attempted", "failed")}
    result["line"]["metrics"] = {k: result["metrics"][k] for k in shown}
    if write:
        RESULTS.mkdir(exist_ok=True)
        stem = RESULTS / f"{name}-seed{seed}"
        if trace:
            path = Path(f"{stem}-spans.json")
            path.write_text(json.dumps({"columns": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                                        "spans": result["spans"]}) + "\n")
            result["spans_file"] = str(path)
        path = Path(f"{stem}-trace{int(trace)}.json")
        path.write_text(json.dumps({k: v for k, v in result.items() if k not in ("line", "spans")},
                                   indent=1) + "\n")
        result["result_file"] = str(path)
    return result


def compare(a_path, b_path):
    """Exit status 0 when two result files have equal digests and counters."""
    try:
        a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diffs = [k for k in ("workload", "seed", "check_ops", "output_digest", "counters") if a.get(k) != b.get(k)]
    for k in diffs:
        print(f"differs: {k}: {a.get(k)!r} != {b.get(k)!r}")
    if not diffs:
        print(f"equal: {a['workload']} seed {a['seed']}: digest {a['output_digest'][:16]}..., "
              f"{len(a['counters'])} counters")
    return 1 if diffs else 0


def run_all(seed, seconds, trace):
    """Each workload in its own process; prints every metric with its unit."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print("\n".join(proc.stdout.strip().splitlines()[:-1]))
        if proc.returncode != 0:
            print(f"{name}: FAILED (exit {proc.returncode})")
            status = 1
    return status


def report(result):
    timed = result.get("op_samples", f"per-layer figures from the first {result['check_ops']}")
    print(f"{result['workload']} seed {result['seed']}: {result['attempted']} ops, {timed} timed, "
          f"{result['samples_per_op']} samples per op, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  output_digest {result['output_digest']}")
    for err in result["errors"]:
        print(f"  MISMATCH: {err}")
    if "result_file" in result:
        print(f"  result file: {result['result_file']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        ap.error("--seconds and --seed must be >= 0")
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    load_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or 'all'")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(json.dumps(result["line"]))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
