"""Smoke tests for the benchmark at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"rs-arbiter-unbuffered": 3, "bch-sram-batch16": 6, "isa-firmware": 40}


def tiny(name, trace, seed=5):
    return run.run_workload(name, seed, 0, trace, check_ops=TINY[name], setup_repeats=1,
                            write=False)


def package_values():
    """Every attribute of every risecure module and class, by name."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("risecure"):
            continue
        for attr, val in vars(mod).items():
            out[(modname, attr)] = val
            if isinstance(val, type):
                out.update({(modname, val.__name__, a): v for a, v in vars(val).items()})
    return out


def package_bindings():
    return {key: id(val) for key, val in package_values().items()}


def wrapped_attributes():
    """Names in the risecure package bound to a tracer wrapper."""
    return [key for key, val in package_values().items() if hasattr(val, "_perfbench_span")]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def pair(request):
    name = request.param
    before = package_bindings()
    untraced, traced = tiny(name, False), tiny(name, True)
    assert package_bindings() == before, "tracer left a risecure attribute rebound"
    return untraced, traced


def test_traced_and_untraced_runs_agree(pair):
    untraced, traced = pair
    assert untraced["correct"], untraced["errors"]
    assert traced["correct"], traced["errors"]
    assert untraced["output_digest"] == traced["output_digest"]
    assert untraced["counters"] == traced["counters"]
    assert untraced["failed"] == 0


def test_span_self_times_fit_in_the_op(pair):
    _, traced = pair
    rows = traced["spans"]
    assert rows
    covered = defaultdict(int)
    root = {}
    for sid, name, t0, t1, parent, op in rows:
        if parent == -1:
            root[op] = (sid, t0, t1)
        else:
            covered[parent] += t1 - t0
    self_sum = defaultdict(int)
    for sid, name, t0, t1, parent, op in rows:
        self_ns = t1 - t0 - covered[sid]
        assert self_ns >= 0, (name, self_ns)
        if parent != -1:
            assert root[op][1] <= t0 <= t1 <= root[op][2]
            self_sum[op] += self_ns
    for op, (_, t0, t1) in root.items():
        assert self_sum[op] <= t1 - t0
    names = {r[1] for r in rows}
    workload = traced["workload"]
    expect = {"rs-arbiter-unbuffered": "reed_solomon.decode",
              "bch-sram-batch16": "buffer.lookup", "isa-firmware": "isa.PufDevice.sample_r3"}
    assert expect[workload] in names


def test_per_layer_metrics_are_complete(pair):
    _, traced = pair
    assert set(traced["line"]["metrics"]) == set(run.PER_LAYER)


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    result = tiny("bch-sram-batch16", False)
    assert result["correct"]
    assert wrapped_attributes() == []
    assert set(result["line"]["metrics"]) == set(run.END_TO_END)


def test_wrong_output_is_caught(monkeypatch):
    import risecure.buffer

    original = risecure.buffer.compose_response

    def corrupt(*args, **kwargs):
        r3 = original(*args, **kwargs)
        r3[0] ^= 1
        return r3

    monkeypatch.setattr(risecure.buffer, "compose_response", corrupt)
    for name in WORKLOADS:
        result = tiny(name, False)
        assert not result["correct"], name
        assert any("R3" in e for e in result["errors"])


def test_compare_mode(tmp_path):
    doc = {"workload": "w", "seed": 1, "check_ops": 2, "output_digest": "ab",
           "counters": {"hits": 3}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    b.write_text(json.dumps(doc))
    assert run.compare(a, b) == 0
    b.write_text(json.dumps({**doc, "counters": {"hits": 4}}))
    assert run.compare(a, b) == 1


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rs-arbiter-unbuffered",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
