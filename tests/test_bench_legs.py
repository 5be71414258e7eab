"""The one timing loop behind both benchmarks, and the settings it dropped.

`tests/test_bench.py` pins the reports; these tests pin how they are timed:
every pass times each leg once and the leg order reverses on every other
pass, so neither leg always runs second on warm caches.
"""

import inspect

import pytest

from risecure import bench
from risecure.attack import attack_datasets
from risecure.bench import run_batch_bench, run_throughput_bench
from risecure.cli import main


def _record_legs(monkeypatch):
    """Patch the kernel's sampler to log (buffered, mode) per call; returns the log."""
    calls = []
    real = bench.sample_with_buffer

    def recording(buf, *args, mode, **kwargs):
        calls.append((buf is not None, mode))
        return real(buf, *args, mode=mode, **kwargs)

    monkeypatch.setattr(bench, "sample_with_buffer", recording)
    return calls


def _runs(calls, size):
    """The log cut into consecutive runs of `size` calls, one leg label per run."""
    runs = [calls[i : i + size] for i in range(0, len(calls), size)]
    assert all(len(set(run)) == 1 for run in runs)
    return [run[0] for run in runs]


def test_batch_legs_reverse_order_on_every_other_pass(monkeypatch):
    calls = _record_legs(monkeypatch)
    run_batch_bench("bch", batch_sizes=(2,), repeats=4, seed=0)
    unbuf, buf = (False, "hashed"), (True, "hashed")
    assert _runs(calls, 2) == [unbuf, buf, buf, unbuf, unbuf, buf, buf, unbuf]


def test_throughput_legs_take_turns_over_three_passes(monkeypatch):
    calls = _record_legs(monkeypatch)
    run_throughput_bench("bch", samples=2, seed=0)
    corr, hashed = (False, "corrected"), (False, "hashed")
    assert _runs(calls, 2) == [corr, hashed, hashed, corr, corr, hashed]


def test_only_the_kernel_reads_the_clock():
    kernel = inspect.getsource(bench._time_legs)
    assert inspect.getsource(bench).count("perf_counter") == kernel.count("perf_counter") > 0
    for run in (run_batch_bench, run_throughput_bench):
        assert "_time_legs(" in inspect.getsource(run)


@pytest.mark.parametrize("distinct_keys", [False, True], ids=["repeated", "distinct"])
def test_default_batch_counters(distinct_keys):
    rep = run_batch_bench("bch", seed=0, distinct_keys=distinct_keys)
    assert rep["capacity"] == 16
    for row in rep["rows"]:
        b = row["batch"]
        assert {k: v for k, v in row["unbuffered"].items() if k != "seconds"} == {
            "hits": 0, "misses": b, "decode_calls": b, "evictions": 0}
        buffered = {k: v for k, v in row["buffered"].items() if k != "seconds"}
        if distinct_keys:
            assert buffered == {"hits": 0, "misses": b, "decode_calls": b, "evictions": 0}
        else:
            assert buffered == {"hits": b - 1, "misses": 1, "decode_calls": 1, "evictions": 0}


def test_removed_settings_are_gone():
    with pytest.raises(TypeError):
        run_batch_bench("bch", batch_sizes=(1,), capacity=8)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--capacity", "8"])
    assert exc.value.code == 2
    assert list(inspect.signature(attack_datasets).parameters) == ["seed", "count", "stages"]
