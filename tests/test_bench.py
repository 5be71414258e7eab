import pytest

from risecure.bench import (FPGA_REFERENCE, run_batch_bench,
                            run_throughput_bench)


def test_published_hardware_reference_constants():
    rs, bch = FPGA_REFERENCE["rs"], FPGA_REFERENCE["bch"]
    assert rs["crps_per_ms"] == {"corrected": 66.55, "hashed": 59.46}
    assert rs["batch16_us"] == {"unbuffered": 253.13, "buffered": 92.94}
    assert rs["batch16_speedup"] == 2.72
    assert bch["crps_per_ms"] == {"corrected": 173.4, "hashed": 171.3}
    assert bch["batch16_us"] == {"unbuffered": 21.64, "buffered": 13.24}
    assert bch["batch16_speedup"] == 1.63


def test_repeated_key_batch_counters_are_exact():
    rep = run_batch_bench("bch", batch_sizes=(1, 4, 8), repeats=1, seed=0)
    assert rep["workload"] == "repeated-key" and rep["code"] == "bch-127-36-15"
    assert [r["batch"] for r in rep["rows"]] == [1, 4, 8]
    for row in rep["rows"]:
        b = row["batch"]
        assert row["unbuffered"]["decode_calls"] == b
        assert row["buffered"]["decode_calls"] == 1
        assert row["buffered"]["hits"] == b - 1
        assert row["buffered"]["misses"] == 1
        assert row["unbuffered"]["seconds"] > 0 and row["buffered"]["seconds"] > 0
        assert row["speedup"] == pytest.approx(
            row["unbuffered"]["seconds"] / row["buffered"]["seconds"])


def test_distinct_keys_workload_defeats_the_buffer():
    rep = run_batch_bench("bch", batch_sizes=(4, 8), repeats=1, seed=1,
                          distinct_keys=True)
    assert rep["workload"] == "distinct-keys"
    for row in rep["rows"]:
        assert row["buffered"]["decode_calls"] == row["batch"]
        assert row["buffered"]["hits"] == 0


def test_throughput_report_is_consistent():
    rep = run_throughput_bench("bch", samples=30, seed=0)
    crps = rep["crps_per_ms"]
    assert crps["corrected"] > 0 and crps["hashed"] > 0
    want = 100.0 * (crps["hashed"] - crps["corrected"]) / crps["corrected"]
    assert rep["hash_overhead_pct"] == pytest.approx(want)
    assert rep["fpga_reference"] is FPGA_REFERENCE["bch"]
    assert rep["samples"] == 30


# each of these passed the old `< 1` check and then raised a bare TypeError
@pytest.mark.parametrize("call,name", [
    (lambda: run_batch_bench("bch", batch_sizes=(1,), repeats=1.5), "repeats"),
    (lambda: run_batch_bench("bch", batch_sizes=(2.5,), repeats=1), "batch_sizes"),
    (lambda: run_batch_bench("bch", batch_sizes=(1, 0), repeats=1), "batch_sizes"),
    (lambda: run_throughput_bench("bch", samples=2.5), "samples"),
    (lambda: run_throughput_bench("bch", samples=True), "samples"),
], ids=["repeats-float", "batch-size-float", "batch-size-zero", "samples-float", "samples-bool"])
def test_bench_counts_raise_value_error_naming_them(call, name):
    with pytest.raises(ValueError, match=name):
        call()
