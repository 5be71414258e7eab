import pytest

from risecure.selftest import run_selftest


def test_selftest_passes_clean():
    ok, results = run_selftest(seed=0)
    assert ok
    assert len(results) >= 10
    assert all(passed for _, passed, _ in results)


def test_fault_injection_is_detected(corrupted_decoder):
    ok, results = run_selftest(seed=0)
    assert not ok
    failed = {name for name, passed, _ in results if not passed}
    # the corrupted decoder must trip the codec checks
    assert failed >= {"codec-clean-roundtrip", "codec-t-error-roundtrip",
                      "code-offset-identity"}


def test_selftest_is_deterministic():
    a = run_selftest(seed=3)
    b = run_selftest(seed=3)
    assert a == b


@pytest.mark.parametrize("seed", [1.5, True, "0"])
def test_non_integer_seed_raises_before_any_check_runs(seed):
    with pytest.raises(ValueError, match="seed"):
        run_selftest(seed)
